"""Training loop tests on tiny synthetic problems."""

import numpy as np
import pytest

from repro import nn
from repro.errors import ConfigurationError, TrainingError


def linearly_separable(n=80, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4)).astype(np.float32)
    labels = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    return x, labels


def make_mlp(seed=0):
    gen = np.random.default_rng(seed)
    return nn.Sequential(
        [nn.Dense(4, 8, rng=gen), nn.ReLU(), nn.Dense(8, 2, rng=gen)]
    )


def test_fit_improves_accuracy():
    x, y = linearly_separable()
    net = make_mlp()
    trainer = nn.Trainer(net, nn.SGD(net.parameters(), lr=0.1), batch_size=16)
    before = trainer.evaluate(x, y)["accuracy"]
    trainer.fit(x, y, epochs=15)
    after = trainer.evaluate(x, y)["accuracy"]
    assert after > before
    assert after > 0.9


def test_history_records_every_epoch():
    x, y = linearly_separable()
    net = make_mlp()
    trainer = nn.Trainer(net, nn.SGD(net.parameters(), lr=0.05))
    history = trainer.fit(x, y, x, y, epochs=4)
    assert history.epochs == 4
    assert len(history.val_accuracy) == 4
    assert history.best_val_accuracy == max(history.val_accuracy)


def test_early_stopping_halts():
    x, y = linearly_separable()
    net = make_mlp()
    # zero learning rate: validation accuracy can never improve
    trainer = nn.Trainer(net, nn.SGD(net.parameters(), lr=1e-12))
    stopper = nn.EarlyStopping(patience=2)
    history = trainer.fit(x, y, x, y, epochs=50, early_stopping=stopper)
    assert history.epochs <= 4


def test_early_stopping_validation():
    with pytest.raises(ConfigurationError):
        nn.EarlyStopping(patience=0)


def test_divergence_raises_training_error():
    x, y = linearly_separable()
    net = make_mlp()
    # absurd learning rate forces NaN/inf loss quickly
    trainer = nn.Trainer(net, nn.SGD(net.parameters(), lr=1e6, momentum=0.0))
    with pytest.raises(TrainingError):
        trainer.fit(x, y, epochs=20)


def test_hooks_called_around_each_step():
    x, y = linearly_separable(n=32)
    net = make_mlp()
    calls = []
    trainer = nn.Trainer(
        net,
        nn.SGD(net.parameters(), lr=0.01),
        batch_size=16,
        before_step=lambda: calls.append("before"),
        after_step=lambda: calls.append("after"),
    )
    trainer.fit(x, y, epochs=1)
    assert calls == ["before", "after"] * 2  # 32 samples / batch 16


def test_mismatched_lengths_rejected():
    net = make_mlp()
    trainer = nn.Trainer(net, nn.SGD(net.parameters(), lr=0.01))
    with pytest.raises(ConfigurationError):
        trainer.fit(np.zeros((4, 4), dtype=np.float32), np.zeros(3, dtype=np.int64))


def test_invalid_batch_size():
    net = make_mlp()
    with pytest.raises(ConfigurationError):
        nn.Trainer(net, nn.SGD(net.parameters(), lr=0.01), batch_size=0)


def test_training_is_deterministic_given_seed():
    x, y = linearly_separable()

    def run():
        net = make_mlp(seed=7)
        trainer = nn.Trainer(
            net, nn.SGD(net.parameters(), lr=0.05),
            rng=np.random.default_rng(3),
        )
        trainer.fit(x, y, epochs=3)
        return [p.data.copy() for p in net.parameters()]

    first, second = run(), run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def _lenet_small_qat(seed):
    from repro.core import QATTrainer, QuantizedNetwork
    from repro.zoo import build_network

    net = build_network("lenet_small", seed=0)
    qnet = QuantizedNetwork(net, "fixed8")
    images = np.random.default_rng(seed).standard_normal((8, 1, 28, 28)).astype(np.float32)
    qnet.calibrate(images)
    # quant_in leads: the first layer with parameters is the second
    assert not qnet.pipeline.layers[0].parameters()
    trainer = QATTrainer(qnet, nn.SGD(net.parameters(), lr=0.01, momentum=0.9))
    return trainer, images, np.arange(8) % 10


def _dense_first_mlp(seed):
    net = make_mlp()
    x, y = linearly_separable(n=16, seed=seed)
    return nn.Trainer(net, nn.SGD(net.parameters(), lr=0.1)), x, y


@pytest.mark.parametrize("build", [_lenet_small_qat, _dense_first_mlp])
def test_train_step_skips_only_the_unread_input_gradient(build, monkeypatch):
    """One step's parameter gradients equal a full backward's, bit for
    bit, though the first layer with parameters never lowers its input
    gradient (for a conv: no ``W.T @ grad`` and no col2im)."""
    col2im_shapes = []

    def spy(cols, x_shape, *args):
        col2im_shapes.append(x_shape)
        return nn.im2col.col2im(cols, x_shape, *args)

    monkeypatch.setattr(nn.conv, "col2im", spy)
    grads = []
    for full in (False, True):
        trainer, x, y = build(seed=3)
        if full:  # the reference: Sequential.backward, input gradient and all
            network = trainer.network
            monkeypatch.setattr(network, "backward_params", network.backward)
        col2im_shapes.clear()
        trainer.train_step(x, y)
        grads.append([p.grad.tobytes() for p in trainer.network.parameters()])
        convs = [layer for layer in trainer.network.layers if isinstance(layer, nn.Conv2D)]
        lowered = convs if full else convs[1:]
        assert [shape[1] for shape in col2im_shapes] == [c.in_channels for c in lowered[::-1]]
    assert grads[0] == grads[1]
