"""QuantizedNetwork wrapper tests."""

import numpy as np
import pytest

from repro import core, nn
from repro.errors import ConfigurationError
from tests.conftest import make_tiny_cnn


@pytest.fixture
def qnet():
    return core.QuantizedNetwork(make_tiny_cnn(), core.get_precision("fixed8"))


def test_make_quantizers_dispatch():
    wq, act_factory = core.make_quantizers(core.get_precision("fixed8"))
    assert isinstance(wq, core.FixedPointQuantizer)
    assert wq.bits == 8
    assert isinstance(act_factory(), core.FixedPointQuantizer)

    wq, act_factory = core.make_quantizers(core.get_precision("pow2"))
    assert isinstance(wq, core.PowerOfTwoQuantizer)
    act = act_factory()
    assert isinstance(act, core.FixedPointQuantizer) and act.bits == 16

    wq, _ = core.make_quantizers(core.get_precision("binary"))
    assert isinstance(wq, core.BinaryQuantizer)

    wq, act_factory = core.make_quantizers(core.get_precision("float32"))
    assert isinstance(wq, core.IdentityQuantizer)
    assert isinstance(act_factory(), core.IdentityQuantizer)


def test_swap_restores_exact_values(qnet):
    originals = [p.data.copy() for p in qnet.network.parameters()]
    qnet._swap_in_quantized()
    changed = any(
        not np.array_equal(p.data, orig)
        for p, orig in zip(qnet.network.parameters(), originals)
    )
    assert changed, "8-bit quantization must alter some weights"
    qnet._restore_shadow()
    for p, orig in zip(qnet.network.parameters(), originals):
        assert np.array_equal(p.data, orig)


def test_double_swap_raises(qnet):
    qnet._swap_in_quantized()
    with pytest.raises(ConfigurationError):
        qnet._swap_in_quantized()
    qnet._restore_shadow()


def test_restore_without_swap_raises(qnet):
    with pytest.raises(ConfigurationError):
        qnet._restore_shadow()


def test_context_manager_restores_on_exception(qnet):
    originals = [p.data.copy() for p in qnet.network.parameters()]
    with pytest.raises(RuntimeError):
        with qnet.quantized_weights():
            raise RuntimeError("boom")
    for p, orig in zip(qnet.network.parameters(), originals):
        assert np.array_equal(p.data, orig)


def test_weights_are_quantized_inside_context(qnet):
    with qnet.quantized_weights():
        for param in qnet.network.weight_parameters():
            requantized = qnet.weight_quantizer.quantize(param.data)
            assert np.allclose(param.data, requantized, atol=1e-6)


def test_pipeline_interleaves_fake_quant(qnet):
    names = [type(layer).__name__ for layer in qnet.pipeline.layers]
    assert names[0] == "FakeQuantLayer"          # input quantization
    assert names.count("FakeQuantLayer") >= 4    # convs, dense, activations
    # maxpool / flatten are NOT followed by fake quant
    for i, layer in enumerate(qnet.pipeline.layers[:-1]):
        if type(layer).__name__ in ("MaxPool2D", "Flatten"):
            assert type(qnet.pipeline.layers[i + 1]).__name__ != "FakeQuantLayer"


def test_pipeline_shares_parameters(qnet):
    assert set(id(p) for p in qnet.network.parameters()) == set(
        id(p) for p in qnet.pipeline.parameters()
    )


def test_float_spec_is_lossless(tiny_digits):
    net = make_tiny_cnn()
    qnet = core.QuantizedNetwork(net, core.get_precision("float32"))
    x = tiny_digits.test.images[:16]
    plain = net.predict(x)
    quantized = qnet.predict(x)
    assert np.allclose(plain, quantized, atol=1e-6)


def test_fixed16_close_to_float(tiny_digits):
    net = make_tiny_cnn()
    qnet = core.QuantizedNetwork(net, core.get_precision("fixed16"))
    qnet.calibrate(tiny_digits.train.images[:64])
    x = tiny_digits.test.images[:16]
    plain = net.predict(x)
    quantized = qnet.predict(x)
    assert np.argmax(plain, axis=1).tolist() == np.argmax(quantized, axis=1).tolist()


def test_calibrate_initializes_trackers(qnet, tiny_digits):
    qnet.calibrate(tiny_digits.train.images[:32])
    fq_layers = [
        layer for layer in qnet.pipeline.layers
        if type(layer).__name__ == "FakeQuantLayer"
    ]
    assert all(layer.tracker.initialized for layer in fq_layers)
    assert all(not layer.training for layer in fq_layers)


def test_evaluate_returns_accuracy(qnet, tiny_digits):
    qnet.calibrate(tiny_digits.train.images[:32])
    acc = qnet.evaluate(tiny_digits.test.images[:50], tiny_digits.test.labels[:50])
    assert 0.0 <= acc <= 1.0


def test_quantized_state_snapshot(qnet):
    state = qnet.quantized_state()
    assert set(state) == {p.name for p in qnet.network.parameters()}
    # snapshot taken under quantization; shadow restored afterwards
    for param in qnet.network.weight_parameters():
        assert not np.array_equal(state[param.name], param.data) or np.allclose(
            qnet.weight_quantizer.quantize(param.data), param.data
        )


def test_bias_quantized_at_input_precision():
    net = make_tiny_cnn()
    qnet = core.QuantizedNetwork(net, core.get_precision("binary"))
    with qnet.quantized_weights():
        bias = net.layers[0].bias.data
        # binary spec quantizes biases at 16-bit fixed point, not 1 bit
        assert len(np.unique(bias)) >= 1
        weights = net.layers[0].weight.data
        assert len(np.unique(np.abs(weights))) == 1  # weights ARE binary
