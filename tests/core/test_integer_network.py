"""Full-network integer inference vs the float quantization emulation."""

import numpy as np
import pytest

from repro import core, nn
from repro.core.integer_network import IntegerInference
from repro.core.integer_ops import _round_half_even_div
from repro.data import load_dataset
from repro.errors import QuantizationError
from repro.zoo import build_network
from tests.conftest import make_tiny_cnn


def calibrated_qnet(net, images, key="fixed8"):
    qnet = core.QuantizedNetwork(net, core.get_precision(key))
    qnet.calibrate(images)
    return qnet


@pytest.fixture(scope="module")
def digits():
    return load_dataset("digits", n_train=200, n_test=100, seed=0)


@pytest.fixture(scope="module")
def trained(digits):
    net = make_tiny_cnn(seed=3)
    trainer = nn.Trainer(
        net, nn.SGD(net.parameters(), lr=0.02, momentum=0.9),
        batch_size=32, rng=np.random.default_rng(0),
    )
    trainer.fit(digits.train.images, digits.train.labels, epochs=3)
    return net


def test_round_half_even_div():
    values = np.arange(-30, 31, dtype=np.int64)
    got = _round_half_even_div(values, 6)
    want = np.rint(values / 6.0).astype(np.int64)
    assert np.array_equal(got, want)


def test_requires_fixed_point_spec(trained, digits):
    qnet = core.QuantizedNetwork(trained, core.get_precision("binary"))
    qnet.calibrate(digits.train.images[:32])
    with pytest.raises(QuantizationError):
        IntegerInference(qnet)


def test_requires_calibration(trained):
    qnet = core.QuantizedNetwork(trained, core.get_precision("fixed8"))
    with pytest.raises(QuantizationError):
        IntegerInference(qnet)


@pytest.mark.parametrize("key", ["fixed8", "fixed16"])
def test_predictions_match_float_emulation(trained, digits, key):
    """The integer pipeline must agree with the float emulation to
    within one LSB of each output (float32 accumulation noise)."""
    qnet = calibrated_qnet(trained, digits.train.images[:64], key)
    x = digits.test.images[:32]
    float_logits = qnet.predict(x)
    integer = IntegerInference(qnet)
    integer_logits = integer.predict(x)
    assert integer_logits.shape == float_logits.shape
    # agreement of argmax on (almost) every sample
    agree = np.mean(
        float_logits.argmax(axis=1) == integer_logits.argmax(axis=1)
    )
    assert agree >= 0.95
    # values agree within a couple of output quantization steps
    scale = np.abs(float_logits).max() + 1e-6
    assert np.max(np.abs(float_logits - integer_logits)) / scale < 0.1


def test_accuracy_survives_integer_deployment(trained, digits):
    """The headline deployment check: emulated accuracy ~= integer
    accuracy (this is what running on the real accelerator would do)."""
    qnet = calibrated_qnet(trained, digits.train.images[:64], "fixed8")
    emulated = qnet.evaluate(digits.test.images, digits.test.labels)
    integer = IntegerInference(qnet).evaluate(
        digits.test.images, digits.test.labels
    )
    assert abs(emulated - integer) <= 0.03


def test_avgpool_network_runs_integer():
    """ALEX-style avg pooling works through the divisor-folding path."""
    rng = np.random.default_rng(0)
    gen = np.random.default_rng(1)
    net = nn.Sequential([
        nn.Conv2D(1, 4, 3, padding=1, name="c1", rng=gen),
        nn.ReLU(name="r1"),
        nn.AvgPool2D(3, stride=2, name="p1"),
        nn.Flatten(name="f"),
        nn.Dense(4 * 4 * 4, 5, name="d1", rng=gen),
    ])
    x = rng.standard_normal((8, 1, 8, 8)).astype(np.float32)
    qnet = calibrated_qnet(net, x, "fixed8")
    integer = IntegerInference(qnet)
    float_logits = qnet.predict(x)
    integer_logits = integer.predict(x)
    assert np.all(np.isfinite(integer_logits))
    agree = np.mean(float_logits.argmax(axis=1) == integer_logits.argmax(axis=1))
    assert agree >= 0.85


@pytest.fixture(scope="module")
def trained_lenet_small(digits):
    net = build_network("lenet_small", seed=0)
    trainer = nn.Trainer(
        net, nn.SGD(net.parameters(), lr=0.02, momentum=0.9),
        batch_size=32, rng=np.random.default_rng(0),
    )
    trainer.fit(digits.train.images, digits.train.labels, epochs=3)
    return net


def test_lenet_small_integer_deployment(trained_lenet_small, digits):
    """End to end on a zoo architecture."""
    qnet = calibrated_qnet(trained_lenet_small, digits.train.images[:64], "fixed8")
    integer = IntegerInference(qnet)
    emulated = qnet.evaluate(digits.test.images, digits.test.labels)
    accuracy = integer.evaluate(digits.test.images, digits.test.labels)
    assert accuracy == pytest.approx(emulated, abs=0.02), (
        "integer deployment must match the emulation"
    )
    assert accuracy > 0.5


def test_per_layer_spec_integer_logits_are_bit_equal(digits):
    """Each tensor is encoded at its own layer's width.  A fresh network
    has zero biases, so bias rounding cannot show here."""
    def planted():
        # conv1's largest weight, 0.9, saturates at 2 bits (top code
        # 0.5) but not on a wider grid, so a wrong encoding width shows
        net = build_network("lenet_small", seed=0)
        conv1 = net.weight_parameters()[0].data
        conv1 *= 0.9 / np.abs(conv1).max()
        conv1.flat[np.abs(conv1).argmax()] = 0.9
        return net

    qnet = core.QuantizedNetwork(planted(), "fixed:2,4,8,8:8")
    qnet.calibrate(digits.train.images[:64])
    x = digits.test.images[:64]
    emulated = qnet.predict(x)
    np.testing.assert_array_equal(IntegerInference(qnet).predict(x), emulated)
    # the narrow layers really run narrow: not fixed8's logits
    fixed8 = calibrated_qnet(planted(), digits.train.images[:64])
    assert not np.array_equal(emulated, fixed8.predict(x))


@pytest.mark.parametrize("key", ["fixed4", "fixed8", "fixed:2,4,4,8:8"])
def test_trained_integer_logits_are_bit_equal(trained_lenet_small, digits, key):
    """With trained (nonzero) biases, every logit is the emulation's.

    The bias is added on the finer of the product and bias radix
    points, so the integer path rounds once per buffer write, where the
    emulation does.  At these widths every float32 product sum is
    exact, so nothing else can tell the two apart."""
    qnet = core.QuantizedNetwork(trained_lenet_small, key)
    qnet.calibrate(digits.train.images[:64])
    x = digits.test.images[:64]
    np.testing.assert_array_equal(
        IntegerInference(qnet).predict(x), qnet.infer(x, backend="reference")
    )


def test_refuses_an_accumulator_int64_cannot_hold(trained_lenet_small, digits):
    """fixed32 products of a 25-input conv1 reach ~1e20 > 2^63: refused,
    naming the layer, rather than wrapped."""
    qnet = calibrated_qnet(trained_lenet_small, digits.train.images[:64], "fixed32")
    with pytest.raises(QuantizationError, match="conv1: .*overflows int64"):
        IntegerInference(qnet).predict(digits.test.images[:4])
