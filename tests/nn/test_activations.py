"""Activation layer values and gradients, and the rectifier oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import backends, nn
from repro.core import FixedPointQuantizer, IdentityQuantizer
from repro.errors import ConfigurationError, QuantizationError, ShapeError
from repro.kernels import fused_relu_quantize
from repro.nn.activations import relu


def test_relu_values():
    relu = nn.ReLU()
    x = np.array([[-2.0, 0.0, 3.0]], dtype=np.float32)
    assert np.array_equal(relu.forward(x), [[0.0, 0.0, 3.0]])


def test_relu_gradient_mask():
    relu = nn.ReLU()
    x = np.array([[-1.0, 2.0]], dtype=np.float32)
    relu.forward(x)
    grad = relu.backward(np.array([[5.0, 7.0]], dtype=np.float32))
    assert np.array_equal(grad, [[0.0, 7.0]])


def test_leaky_relu_values_and_grad():
    leaky = nn.LeakyReLU(0.1)
    x = np.array([[-2.0, 4.0]], dtype=np.float32)
    out = leaky.forward(x)
    assert np.allclose(out, [[-0.2, 4.0]])
    grad = leaky.backward(np.ones_like(x))
    assert np.allclose(grad, [[0.1, 1.0]])


def test_leaky_relu_invalid_slope():
    with pytest.raises(ConfigurationError):
        nn.LeakyReLU(-0.1)


def test_sigmoid_values():
    sig = nn.Sigmoid()
    out = sig.forward(np.array([[0.0]], dtype=np.float32))
    assert np.isclose(out[0, 0], 0.5)


def test_sigmoid_saturates_without_overflow():
    sig = nn.Sigmoid()
    out = sig.forward(np.array([[1000.0, -1000.0]], dtype=np.float32))
    assert np.isclose(out[0, 0], 1.0)
    assert np.isclose(out[0, 1], 0.0)


def test_sigmoid_gradient():
    sig = nn.Sigmoid()
    x = np.array([[0.3]], dtype=np.float32)
    out = sig.forward(x)
    grad = sig.backward(np.ones_like(x))
    assert np.isclose(grad[0, 0], out[0, 0] * (1 - out[0, 0]))


def test_tanh_gradient_numerically():
    rng = np.random.default_rng(0)
    net = nn.Sequential([nn.Dense(3, 3, rng=rng), nn.Tanh()])
    x = rng.standard_normal((2, 3)).astype(np.float32)
    y = rng.standard_normal((2, 3)).astype(np.float32)
    errors = nn.check_gradients(net, nn.MeanSquaredError(), x, y)
    assert max(errors.values()) < 1e-2


@pytest.mark.parametrize("cls", [nn.ReLU, nn.Sigmoid, nn.Tanh])
def test_backward_before_forward_raises(cls):
    with pytest.raises(ShapeError):
        cls().backward(np.ones((1, 2), dtype=np.float32))


@pytest.mark.parametrize("cls", [nn.ReLU, nn.LeakyReLU, nn.Sigmoid, nn.Tanh])
def test_output_shape_passthrough(cls):
    assert cls().output_shape((3, 4, 4)) == (3, 4, 4)


# ----------------------------------------------------------------------
# The rectifier oracle
# ----------------------------------------------------------------------
# Every rectifier in the package — nn.activations.relu, ReLU.forward in
# both modes, FusedBackend.act and kernels.fused_relu_quantize — must
# give the bits of np.where(x > 0, x, 0) followed by the quantizer's own
# quantize.  Two guards in relu carry that:
#
# - fmax, not maximum: np.maximum(NaN, 0) is NaN, so a NaN lane fails
#   every test below;
# - the trailing + 0.0: which zero fmax returns for a (-0.0, +0.0) tie
#   depends on the SIMD loop numpy dispatches.  With numpy 2.4's AVX-512
#   loops it is always +0.0, so without the guard these tests still pass
#   under default dispatch on such a CPU; with those loops disabled
#   (``scripts/ci_smoke.sh kernels`` reruns this file with
#   NPY_DISABLE_CPU_FEATURES) the scalar tail returns -0.0 and they fail.

#: Lanes numpy's SIMD loops and the np.where oracle may treat apart.
SPECIAL_LANES = [
    np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf,
    1e-45, -1e-45, 1e-40, -1e-40,  # float32 subnormals
    np.finfo(np.float32).max, -np.finfo(np.float32).max,
]

rectifier_inputs = hnp.arrays(
    np.float32,
    st.integers(1, 70),  # past the widest SIMD step, so scalar tails run
    elements=st.one_of(st.sampled_from(SPECIAL_LANES), st.floats(width=32)),
)


def _where_relu(x):
    return np.where(x > 0, x, 0).astype(np.float32)


def _assert_same_bits(got, want):
    assert got.dtype == np.float32
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), (
        got, want,
    )


@settings(max_examples=200, deadline=None)
@given(x=rectifier_inputs)
@example(x=np.array([-0.0], dtype=np.float32))
@example(x=np.array([np.nan, -0.0, 1e-45, -np.inf], dtype=np.float32))
def test_relu_matches_where_bitwise(x):
    want = _where_relu(x)
    _assert_same_bits(relu(x), want)
    out = np.empty_like(x)
    assert relu(x, out=out) is out
    _assert_same_bits(out, want)
    inplace = x.copy()
    relu(inplace, out=inplace)
    _assert_same_bits(inplace, want)


def test_relu_of_float64_matches_where():
    x = np.array(
        [1e-50, -1e-50, 1e40, -1e40, np.nan, -0.0, 0.0, 2.5, -2.5, np.inf],
        dtype=np.float64,
    )
    with np.errstate(over="ignore"):
        _assert_same_bits(relu(x), _where_relu(x))


@settings(max_examples=100, deadline=None)
@given(x=rectifier_inputs)
@example(x=np.array([-0.0], dtype=np.float32))
def test_relu_layer_matches_where_in_both_modes(x):
    want = _where_relu(x)
    layer = nn.ReLU()
    layer.eval_mode()
    _assert_same_bits(layer.forward(x), want)
    assert layer._mask is None  # eval mode builds no mask
    layer.train_mode()
    _assert_same_bits(layer.forward(x), want)
    np.testing.assert_array_equal(layer._mask, x > 0)
    grad = np.arange(1, x.size + 1, dtype=np.float32) * np.float32(-0.5)
    _assert_same_bits(
        layer.backward(grad), (grad * (x > 0)).astype(np.float32)
    )
    _assert_same_bits(backends.get("fused").act(layer, x), want)


@settings(max_examples=200, deadline=None)
@given(
    x=rectifier_inputs,
    kind=st.sampled_from(["none", "identity", "fixed"]),
    bits=st.integers(2, 32),
    radix=st.sampled_from(["frac_bits", "hint", "dynamic"]),
    frac_bits=st.integers(-8, 40),
    hint=st.floats(1e-6, 1e6),
    in_place=st.booleans(),
)
@example(x=np.array([-0.0], dtype=np.float32), kind="fixed", bits=8,
         radix="dynamic", frac_bits=0, hint=1.0, in_place=False)
@example(x=np.array([np.nan, 3.0], dtype=np.float32), kind="fixed", bits=8,
         radix="dynamic", frac_bits=0, hint=1.0, in_place=True)
def test_fused_relu_quantize_matches_where_then_quantize(
    x, kind, bits, radix, frac_bits, hint, in_place
):
    if kind == "none":
        quantizer = None
    elif kind == "identity":
        quantizer = IdentityQuantizer(32)
    else:
        quantizer = FixedPointQuantizer(
            bits, frac_bits=frac_bits if radix == "frac_bits" else None
        )
    range_hint = hint if radix == "hint" else None
    rectified = _where_relu(x)
    source = x.copy()

    def fused():
        return fused_relu_quantize(quantizer, source, range_hint, in_place=in_place)

    if quantizer is None:
        want = rectified
    else:
        try:
            want = quantizer.quantize(rectified, range_hint=range_hint)
        except QuantizationError:  # a +inf lane and a dynamic radix
            with pytest.raises(QuantizationError):
                fused()
            return
    got = fused()
    _assert_same_bits(got, want)
    if in_place:
        assert got is source
    else:
        assert source.tobytes() == x.tobytes()
