"""Integer datapath vs float quantization-emulation equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fixed_point import FixedPointQuantizer
from repro.core.integer_ops import (
    FixedPointFormat,
    _round_half_even_div,
    format_for_tensor,
    integer_conv2d,
    integer_dense,
    requantize,
)


def test_round_half_even_matches_rint():
    values = np.arange(-40, 41, dtype=np.int64)  # quarters: divide by 4
    got = _round_half_even_div(values, 4)
    want = np.rint(values / 4.0).astype(np.int64)
    assert np.array_equal(got, want)
    # two fractional bits fewer is the same rounding
    got = requantize(values, FixedPointFormat(64, 2), FixedPointFormat(16, 0))
    assert np.array_equal(got, want)


def test_round_half_even_negative_shift_is_left_shift():
    """Requantizing onto a finer radix is an exact left shift."""
    values = np.array([1, -3], dtype=np.int64)
    got = requantize(values, FixedPointFormat(16, 0), FixedPointFormat(16, 3))
    assert np.array_equal(got, [8, -24])


def test_encode_decode_roundtrip():
    fmt = FixedPointFormat(8, 4)
    values = np.array([0.5, -1.25, 3.0], dtype=np.float32)
    codes = fmt.encode(values)
    assert np.allclose(fmt.decode(codes), values)


def test_encode_saturates():
    fmt = FixedPointFormat(8, 0)
    codes = fmt.encode(np.array([1000.0, -1000.0]))
    assert codes[0] == 127 and codes[1] == -128


def test_format_matches_quantizer_choice():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(100).astype(np.float32) * 0.3
    fmt = format_for_tensor(values, 8)
    quantizer = FixedPointQuantizer(8)
    assert fmt.frac_bits == quantizer.resolve_frac_bits(values, None)
    # encode/decode reproduces the quantizer's grid exactly
    assert np.allclose(fmt.decode(fmt.encode(values)), quantizer.quantize(values))


def _dense_setup(bits, seed=0, n=6, d_in=16, d_out=5, bias_scale=0.1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d_in)).astype(np.float32)
    w = (rng.standard_normal((d_in, d_out)) * 0.3).astype(np.float32)
    b = (rng.standard_normal(d_out) * bias_scale).astype(np.float32)
    in_fmt = format_for_tensor(x, bits)
    w_fmt = format_for_tensor(w, bits)
    b_fmt = format_for_tensor(b, 16)
    return x, w, b, in_fmt, w_fmt, b_fmt


def _dequantized(fmt, values):
    """The float64 value of each code the format rounds ``values`` onto."""
    return fmt.decode(fmt.encode(values))


def _emulated(reference, out_fmt):
    """The float emulation's one rounding of an exact sum onto ``out_fmt``."""
    return np.clip(
        np.rint(reference * out_fmt.scale), out_fmt.q_min, out_fmt.q_max
    ).astype(np.int64)


def _dense_codes(x, w, b, in_fmt, w_fmt, b_fmt, out_fmt):
    acc, acc_fmt = integer_dense(
        in_fmt.encode(x), w_fmt.encode(w), b_fmt.encode(b),
        in_fmt, w_fmt, b_fmt,
    )
    return requantize(acc, acc_fmt, out_fmt)


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_integer_dense_matches_float64_emulation(bits):
    """float64 emulation: dequantized operands and bias, exact
    arithmetic, one rounding onto the output grid."""
    x, w, b, in_fmt, w_fmt, b_fmt = _dense_setup(bits)
    reference = (
        _dequantized(in_fmt, x) @ _dequantized(w_fmt, w)
        + _dequantized(b_fmt, b)
    )
    out_fmt = FixedPointFormat(bits, in_fmt.frac_bits)
    got = _dense_codes(x, w, b, in_fmt, w_fmt, b_fmt, out_fmt)
    assert np.array_equal(got, _emulated(reference, out_fmt)), (
        "integer path must be bit-exact"
    )


@pytest.mark.parametrize("bits,stride,padding", [(8, 1, 0), (8, 2, 1), (4, 1, 1)])
def test_integer_conv_matches_float64_emulation(bits, stride, padding):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)
    w = (rng.standard_normal((4, 3, 3, 3)) * 0.2).astype(np.float32)
    b = (rng.standard_normal(4) * 0.05).astype(np.float32)
    in_fmt = format_for_tensor(x, bits)
    w_fmt = format_for_tensor(w, bits)
    b_fmt = format_for_tensor(b, 16)
    out_fmt = FixedPointFormat(bits, max(in_fmt.frac_bits - 2, 0))

    # float64 direct convolution reference
    from tests.nn.test_conv import reference_conv

    reference = reference_conv(
        _dequantized(in_fmt, x), _dequantized(w_fmt, w),
        _dequantized(b_fmt, b), stride, padding,
    )
    acc, acc_fmt = integer_conv2d(
        in_fmt.encode(x), w_fmt.encode(w), b_fmt.encode(b),
        stride, padding, in_fmt, w_fmt, b_fmt,
    )
    got = requantize(acc, acc_fmt, out_fmt)
    assert np.array_equal(got, _emulated(reference, out_fmt))


def test_float32_production_path_agrees_within_rounding():
    """The float32 emulation in repro.nn agrees with the exact integer
    path to within float32 rounding of the accumulation."""
    from repro import nn

    bits = 8
    x, w, b, in_fmt, w_fmt, b_fmt = _dense_setup(bits, seed=2)
    dense = nn.Dense(16, 5)
    dense.weight.set_data(w_fmt.decode(w_fmt.encode(w)).astype(np.float32))
    dense.bias.set_data(b_fmt.decode(b_fmt.encode(b)).astype(np.float32))
    dense.eval_mode()
    float_out = dense.forward(in_fmt.decode(in_fmt.encode(x)).astype(np.float32))

    out_fmt = FixedPointFormat(16, in_fmt.frac_bits)
    integer_out = _dense_codes(x, w, b, in_fmt, w_fmt, b_fmt, out_fmt)
    # integer output is quantized to the out grid; the float path is
    # not, so they agree to within half an output step (+ float noise)
    max_diff = float(np.abs(float_out - out_fmt.decode(integer_out)).max())
    assert max_diff <= 0.5 / out_fmt.scale + 1e-4


@settings(max_examples=25, deadline=None)
@given(
    bits=st.integers(3, 10),
    seed=st.integers(0, 50),
    # small biases get more fractional bits than the products carry
    bias_scale=st.sampled_from([0.1, 0.01]),
)
def test_integer_dense_property_bit_exact(bits, seed, bias_scale):
    x, w, b, in_fmt, w_fmt, b_fmt = _dense_setup(
        bits, seed=seed, n=3, d_in=8, d_out=4, bias_scale=bias_scale
    )
    out_fmt = FixedPointFormat(bits, in_fmt.frac_bits)
    reference = (
        _dequantized(in_fmt, x) @ _dequantized(w_fmt, w)
        + _dequantized(b_fmt, b)
    )
    got = _dense_codes(x, w, b, in_fmt, w_fmt, b_fmt, out_fmt)
    assert np.array_equal(got, _emulated(reference, out_fmt))
