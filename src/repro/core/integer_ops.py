"""Bit-exact integer reference for fixed-point inference.

The library emulates quantized inference by snapping values onto the
representable grid and computing in float (Ristretto's strategy).  The
accelerator, of course, computes in *integer* arithmetic.  This module
implements that integer datapath — integer weight/input codes, 64-bit
accumulation, round-half-to-even re-quantization — so the emulation can
be *proved* equivalent rather than assumed:

    float64_emulation(layer(x, w))  ==  decode(integer_layer(Qx, Qw))

The equality is exact against a float64 emulation (products of b-bit
codes carry at most ~2b significant bits and the layer sums stay well
inside float64's 53-bit significand).  The float32 production path
agrees to within float32 rounding; ``tests/core/test_integer_ops.py``
checks both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fixed_point import FixedPointQuantizer, fixed_codes
from repro.errors import QuantizationError
from repro.nn.im2col import conv_output_size, im2col


def _round_half_even_rshift(values: np.ndarray, shift: int) -> np.ndarray:
    """Arithmetic right shift with round-half-to-even (matches np.rint)."""
    if shift <= 0:
        return values << (-shift)
    floor = values >> shift           # floor division for negatives too
    remainder = values - (floor << shift)
    half = 1 << (shift - 1)
    round_up = (remainder > half) | ((remainder == half) & ((floor & 1) == 1))
    return floor + round_up.astype(np.int64)


@dataclass(frozen=True)
class FixedPointFormat:
    """A concrete Qm.f signed fixed-point format."""

    total_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if self.total_bits < 2:
            raise QuantizationError("need >= 2 bits")

    @property
    def scale(self) -> float:
        return float(2.0**self.frac_bits)

    @property
    def q_min(self) -> int:
        return -(2 ** (self.total_bits - 1))

    @property
    def q_max(self) -> int:
        return 2 ** (self.total_bits - 1) - 1

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Float values -> integer codes (round-to-nearest-even, saturating)."""
        return fixed_codes(values, self.total_bits, self.frac_bits)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Integer codes -> float values (float64 for exactness)."""
        return np.asarray(codes, dtype=np.float64) / self.scale

    def requantize_product_sum(
        self, accumulator: np.ndarray, product_frac_bits: int
    ) -> np.ndarray:
        """Round a wide accumulator back into this format.

        ``accumulator`` holds sums of products at ``product_frac_bits``
        fractional bits; the shift back to ``frac_bits`` rounds half to
        even (matching the float path's ``np.rint``) and saturates.
        """
        shift = product_frac_bits - self.frac_bits
        scaled = _round_half_even_rshift(accumulator.astype(np.int64), shift)
        return np.clip(scaled, self.q_min, self.q_max).astype(np.int64)


def align_bias(
    bias_codes: np.ndarray, bias_frac_bits: int, product_frac_bits: int
) -> np.ndarray:
    """Re-scale bias codes to the product accumulator's radix.

    Left-shifts when the accumulator is finer; rounds (half to even)
    when the bias carries more fractional bits than the accumulator —
    exactly what a hardware bias-alignment stage does.
    """
    shift = bias_frac_bits - product_frac_bits
    return _round_half_even_rshift(bias_codes.astype(np.int64), shift)


def integer_dense(
    x_codes: np.ndarray,
    w_codes: np.ndarray,
    bias_codes: np.ndarray,
    in_format: FixedPointFormat,
    w_format: FixedPointFormat,
    out_format: FixedPointFormat,
    bias_frac_bits: int,
) -> np.ndarray:
    """Integer inner product ``y = x @ W + b`` entirely in int64.

    Products carry ``in.frac + w.frac`` fractional bits; the bias is
    aligned to that scale (see :func:`align_bias`) before accumulation;
    the sum is re-quantized into ``out_format``.
    """
    product_frac = in_format.frac_bits + w_format.frac_bits
    acc = x_codes.astype(np.int64) @ w_codes.astype(np.int64)
    acc = acc + align_bias(bias_codes, bias_frac_bits, product_frac)
    return out_format.requantize_product_sum(acc, product_frac)


def integer_conv2d(
    x_codes: np.ndarray,
    w_codes: np.ndarray,
    bias_codes: np.ndarray,
    stride: int,
    padding: int,
    in_format: FixedPointFormat,
    w_format: FixedPointFormat,
    out_format: FixedPointFormat,
    bias_frac_bits: int,
) -> np.ndarray:
    """Integer NCHW convolution via im2col, int64 accumulation."""
    n = x_codes.shape[0]
    out_c = w_codes.shape[0]
    kernel = w_codes.shape[2]
    out_h = conv_output_size(x_codes.shape[2], kernel, stride, padding)
    out_w = conv_output_size(x_codes.shape[3], kernel, stride, padding)

    cols = im2col(x_codes.astype(np.int64), kernel, stride, padding)
    w_mat = w_codes.reshape(out_c, -1).astype(np.int64)
    product_frac = in_format.frac_bits + w_format.frac_bits
    acc = w_mat @ cols
    acc = acc + align_bias(bias_codes, bias_frac_bits, product_frac)[:, None]
    out = out_format.requantize_product_sum(acc, product_frac)
    return out.reshape(out_c, out_h, out_w, n).transpose(3, 0, 1, 2)


def format_for_tensor(values: np.ndarray, total_bits: int) -> FixedPointFormat:
    """The dynamic fixed-point format the quantizer would pick."""
    quantizer = FixedPointQuantizer(total_bits)
    max_abs = float(np.max(np.abs(values), initial=0.0))
    return FixedPointFormat(total_bits, quantizer.frac_bits_for(max_abs))
