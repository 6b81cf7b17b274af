"""Bit-exact integer reference for fixed-point inference.

The library emulates quantized inference by snapping values onto the
representable grid and computing in float (Ristretto's strategy).  The
accelerator, of course, computes in *integer* arithmetic.  This module
implements that integer datapath — integer weight/input codes, 64-bit
accumulation, round-half-to-even re-quantization — so the emulation can
be *proved* equivalent rather than assumed:

    float64_emulation(layer(x, w))  ==  decode(integer_layer(Qx, Qw))

A MAC layer (:func:`integer_dense`, :func:`integer_conv2d`) returns its
wide accumulator and that accumulator's format; :func:`requantize` is
the buffer write that follows.  The bias joins the sum on the finer of
the product and bias radix points, so adding it rounds nothing and the
requantize is the one rounding, as in the float emulation.  The
equality is exact against a float64 emulation (products of b-bit codes
carry at most ~2b significant bits and the layer sums stay well inside
float64's 53-bit significand).  The float32 production path agrees to
within float32 rounding; ``tests/core/test_integer_ops.py`` checks
both.  :class:`~repro.core.integer_network.IntegerInference` runs whole
networks on these functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.fixed_point import FixedPointQuantizer, fixed_codes
from repro.errors import QuantizationError
from repro.nn.im2col import conv_output_size, im2col

#: accumulator width carried between a MAC layer and the next requantize
#: (int64; a layer whose worst case could overflow it is refused)
ACCUMULATOR_BITS = 64


def _round_half_even_div(values: np.ndarray, divisor: int) -> np.ndarray:
    """Integer division with round-half-to-even (matches ``np.rint``)."""
    floor = np.floor_divide(values, divisor)
    remainder = values - floor * divisor
    twice = 2 * remainder
    round_up = (twice > divisor) | ((twice == divisor) & ((floor & 1) == 1))
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


def requantize(
    codes: np.ndarray,
    fmt: FixedPointFormat,
    target: FixedPointFormat,
    divisor: int = 1,
) -> np.ndarray:
    """One rounding of ``codes / (2^fmt.frac * divisor)`` onto the
    ``target`` grid: round half to even (the float path's ``np.rint``),
    then saturate.  Average-pooling divisors fold in here so the integer
    path rounds exactly once, like the float path."""
    shift = fmt.frac_bits - target.frac_bits
    numerator = codes.astype(np.int64)
    if shift >= 0:
        total_divisor = divisor << shift
    else:
        numerator = numerator << (-shift)
        total_divisor = divisor
    if total_divisor > 1:
        rounded = _round_half_even_div(numerator, total_divisor)
    else:
        rounded = numerator
    return np.clip(rounded, target.q_min, target.q_max).astype(np.int64)


def _accumulator(
    name: str,
    fan_in: int,
    in_format: FixedPointFormat,
    w_format: FixedPointFormat,
    bias_codes: Optional[np.ndarray],
    bias_format: Optional[FixedPointFormat],
) -> Tuple[Optional[np.ndarray], int, FixedPointFormat]:
    """Where a MAC layer's sum lives: ``(bias, shift, format)``.

    The sum sits on the finer of the product radix and the bias radix:
    the product sum is shifted left by ``shift`` and the bias codes come
    back already shifted, so adding them rounds nothing.  Raises
    :class:`QuantizationError` when the worst case (every product at its
    largest magnitude, then the largest bias) could overflow the int64
    accumulator.
    """
    product_frac = in_format.frac_bits + w_format.frac_bits
    bias, frac, bias_bound = None, product_frac, 0
    if bias_codes is not None:
        frac = max(product_frac, bias_format.frac_bits)
        bias = np.asarray(bias_codes, dtype=np.int64) << (
            frac - bias_format.frac_bits
        )
        bias_bound = -bias_format.q_min << (frac - bias_format.frac_bits)
    shift = frac - product_frac
    worst = (fan_in * in_format.q_min * w_format.q_min << shift) + bias_bound
    if worst >= 2**63:
        raise QuantizationError(
            f"{name}: a worst-case accumulator of {float(worst):.3g} "
            f"overflows int64 ({in_format.total_bits}-bit inputs, "
            f"{w_format.total_bits}-bit weights, fan-in {fan_in}, "
            f"shift {shift})"
        )
    return bias, shift, FixedPointFormat(ACCUMULATOR_BITS, frac)


def integer_dense(
    x_codes: np.ndarray,
    w_codes: np.ndarray,
    bias_codes: Optional[np.ndarray],
    in_format: FixedPointFormat,
    w_format: FixedPointFormat,
    bias_format: Optional[FixedPointFormat],
    name: str = "dense",
) -> Tuple[np.ndarray, FixedPointFormat]:
    """Integer inner product ``x @ W + b`` in int64: the accumulator
    codes and their format; pass both to :func:`requantize` for the
    layer's buffer write.  ``bias_codes`` and ``bias_format`` are
    ``None`` for a layer without a bias."""
    w_codes = np.asarray(w_codes, dtype=np.int64)
    bias, shift, acc_format = _accumulator(
        name, w_codes.shape[0], in_format, w_format, bias_codes, bias_format
    )
    acc = (np.asarray(x_codes, dtype=np.int64) @ w_codes) << shift
    if bias is not None:
        acc += bias
    return acc, acc_format


def integer_conv2d(
    x_codes: np.ndarray,
    w_codes: np.ndarray,
    bias_codes: Optional[np.ndarray],
    stride: int,
    padding: int,
    in_format: FixedPointFormat,
    w_format: FixedPointFormat,
    bias_format: Optional[FixedPointFormat],
    name: str = "conv",
) -> Tuple[np.ndarray, FixedPointFormat]:
    """Integer NCHW convolution via im2col: the int64 accumulator codes
    (NCHW) and their format, as :func:`integer_dense`."""
    n = x_codes.shape[0]
    out_c = w_codes.shape[0]
    kernel = w_codes.shape[2]
    out_h = conv_output_size(x_codes.shape[2], kernel, stride, padding)
    out_w = conv_output_size(x_codes.shape[3], kernel, stride, padding)

    w_mat = np.asarray(w_codes, dtype=np.int64).reshape(out_c, -1)
    bias, shift, acc_format = _accumulator(
        name, w_mat.shape[1], in_format, w_format, bias_codes, bias_format
    )
    cols = im2col(np.asarray(x_codes, dtype=np.int64), kernel, stride, padding)
    acc = (w_mat @ cols) << shift
    if bias is not None:
        acc += bias[:, None]
    return acc.reshape(out_c, out_h, out_w, n).transpose(3, 0, 1, 2), acc_format


def format_for_tensor(values: np.ndarray, total_bits: int) -> FixedPointFormat:
    """The dynamic fixed-point format the quantizer would pick."""
    quantizer = FixedPointQuantizer(total_bits)
    max_abs = float(np.max(np.abs(values), initial=0.0))
    return FixedPointFormat(total_bits, quantizer.frac_bits_for(max_abs))
