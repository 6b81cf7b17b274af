"""Fixed-point (dynamic fixed point) quantization.

Implements the paper's fixed-point arithmetic family (Section IV-A.2)
with Ristretto-style *dynamic* fixed point: the total bit width is
fixed, but the radix point is placed per tensor group so that the
largest observed magnitude is representable ("we allow a different
radix point location between data and parameters").
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.quantizers import Quantizer
from repro.errors import QuantizationError


def integer_bits_for_range(max_abs: float) -> int:
    """Integer bits (excluding sign) needed to represent ``max_abs``.

    Values in (0.5, 1] need 0 integer bits in a signed Qm.f format
    (max representable magnitude just below 2^m); sub-0.5 ranges yield
    negative integer-bit counts, which shift the radix point right and
    add fractional resolution — exactly Ristretto's behaviour.
    """
    if max_abs <= 0.0:
        return 0
    return int(math.ceil(math.log2(max_abs + 1e-12)))


def _saturate(codes: np.ndarray, bits: int) -> np.ndarray:
    """Clip float codes, in place, to the signed ``bits``-wide range."""
    return np.clip(codes, -(2 ** (bits - 1)), 2 ** (bits - 1) - 1, out=codes)


def quantize_fixed(
    x: np.ndarray, bits: int, frac_bits: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Round-to-nearest-even onto the ``bits``-wide grid ``k / 2^frac_bits``.

    scale -> rint -> saturate -> rescale, for float32 ``x``; the result
    is float32, written into ``out`` when given (which may be ``x``).

    With ``bits <= 24`` every saturated code fits a float32 mantissa,
    and while ``2^frac_bits`` is a normal float32 (``-126 <= frac_bits
    <= 127``) the scaling is an exact exponent shift, so the chain runs
    in float32 in place and yields the very bits a float64 round trip
    does: lanes that overflow float32 before the clip saturate to the
    same codes, and sub-half lanes round to the same signed zeros.
    Wider words or extreme radix points take the float64 chain.
    """
    scale = float(2.0**frac_bits)
    if bits <= 24 and -126 <= frac_bits <= 127:
        if out is None:
            out = np.empty(x.shape, dtype=np.float32)
        with np.errstate(over="ignore"):
            np.multiply(x, scale, out=out)
        np.rint(out, out=out)
        _saturate(out, bits)
        return np.divide(out, scale, out=out)
    wide = x.astype(np.float64) * scale
    np.rint(wide, out=wide)
    _saturate(wide, bits)
    np.divide(wide, scale, out=wide)
    if out is None:
        return wide.astype(np.float32)
    np.copyto(out, wide, casting="unsafe")
    return out


def fixed_codes(x: np.ndarray, bits: int, frac_bits: int) -> np.ndarray:
    """The int64 codes :func:`quantize_fixed` rounds ``x`` onto."""
    wide = np.asarray(x, dtype=np.float64) * float(2.0**frac_bits)
    np.rint(wide, out=wide)
    return _saturate(wide, bits).astype(np.int64)


class FixedPointQuantizer(Quantizer):
    """Signed two's-complement fixed point with saturation.

    Args:
        total_bits: word length including the sign bit.
        frac_bits: radix position; ``None`` (default) derives it per
            call from the array's max magnitude (dynamic fixed point).
        stochastic_rounding / rng: round-to-nearest by default; Gupta et
            al. stochastic rounding is available for training studies.

    The representable grid is ``{-2^(b-1), ..., 2^(b-1)-1} / 2^f``;
    out-of-range values saturate rather than wrap, matching the
    accelerator's saturating arithmetic.
    """

    def __init__(
        self,
        total_bits: int,
        frac_bits: Optional[int] = None,
        stochastic_rounding: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        if total_bits < 2:
            raise QuantizationError("fixed point needs >= 2 bits (sign + magnitude)")
        self.bits = total_bits
        self.frac_bits = frac_bits
        self.stochastic_rounding = stochastic_rounding
        self._rng = rng or np.random.default_rng(0)

    # ------------------------------------------------------------------
    def frac_bits_for(self, max_abs: float) -> int:
        """Radix placement: spend what the integer part doesn't need."""
        return self.bits - 1 - integer_bits_for_range(max_abs)

    def resolve_frac_bits(self, x: np.ndarray, range_hint: Optional[float]) -> int:
        if self.frac_bits is not None:
            return self.frac_bits
        if range_hint is not None:
            return self.frac_bits_for(range_hint)
        # Sign-aware dynamic placement: the two's-complement grid
        # reaches one extra step on the negative side, so an exact
        # -2^k needs one fewer integer bit than +2^k.  Without this,
        # quantize is not idempotent — a saturated most-negative code
        # would shift the radix on the next pass and move every value.
        pos = float(np.max(x, initial=0.0))
        neg = float(-np.min(x, initial=0.0))
        needed = []
        if pos > 0.0:
            needed.append(integer_bits_for_range(pos))
        if neg > 0.0:
            needed.append(int(math.ceil(math.log2(max(neg, 1e-12)))))
        return self.bits - 1 - (max(needed) if needed else 0)

    def quantize(self, x: np.ndarray, range_hint: Optional[float] = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        frac = self.resolve_frac_bits(x, range_hint)
        if not self.stochastic_rounding:
            return quantize_fixed(x, self.bits, frac)
        scale = float(2.0**frac)
        scaled = x.astype(np.float64) * scale
        floor = np.floor(scaled)
        rounded = floor + (self._rng.random(scaled.shape) < scaled - floor)
        return (_saturate(rounded, self.bits) / scale).astype(np.float32)

    def integer_repr(self, x: np.ndarray, range_hint: Optional[float] = None) -> np.ndarray:
        """The stored integer codes (for memory/hardware-level tests)."""
        frac = self.resolve_frac_bits(np.asarray(x), range_hint)
        return fixed_codes(x, self.bits, frac)

    def step_size(self, range_hint: float) -> float:
        """Quantization step for a given dynamic range."""
        return float(2.0 ** -self.frac_bits_for(range_hint))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        radix = "dynamic" if self.frac_bits is None else f"f={self.frac_bits}"
        return f"FixedPointQuantizer(bits={self.bits}, {radix})"
