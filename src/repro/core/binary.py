"""Binary (1-bit) weight quantization.

Section IV-A.4 of the paper, following BinaryConnect (Courbariaux et
al.): weights are constrained to one bit while inputs and feature maps
stay at 16-bit fixed point — the accelerator keeps multi-bit inputs and
replaces the weight multiplier with a conditional negate.

Two scaling modes are provided:

``"mean"`` (default)
    ``sign(w) * mean(|w|)`` per tensor (the XNOR-Net/BWN scale).  The
    scale is a single shared constant, so hardware still needs only a
    negate plus one per-layer shift/multiply, and training is far more
    stable on small networks.
``"unit"``
    strict BinaryConnect ``±1``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.quantizers import Quantizer
from repro.errors import QuantizationError


class BinaryQuantizer(Quantizer):
    """Constrain values to ``±alpha`` (one stored bit per value)."""

    bits = 1

    def __init__(self, scale: str = "mean"):
        if scale not in ("mean", "unit"):
            raise QuantizationError(f"unknown binary scale mode {scale!r}")
        self.scale_mode = scale

    def scale_for(self, x: np.ndarray, range_hint: Optional[float] = None) -> float:
        if self.scale_mode == "unit":
            return 1.0
        if range_hint is not None:
            # range_hint carries max |x|; the mean scale still comes from
            # the data when available, so hint only guards empty arrays.
            pass
        # numpy sums in memory order: C order keeps the scale's bits
        # independent of how the caller laid the values out
        mean_abs = float(np.mean(np.abs(np.ascontiguousarray(x)))) if x.size else 0.0
        return mean_abs if mean_abs > 0 else 1.0

    def quantize(self, x: np.ndarray, range_hint: Optional[float] = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        alpha = self.scale_for(x, range_hint)
        # sign(0) would drop a weight entirely; map zeros to +alpha.
        signs = np.where(x >= 0, 1.0, -1.0).astype(np.float32)
        return signs * np.float32(alpha)

    def bit_repr(self, x: np.ndarray) -> np.ndarray:
        """The stored sign bits (1 for +alpha, 0 for -alpha)."""
        return (np.asarray(x) >= 0).astype(np.uint8)
