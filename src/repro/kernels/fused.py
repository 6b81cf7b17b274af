"""The in-place tails of the fused walk: ReLU and activation quantize.

Every conv, matmul, pool and reshape of the fused walk runs through the
layer's own ``forward``.  What the walk does its own way is the
elementwise tail: a tensor it made itself is rectified and quantized
where it sits instead of into a fresh array.  The routines here are
that tail.  They allocate what they produce, or update in place an
array their caller owns, and keep nothing between calls.  No routine
selects through a mask: quantization saturates with one ``clip``
before it scales (:func:`~repro.core.fixed_point.quantize_fixed`, the
reference quantizer's own chain), and the ReLU is the branch-free
``fmax`` rectifier (:func:`~repro.nn.activations.relu`) that training
and the reference layer run too.  So both are **bitwise-equal** to the
reference ``ReLU`` + ``FakeQuantLayer`` forwards, which the property
tests in ``tests/kernels/test_parity.py`` enforce for every Table III
precision.

Quantization fuses only for the plain round-to-nearest
:class:`~repro.core.fixed_point.FixedPointQuantizer` (the activation
format of every non-float paper precision); anything else — stochastic
rounding, per-channel or custom quantizers — must go through the
quantizer's own ``quantize`` so semantics are never silently changed.
"""

from __future__ import annotations

from typing import Hashable, Optional

import numpy as np

from repro.core.fixed_point import FixedPointQuantizer, quantize_fixed
from repro.core.quantizers import IdentityQuantizer, Quantizer
from repro.kernels.workspace import Workspace
from repro.nn.activations import relu

__all__ = ["fusable_quantizer", "fused_quantize", "fused_relu_quantize"]


def fusable_quantizer(quantizer: Optional[Quantizer]) -> bool:
    """Can the fused clip/round path legally replace ``quantizer``?

    ``True`` for ``None``, identity pass-through, and the exact
    round-to-nearest :class:`FixedPointQuantizer` (subclasses excluded:
    they may redefine the grid).  Everything else must fall back to the
    quantizer's own ``quantize``.
    """
    if quantizer is None or type(quantizer) is IdentityQuantizer:
        return True
    return (
        type(quantizer) is FixedPointQuantizer
        and not quantizer.stochastic_rounding
    )


def fused_quantize(
    quantizer: Optional[Quantizer],
    x: np.ndarray,
    range_hint: Optional[float],
    ws: Optional[Workspace] = None,
    key: Hashable = None,
    in_place: bool = False,
) -> np.ndarray:
    """Quantize ``x`` into a fresh array, or with ``in_place`` into ``x``.

    The caller must have checked :func:`fusable_quantizer`; an identity
    quantizer is a true pass-through (float32 in, same array out).
    ``in_place`` may only be set when ``x`` is memory the caller owns —
    never on the user's input array.  A :class:`Workspace` ``ws`` holds
    the result under ``key`` instead of a fresh array, for callers that
    time the kernel on one buffer.
    """
    if quantizer is None:
        return x
    if type(quantizer) is IdentityQuantizer:
        return np.asarray(x, dtype=np.float32)
    x = np.asarray(x, dtype=np.float32)
    frac = quantizer.resolve_frac_bits(x, range_hint)
    if in_place:
        out = x
    elif ws is not None:
        out = ws.get((key, "q32"), x.shape, np.float32)
    else:
        out = None
    return quantize_fixed(x, quantizer.bits, frac, out=out)


def fused_relu_quantize(
    quantizer: Optional[Quantizer],
    x: np.ndarray,
    range_hint: Optional[float],
    in_place: bool = False,
) -> np.ndarray:
    """ReLU, then activation quantization, in one array.

    The reference order: :func:`~repro.nn.activations.relu` rectifies
    into a fresh array (or, with ``in_place``, into ``x``), then
    :func:`fused_quantize` quantizes that array where it sits.  The
    dynamic radix point is therefore placed from the rectified tensor,
    by the quantizer's own ``resolve_frac_bits``.
    """
    out = relu(x, out=x if in_place else None)
    return fused_quantize(quantizer, out, range_hint, in_place=True)
