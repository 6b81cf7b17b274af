"""Fused inference kernels that keep no memory between calls.

Each kernel collapses what the layer-by-layer reference path does in
several numpy passes (quantize -> im2col/matmul -> clip -> activation)
into the minimum number of vectorized passes.  A kernel allocates the
array it produces, or updates in place an array its caller owns; it
holds nothing afterwards, so every intermediate dies once the next
unit has read it and the next batch writes into memory the allocator
has just handed back warm.  No kernel selects through a mask:
quantization saturates with one ``clip`` before it scales, and the
ReLU is the branch-free ``fmax`` rectifier
(:func:`~repro.nn.activations.relu`) that training and the reference
layer run too.

Every kernel is **bitwise-equal** to the reference implementation it
replaces (``repro.nn`` layer ``forward`` + ``FakeQuantLayer``).  Three
choices carry the speed without breaking that contract:

- *shared arithmetic*: the saturate-first fixed-point chain
  (:func:`~repro.core.fixed_point.quantize_fixed`), the one-copy
  im2col lowering (:func:`~repro.nn.im2col.im2col`) and the pooling walks
  (:func:`~repro.nn.pooling.max_pool` / ``sum_pool``) are the very
  functions the reference layers run;
- *channel-major (CHWN) activations*: the im2col matmul naturally
  produces ``(C_out, OH, OW, N)``; since quantize/ReLU are elementwise
  and pooling windows are layout-agnostic, downstream kernels accept
  that layout directly.  The reference layers keep the same memory
  order behind NCHW views, so neither path copies after a convolution:
  both make one C-ordered copy at ``Flatten``, and this path copies to
  NCHW at a fallback unit or the pipeline boundary;
- *in-place updates*: a tensor the walk made itself is quantized and
  rectified where it sits instead of into a fresh array.

The property tests in ``tests/kernels/test_parity.py`` enforce bitwise
output parity for every Table III precision.

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
from repro.nn.im2col import im2col
from repro.nn.pooling import max_pool, pool_source, sum_pool

__all__ = [
    "fusable_quantizer",
    "fused_quantize",
    "fused_dense",
    "fused_conv2d",
    "fused_maxpool",
    "fused_avgpool",
    "fused_relu_quantize",
    "to_nchw",
]


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


def fused_dense(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray]
) -> np.ndarray:
    """``x @ W + b`` into a fresh array, as ``Dense.forward`` computes it."""
    out = x @ weight
    if bias is not None:
        out += bias
    return out.astype(np.float32, copy=False)


def fused_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
    chwn_in: bool = False,
) -> np.ndarray:
    """im2col convolution as ``Conv2D.forward`` runs it: the shared
    :func:`~repro.nn.im2col.im2col` lowering (which pads into its
    channel-major source), one BLAS matmul and an in-place bias add.

    Returns the result in **channel-major** layout ``(C_out, OH, OW,
    N)`` — a free reshape of the matmul result, whose NCHW view is what
    the reference ``Conv2D.forward`` returns; a copy to NCHW memory is
    left to whoever actually needs it (``to_nchw``).  Input may be
    NCHW or, with ``chwn_in``, channel-major.
    """
    n = x.shape[3] if chwn_in else x.shape[0]
    out_c, _, kernel, _ = weight.shape
    cols = im2col(x, kernel, stride, padding, chwn=chwn_in)
    mm = weight.reshape(out_c, -1) @ cols
    if bias is not None:
        mm += bias[:, None]
    return mm.reshape(out_c, out_h, out_w, n).astype(np.float32, copy=False)


def to_nchw(x: np.ndarray) -> np.ndarray:
    """Transpose-copy a channel-major ``(C, H, W, N)`` tensor to NCHW."""
    return np.ascontiguousarray(x.transpose(3, 0, 1, 2))


def _pool_out(x, out_h, out_w, chwn):
    if chwn:
        return np.empty((x.shape[0], out_h, out_w, x.shape[3]), np.float32)
    return np.empty((x.shape[0], x.shape[1], out_h, out_w), np.float32)


def fused_maxpool(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
    chwn: bool = False,
) -> np.ndarray:
    """The reference :func:`~repro.nn.pooling.max_pool` walk into a
    fresh array; output layout follows the input layout."""
    src = pool_source(x, kernel, stride, padding, out_h, out_w, -np.inf, chwn)
    return max_pool(src, kernel, stride, _pool_out(x, out_h, out_w, chwn), chwn)


def fused_avgpool(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
    chwn: bool = False,
) -> np.ndarray:
    """The reference :func:`~repro.nn.pooling.sum_pool` walk and
    full-window division (Caffe ``AVE``) into a fresh array."""
    src = pool_source(x, kernel, stride, padding, out_h, out_w, 0.0, chwn)
    out = sum_pool(src, kernel, stride, _pool_out(x, out_h, out_w, chwn), chwn)
    return np.divide(out, float(kernel * kernel), out=out)
