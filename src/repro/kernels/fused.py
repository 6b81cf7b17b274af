"""Fused, buffer-reusing inference kernels.

Each kernel collapses what the layer-by-layer reference path does in
several numpy passes (quantize -> im2col/matmul -> clip -> activation,
each allocating temporaries) into the minimum number of vectorized
passes over preallocated :class:`~repro.kernels.workspace.Workspace`
buffers.  No kernel selects through a mask: quantization saturates
with one ``clip`` before it scales, and the ReLU is the branch-free
``fmax`` rectifier (:func:`~repro.nn.activations.relu`) that training
and the reference layer run too.

Every kernel is **bitwise-equal** to the reference implementation it
replaces (``repro.nn`` layer ``forward`` + ``FakeQuantLayer``).  Three
choices carry the speed without breaking that contract:

- *shared arithmetic*: the saturate-first fixed-point chain
  (:func:`~repro.core.fixed_point.quantize_fixed`), the one-copy
  im2col lowering (:func:`~repro.nn.im2col.im2col`) and the pooling walks
  (:func:`~repro.nn.pooling.max_pool` / ``sum_pool``) are the very
  functions the reference layers run, handed workspace buffers through
  ``out=``;
- *channel-major (CHWN) activations*: the im2col matmul naturally
  produces ``(C_out, OH, OW, N)``; since quantize/ReLU are elementwise
  and pooling windows are layout-agnostic, downstream kernels accept
  that layout directly and the NCHW transpose-copy the reference pays
  after every convolution happens at most once (at ``Flatten`` or a
  fallback boundary);
- *in-place updates*: a tensor owned by scratch memory is quantized
  and rectified where it sits instead of into a fresh buffer.

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
    ws: Workspace,
    key: Hashable,
    in_place: bool = False,
) -> np.ndarray:
    """Quantize ``x`` into scratch (or, with ``in_place``, into ``x``).

    The caller must have checked :func:`fusable_quantizer`; an identity
    quantizer is a true pass-through (float32 in, same array out), so
    no buffer is touched.  ``in_place`` may only be set when ``x`` is
    memory the caller owns (a workspace buffer or a dead temporary) —
    never on the user's input array.
    """
    if quantizer is None:
        return x
    if type(quantizer) is IdentityQuantizer:
        return np.asarray(x, dtype=np.float32)
    x = np.asarray(x, dtype=np.float32)
    frac = quantizer.resolve_frac_bits(x, range_hint)
    out = x if in_place else ws.get((key, "q32"), x.shape, np.float32)
    return quantize_fixed(x, quantizer.bits, frac, out=out)


def fused_relu_quantize(
    quantizer: Optional[Quantizer],
    x: np.ndarray,
    range_hint: Optional[float],
    ws: Workspace,
    key: Hashable,
    in_place: bool = False,
) -> np.ndarray:
    """ReLU, then activation quantization, in one buffer.

    The reference order: :func:`~repro.nn.activations.relu` rectifies
    into scratch (or, with ``in_place``, into ``x``), then
    :func:`fused_quantize` quantizes that buffer where it sits.  The
    dynamic radix point is therefore placed from the rectified tensor,
    by the quantizer's own ``resolve_frac_bits``.
    """
    out = x if in_place else ws.get((key, "relu"), x.shape, np.float32)
    relu(x, out=out)
    return fused_quantize(quantizer, out, range_hint, ws, key, in_place=True)


def fused_dense(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    ws: Workspace,
    key: Hashable,
) -> np.ndarray:
    """``x @ W + b`` straight into a workspace buffer."""
    out = ws.get((key, "out"), (x.shape[0], weight.shape[1]), np.float32)
    np.matmul(x, weight, out=out)
    if bias is not None:
        out += bias
    return out


def fused_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
    ws: Workspace,
    key: Hashable,
    chwn_in: bool = False,
) -> np.ndarray:
    """im2col convolution with every intermediate in workspace buffers.

    One padded copy (only when ``padding > 0``), one im2col copy from
    a strided window view, one BLAS matmul with ``out=``, and an
    in-place bias add.

    Returns the result in **channel-major** layout ``(C_out, OH, OW,
    N)`` — a free reshape of the matmul buffer; the reference path's
    per-layer NCHW transpose-copy is deferred to whoever actually
    needs NCHW (``to_nchw``).  Input may be NCHW or, with ``chwn_in``,
    channel-major.
    """
    if chwn_in:
        c, h, w, n = x.shape
    else:
        n, c, h, w = x.shape
    out_c, _, kernel, _ = weight.shape
    if padding > 0:
        if chwn_in:
            pad = ws.get((key, "pad"), (c, h + 2 * padding, w + 2 * padding, n))
            pad.fill(0.0)
            pad[:, padding : padding + h, padding : padding + w, :] = x
        else:
            pad = ws.get((key, "pad"), (n, c, h + 2 * padding, w + 2 * padding))
            pad.fill(0.0)
            pad[:, :, padding : padding + h, padding : padding + w] = x
        src = pad
    else:
        src = x
    cols = ws.get((key, "cols"), (c * kernel * kernel, n * out_h * out_w))
    im2col(src, kernel, stride, 0, out=cols, chwn=chwn_in)
    w_mat = weight.reshape(out_c, -1)
    mm = ws.get((key, "mm"), (out_c, n * out_h * out_w))
    np.matmul(w_mat, cols, out=mm)
    if bias is not None:
        mm += bias[:, None]
    return mm.reshape(out_c, out_h, out_w, n)


def to_nchw(x: np.ndarray, ws: Workspace, key: Hashable) -> np.ndarray:
    """Transpose-copy a channel-major ``(C, H, W, N)`` tensor to NCHW."""
    c, h, w, n = x.shape
    out = ws.get((key, "nchw"), (n, c, h, w))
    np.copyto(out, x.transpose(3, 0, 1, 2))
    return out


def _pool_out(x, out_h, out_w, ws, key, chwn):
    if chwn:
        return ws.get((key, "out"), (x.shape[0], out_h, out_w, x.shape[3]))
    return ws.get((key, "out"), (x.shape[0], x.shape[1], out_h, out_w))


def fused_maxpool(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
    ws: Workspace,
    key: Hashable,
    chwn: bool = False,
) -> np.ndarray:
    """The reference :func:`~repro.nn.pooling.max_pool` walk into a
    workspace buffer; output layout follows the input layout."""
    src = pool_source(x, kernel, stride, padding, out_h, out_w, -np.inf, chwn,
                      lambda shape: ws.get((key, "pad"), shape))
    return max_pool(src, kernel, stride, _pool_out(x, out_h, out_w, ws, key, chwn), chwn)


def fused_avgpool(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
    ws: Workspace,
    key: Hashable,
    chwn: bool = False,
) -> np.ndarray:
    """The reference :func:`~repro.nn.pooling.sum_pool` walk and
    full-window division (Caffe ``AVE``) into a workspace buffer."""
    src = pool_source(x, kernel, stride, padding, out_h, out_w, 0.0, chwn,
                      lambda shape: ws.get((key, "pad"), shape))
    out = sum_pool(src, kernel, stride, _pool_out(x, out_h, out_w, ws, key, chwn), chwn)
    return np.divide(out, float(kernel * kernel), out=out)
