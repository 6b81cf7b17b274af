"""im2col / col2im lowering and the shared conv/pool window walk.

Convolution is implemented as a matrix multiply over patch columns, the
same lowering Caffe uses.  :func:`im2col` copies every window at once
from a read-only strided view of the padded channel-major ``(C, H, W,
N)`` source; :func:`col2im` and pooling, whose results depend on the
order they accumulate in, walk the k*k :func:`window_views` in turn.
Padding is a zero buffer plus one slice copy.  An NCHW input in
channel-major memory (what ``repro.nn`` conv and pool layers return)
is already that source, so lowering it copies nothing but the columns.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import ShapeError


def conv_output_size(size: int, kernel: int, stride: int, padding: int, ceil_mode: bool = False) -> int:
    """Spatial output size of a conv/pool window sweep.

    ``ceil_mode=True`` matches Caffe pooling semantics (partial windows
    at the right/bottom edge produce an extra output); convolution uses
    floor mode.
    """
    span = size + 2 * padding - kernel
    if span < 0:
        raise ShapeError(
            f"kernel {kernel} larger than padded input {size + 2 * padding}"
        )
    if ceil_mode:
        out = -(-span // stride) + 1
        # Caffe clips windows that start entirely in the padding.
        if (out - 1) * stride >= size + padding:
            out -= 1
        return out
    return span // stride + 1


def window_views(
    src: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int, chwn: bool = False,
) -> Iterator[np.ndarray]:
    """The k*k shifted, strided views of an (already padded) map.

    View ``ki*K + kj`` holds, at output position ``(oh, ow)``, the pixel
    ``(oh*stride + ki, ow*stride + kj)``; views come in that row-major
    kernel-offset order.  Spatial axes are 2-3 for NCHW and 1-2 for
    channel-major ``(C, H, W, N)`` (``chwn``).  The views alias
    ``src``, so writing through them scatters into it.
    """
    for ki in range(kernel):
        rows = slice(ki, ki + stride * out_h, stride)
        for kj in range(kernel):
            cols = slice(kj, kj + stride * out_w, stride)
            yield src[:, rows, cols] if chwn else src[:, :, rows, cols]


def im2col(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    out: Optional[np.ndarray] = None,
    chwn: bool = False,
) -> np.ndarray:
    """Lower a batch into patch columns.

    ``x`` is NCHW, or channel-major ``(C, H, W, N)`` with ``chwn``.
    Returns ``(C*K*K, OH*OW*N)``: row ``c*K*K + ki*K + kj``, column
    ``(oh*OW + ow)*N + n`` — the flattened receptive fields in
    row-major output order, batch innermost.  One copy from a strided
    view fills ``out`` when given (any contiguous buffer of that size
    and a compatible dtype), else a fresh array of ``x``'s dtype.
    """
    # a contiguous channel-major source: the copy moves whole batch rows
    src = x if chwn else x.transpose(1, 2, 3, 0)
    if padding:
        c, h, w, n = src.shape
        pad = np.zeros((c, h + 2 * padding, w + 2 * padding, n), dtype=src.dtype)
        pad[:, padding : padding + h, padding : padding + w] = src
        src = pad
    else:
        src = np.ascontiguousarray(src)
    c, h, w, n = src.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    if out is None:
        out = np.empty((c * kernel * kernel, out_h * out_w * n), dtype=x.dtype)
    sc, sh, sw, sn = src.strides
    windows = np.ndarray((c, kernel, kernel, out_h, out_w, n), src.dtype, src, 0,
                         (sc, sh, sw, sh * stride, sw * stride, sn))
    windows.flags.writeable = False
    np.copyto(out.reshape(windows.shape), windows)
    return out


def col2im(
    cols: np.ndarray, x_shape: Tuple[int, int, int, int], kernel: int, stride: int, padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back to NCHW.

    Overlapping receptive fields accumulate, which is exactly the
    gradient of the im2col gather.  Kernel offsets are added in
    ascending ``(ki, kj)`` order, so every pixel sums its contributions
    in the order an element-wise scatter over the columns visits them.
    The result is an NCHW-shaped view of the channel-major ``(C, H, W,
    N)`` accumulator, not a copy.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    acc = np.zeros((c, h + 2 * padding, w + 2 * padding, n), dtype=cols.dtype)
    cols5 = cols.reshape(c, kernel * kernel, out_h, out_w, n)
    for index, view in enumerate(window_views(acc, kernel, stride, out_h, out_w, chwn=True)):
        view += cols5[:, index]
    return acc[:, padding : padding + h, padding : padding + w].transpose(3, 0, 1, 2)
