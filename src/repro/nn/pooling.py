"""Max and average pooling layers.

Pooling uses *ceil mode* by default, matching Caffe: a partial window at
the right/bottom edge produces an extra output.  This is required to
reproduce the paper's network shapes (e.g. ALEX pools 3x3/stride-2 over
a 32x32 map and yields 16x16, not 15x15).

Both directions are running walks over the k*k shifted window views
(:func:`~repro.nn.im2col.window_views`): :func:`max_pool` and
:func:`sum_pool` never stack the windows, and the integer simulator
(:mod:`repro.core.integer_network`) calls the same two functions.  The
layers take and return NCHW shapes but always walk channel-major
``(C, H, W, N)`` axes into channel-major buffers, so a conv's output
is walked with the batch innermost and contiguous.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.im2col import conv_output_size, window_views
from repro.nn.module import Module
from repro.nn.tensor import DTYPE


def _views(src: np.ndarray, kernel: int, stride: int, out: np.ndarray):
    return window_views(src, kernel, stride, *out.shape[1:3])


def max_pool(
    src: np.ndarray,
    kernel: int,
    stride: int,
    out: np.ndarray,
    argmax: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Running ``np.maximum`` over the window views of padded
    channel-major ``src``.

    The maximum lands in ``out``; a NaN anywhere in a window propagates
    to its output (of a tie between ``-0.0`` and ``+0.0`` either may
    come back).  ``argmax``, an integer array shaped like ``out``,
    receives with ``np.argmax`` semantics the window index holding the
    maximum: the first maximal view, or the first NaN.
    """
    views = list(_views(src, kernel, stride, out))
    np.copyto(out, views[0])
    for view in views[1:]:
        np.maximum(out, view, out=out)
    if argmax is None:
        return out
    # Walk down so the lowest matching index is written last.  The
    # write is an arithmetic blend, argmax += hit * (index - argmax):
    # masked stores cost ten times as much on unpredictable masks.
    any_nan = bool(np.isnan(out).any())
    hit = np.empty(out.shape, dtype=np.bool_)
    step = np.empty(out.shape, dtype=argmax.dtype)
    for index in reversed(range(len(views))):
        np.equal(views[index], out, out=hit)
        if any_nan:
            hit |= np.isnan(views[index])
        np.subtract(index, argmax, out=step)
        step *= hit
        argmax += step
    return out


def sum_pool(src: np.ndarray, kernel: int, stride: int, out: np.ndarray) -> np.ndarray:
    """Running window sum of padded channel-major ``src`` into ``out``,
    in view order.

    That is the order in which numpy's ``sum(axis=0)`` reduces the
    stacked views whenever there is more than one output element.
    """
    views = _views(src, kernel, stride, out)
    np.copyto(out, next(views))
    for view in views:
        out += view
    return out


def pool_source(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
    fill: float,
) -> np.ndarray:
    """Pad channel-major ``x`` so every (possibly partial, ceil-mode)
    window is whole.

    ``x`` itself comes back when every window already fits; otherwise
    a ``fill``-padded copy of ``x``'s dtype.
    """
    c, h, w, n = x.shape
    bottom = max(0, (out_h - 1) * stride + kernel - h - padding)
    right = max(0, (out_w - 1) * stride + kernel - w - padding)
    if padding == bottom == right == 0:
        return x
    pad = np.empty((c, padding + h + bottom, padding + w + right, n), dtype=x.dtype)
    pad.fill(fill)
    pad[:, padding : padding + h, padding : padding + w] = x
    return pad


class _Pool2D(Module):
    """Common machinery for max/avg pooling.

    Input of either memory order walks on channel-major axes (a
    channel-major one walks faster); output and input gradient are NCHW
    views of channel-major buffers, bit for bit what an NCHW walk gives.
    """

    def __init__(
        self,
        kernel_size: int,
        stride: Optional[int] = None,
        padding: int = 0,
        ceil_mode: bool = True,
        name: str = "",
    ):
        super().__init__(name=name or "pool")
        if kernel_size < 1:
            raise ConfigurationError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        if self.stride < 1:
            raise ConfigurationError("stride must be positive")
        self.padding = padding
        self.ceil_mode = ceil_mode
        self._cache: Optional[dict] = None

    # ------------------------------------------------------------------
    def _out_hw(self, h: int, w: int) -> tuple:
        out_h = conv_output_size(h, self.kernel_size, self.stride, self.padding, self.ceil_mode)
        out_w = conv_output_size(w, self.kernel_size, self.stride, self.padding, self.ceil_mode)
        return out_h, out_w

    def _pooled(self, x: np.ndarray, fill: float) -> tuple:
        """Validated NCHW input -> (padded channel-major source,
        channel-major output buffer)."""
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NCHW input, got {x.shape}")
        n, c, h, w = x.shape
        out_hw = self._out_hw(h, w)
        src = pool_source(x.transpose(1, 2, 3, 0), self.kernel_size, self.stride,
                          self.padding, *out_hw, fill)
        return src, np.empty((c, *out_hw, n), dtype=src.dtype)

    def _grad_pad(self, grad: np.ndarray) -> tuple:
        """Zeroed channel-major padded input gradient and its window
        views, for channel-major ``grad``."""
        if self._cache is None:
            raise ShapeError(f"{self.name}: backward called before forward")
        grad_pad = np.zeros(self._cache["pad_shape"], dtype=DTYPE)
        return grad_pad, list(_views(grad_pad, self.kernel_size, self.stride, grad))

    def _grad_input(self, grad_pad: np.ndarray) -> np.ndarray:
        """The unpadded interior of ``grad_pad``, as an NCHW view."""
        _, _, h, w = self._cache["x_shape"]
        p = self.padding
        return grad_pad[:, p : p + h, p : p + w].transpose(3, 0, 1, 2)

    def output_shape(self, input_shape: tuple) -> tuple:
        c, h, w = input_shape
        out_h, out_w = self._out_hw(h, w)
        return (c, out_h, out_w)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(k={self.kernel_size}, s={self.stride})"


class MaxPool2D(_Pool2D):
    """Max pooling; backward routes gradient to the argmax pixel.

    The cached ``argmax`` is an NCHW view of its channel-major buffer.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        x_pad, out = self._pooled(x, fill=-np.inf)
        argmax = None
        if self.training:
            argmax = np.empty(out.shape, dtype=np.min_scalar_type(self.kernel_size**2 - 1))
        max_pool(x_pad, self.kernel_size, self.stride, out, argmax=argmax)
        if self.training:
            self._cache = {
                "argmax": argmax.transpose(3, 0, 1, 2),
                "x_shape": x.shape,
                "pad_shape": x_pad.shape,
            }
        return out.astype(DTYPE, copy=False).transpose(3, 0, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = grad_out.transpose(1, 2, 3, 0)
        grad_pad, views = self._grad_pad(grad)
        argmax = self._cache["argmax"].transpose(1, 2, 3, 0)
        grad_bits = np.asarray(grad, dtype=DTYPE).view(np.uint32)
        hit = np.empty(argmax.shape, dtype=np.bool_)
        routed = np.empty(argmax.shape, dtype=np.uint32)
        # Descending window index is ascending output position for any
        # one pixel of overlapping windows: the order in which a
        # per-output scatter of grad_out accumulates.  Unrouted lanes
        # add the bit pattern of +0.0, a no-op on these sums, which
        # start at +0.0 and so can never become -0.0.
        for index in reversed(range(len(views))):
            np.equal(argmax, index, out=hit)
            np.multiply(hit, np.uint32(0xFFFFFFFF), out=routed)
            routed &= grad_bits
            views[index] += routed.view(DTYPE)
        return self._grad_input(grad_pad)


class AvgPool2D(_Pool2D):
    """Average pooling.

    Divides by the full window size including padded/out-of-range pixels
    (Caffe ``AVE`` semantics), so the operation is linear and backward is
    a uniform scatter.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        x_pad, out = self._pooled(x, fill=0.0)
        sum_pool(x_pad, self.kernel_size, self.stride, out)
        np.divide(out, float(self.kernel_size**2), out=out)
        if self.training:
            self._cache = {"x_shape": x.shape, "pad_shape": x_pad.shape}
        return out.astype(DTYPE, copy=False).transpose(3, 0, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = grad_out.transpose(1, 2, 3, 0)
        grad_pad, views = self._grad_pad(grad)
        share = grad / (self.kernel_size**2)
        for view in views:
            view += share
        return self._grad_input(grad_pad)
