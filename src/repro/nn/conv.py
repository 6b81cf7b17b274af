"""2-D convolution layer (im2col lowering)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.im2col import col2im, conv_output_size, im2col
from repro.nn.initializers import get_initializer, zeros
from repro.nn.module import Module
from repro.nn.tensor import DTYPE, Parameter


class Conv2D(Module):
    """Convolution over NCHW inputs.

    Weights have shape ``(out_channels, in_channels, k, k)``; the layer
    computes the affine map ``y = W * x + b`` per output pixel.  The
    nonlinearity is a separate layer, mirroring both Caffe and the
    accelerator's NFU pipeline (stage 3 applies the nonlinearity).

    NCHW is the shape, not the memory order: the output is the free
    ``(N, C, H, W)`` transpose of the ``(C_out, OH*OW*N)`` im2col matmul,
    so its memory is channel-major ``(C, H, W, N)``, which is exactly
    the source the next conv's im2col and this layer's backward read.
    Input of either memory order gives the same bits.

    Args:
        in_channels / out_channels: channel counts.
        kernel_size: square kernel side ``k``.
        stride: window step.
        padding: symmetric zero padding.
        use_bias: include the additive bias term.
        init: weight initializer name (``"he"`` default for ReLU nets).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        use_bias: bool = True,
        init: str = "he",
        name: str = "",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(name=name or "conv")
        if min(in_channels, out_channels, kernel_size, stride) < 1:
            raise ConfigurationError("conv dimensions must be positive")
        if padding < 0:
            raise ConfigurationError("padding must be non-negative")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.use_bias = use_bias

        rng = rng or np.random.default_rng(0)
        initializer = get_initializer(init)
        w_shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = self.register_parameter(
            Parameter(initializer(w_shape, rng), name=f"{self.name}.weight")
        )
        if use_bias:
            self.bias = self.register_parameter(
                Parameter(zeros((out_channels,)), name=f"{self.name}.bias")
            )
        else:
            self.bias = None

        self._cache_cols: Optional[np.ndarray] = None
        self._cache_x_shape: Optional[tuple] = None

    def weight_parameters(self):
        return [self.weight]

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"{self.name}: expected NCHW input with C={self.in_channels}, "
                f"got shape {x.shape}"
            )
        n = x.shape[0]
        out_h = conv_output_size(x.shape[2], self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(x.shape[3], self.kernel_size, self.stride, self.padding)

        cols = im2col(x, self.kernel_size, self.stride, self.padding)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        out = w_mat @ cols  # (out_c, out_h*out_w*N)
        if self.bias is not None:
            out += self.bias.data[:, None]

        if self.training:
            self._cache_cols = cols
            self._cache_x_shape = x.shape
        out = out.reshape(self.out_channels, out_h, out_w, n).transpose(3, 0, 1, 2)
        return out.astype(DTYPE, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_mat = self._accumulate_grads(grad_out)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        grad_cols = w_mat.T @ grad_mat
        grad_x = col2im(
            grad_cols, self._cache_x_shape, self.kernel_size, self.stride, self.padding
        )
        return grad_x.astype(DTYPE, copy=False)

    def backward_params(self, grad_out: np.ndarray) -> None:
        self._accumulate_grads(grad_out)

    def _accumulate_grads(self, grad_out: np.ndarray) -> np.ndarray:
        """Weight and bias gradients; returns ``grad_out`` as the C-ordered
        ``(C_out, OH*OW*N)`` matrix, free for a channel-major gradient."""
        if self._cache_cols is None:
            raise ShapeError(f"{self.name}: backward called before forward")
        grad_mat = np.ascontiguousarray(grad_out.transpose(1, 2, 3, 0))
        grad_mat = grad_mat.reshape(self.out_channels, -1)
        grad_w = (grad_mat @ self._cache_cols.T).reshape(self.weight.data.shape)
        self.weight.accumulate_grad(grad_w)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_mat.sum(axis=1))
        return grad_mat

    # ------------------------------------------------------------------
    def output_shape(self, input_shape: tuple) -> tuple:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ShapeError(
                f"{self.name}: input channels {c} != expected {self.in_channels}"
            )
        return (
            self.out_channels,
            conv_output_size(h, self.kernel_size, self.stride, self.padding),
            conv_output_size(w, self.kernel_size, self.stride, self.padding),
        )

    def macs(self, input_shape: tuple) -> int:
        """Multiply-accumulates for one image — the accelerator's unit of work."""
        _, out_h, out_w = self.output_shape(input_shape)
        per_pixel = self.in_channels * self.kernel_size * self.kernel_size
        return self.out_channels * out_h * out_w * per_pixel

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Conv2D({self.in_channels}->{self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )
