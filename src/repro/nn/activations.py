"""Elementwise nonlinearities.

These correspond to the third NFU pipeline stage of the accelerator
(Section IV-A of the paper); in hardware they are LUT/piecewise units,
here they are exact elementwise functions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.module import Module
from repro.nn.tensor import DTYPE

_ZERO = DTYPE(0)


def relu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """float32 ``max(0, x)`` without a data-dependent select.

    Bit-identical to ``np.where(x > 0, x, 0).astype(float32)``: ``fmax``
    drops NaN lanes to the zero, and ±inf and subnormals pass through.
    ``out`` may be ``x``.  Training, the reference layer and the fused
    kernels all rectify here.
    """
    out = np.fmax(x, _ZERO, out=out, dtype=DTYPE)
    # Which zero fmax returns for a (-0.0, +0.0) tie depends on the SIMD
    # loop numpy dispatches; adding +0.0 turns -0.0 into +0.0 and
    # changes no other lane.
    out += 0.0
    return out


class ReLU(Module):
    """Rectified linear unit, max(0, x)."""

    def __init__(self, name: str = ""):
        super().__init__(name=name or "relu")
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            self._mask = x > 0
        return relu(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ShapeError(f"{self.name}: backward called before forward")
        return (grad_out * self._mask).astype(DTYPE, copy=False)

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01, name: str = ""):
        super().__init__(name=name or "leaky_relu")
        if negative_slope < 0:
            raise ConfigurationError("negative_slope must be >= 0")
        self.negative_slope = negative_slope
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        if self.training:
            self._mask = mask
        return np.where(mask, x, self.negative_slope * x).astype(DTYPE, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ShapeError(f"{self.name}: backward called before forward")
        scale = np.where(self._mask, 1.0, self.negative_slope)
        return (grad_out * scale).astype(DTYPE, copy=False)

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape


class Sigmoid(Module):
    """Logistic sigmoid, 1 / (1 + exp(-x))."""

    def __init__(self, name: str = ""):
        super().__init__(name=name or "sigmoid")
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        out = out.astype(DTYPE, copy=False)
        if self.training:
            self._out = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise ShapeError(f"{self.name}: backward called before forward")
        return (grad_out * self._out * (1.0 - self._out)).astype(DTYPE, copy=False)

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape


class Tanh(Module):
    """Hyperbolic tangent."""

    def __init__(self, name: str = ""):
        super().__init__(name=name or "tanh")
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x).astype(DTYPE, copy=False)
        if self.training:
            self._out = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise ShapeError(f"{self.name}: backward called before forward")
        return (grad_out * (1.0 - self._out**2)).astype(DTYPE, copy=False)

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape
