"""Batch normalization.

Not used by the paper's Table I/II networks (Caffe-era recipes), but
essential for training binary-weight networks at depth — BinaryConnect
and BinaryNet both rely on it — so the library provides it for the
extension studies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.module import Module
from repro.nn.tensor import DTYPE, Parameter


class BatchNorm(Module):
    """Batch normalization over NCHW or NC inputs (per-channel).

    Training mode normalizes with batch statistics and updates running
    estimates; eval mode uses the running estimates.  ``gamma``/``beta``
    are trainable scale and shift.

    Args:
        num_features: channel count C.
        momentum: running-statistics EMA coefficient.
        epsilon: variance floor.
    """

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.9,
        epsilon: float = 1e-5,
        name: str = "",
    ):
        super().__init__(name=name or "batchnorm")
        if num_features < 1:
            raise ConfigurationError("num_features must be >= 1")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")
        if epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        self.num_features = num_features
        self.momentum = momentum
        self.epsilon = epsilon
        self.gamma = self.register_parameter(
            Parameter(np.ones(num_features, dtype=DTYPE), name=f"{self.name}.gamma")
        )
        self.beta = self.register_parameter(
            Parameter(np.zeros(num_features, dtype=DTYPE), name=f"{self.name}.beta")
        )
        self.running_mean = np.zeros(num_features, dtype=DTYPE)
        self.running_var = np.ones(num_features, dtype=DTYPE)
        self._cache: Optional[dict] = None

    # ------------------------------------------------------------------
    def _check_shape(self, x: np.ndarray) -> tuple:
        if x.ndim == 2:
            if x.shape[1] != self.num_features:
                raise ShapeError(
                    f"{self.name}: expected (N, {self.num_features}), got {x.shape}"
                )
            return (0,)
        if x.ndim == 4:
            if x.shape[1] != self.num_features:
                raise ShapeError(
                    f"{self.name}: expected NCHW with C={self.num_features}, "
                    f"got {x.shape}"
                )
            return (0, 2, 3)
        raise ShapeError(f"{self.name}: expected 2-D or 4-D input, got {x.shape}")

    @staticmethod
    def _expand(stat: np.ndarray, ndim: int) -> np.ndarray:
        if ndim == 4:
            return stat[None, :, None, None]
        return stat[None, :]

    def forward(self, x: np.ndarray) -> np.ndarray:
        axes = self._check_shape(x)
        # numpy orders these reductions by memory layout: a C-ordered
        # copy keeps the bits independent of the layer before
        x = np.ascontiguousarray(x)
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            ).astype(DTYPE)
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            ).astype(DTYPE)
        else:
            mean = self.running_mean
            var = self.running_var
        std = np.sqrt(var + self.epsilon)
        x_hat = (x - self._expand(mean, x.ndim)) / self._expand(std, x.ndim)
        out = (
            self._expand(self.gamma.data, x.ndim) * x_hat
            + self._expand(self.beta.data, x.ndim)
        )
        if self.training:
            self._cache = {"x_hat": x_hat, "std": std, "axes": axes, "ndim": x.ndim}
        return out.astype(DTYPE, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError(f"{self.name}: backward called before forward")
        x_hat = self._cache["x_hat"]
        std = self._cache["std"]
        axes = self._cache["axes"]
        ndim = self._cache["ndim"]
        grad_out = np.ascontiguousarray(grad_out)

        self.gamma.accumulate_grad((grad_out * x_hat).sum(axis=axes))
        self.beta.accumulate_grad(grad_out.sum(axis=axes))

        # standard batchnorm backward (per channel)
        count = grad_out.size / self.num_features
        gamma = self._expand(self.gamma.data, ndim)
        grad_x_hat = grad_out * gamma
        sum_grad = self._expand(grad_x_hat.sum(axis=axes), ndim)
        sum_grad_xhat = self._expand((grad_x_hat * x_hat).sum(axis=axes), ndim)
        grad_x = (
            grad_x_hat - sum_grad / count - x_hat * sum_grad_xhat / count
        ) / self._expand(std, ndim)
        return grad_x.astype(DTYPE, copy=False)

    def output_shape(self, input_shape: tuple) -> tuple:
        return input_shape

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BatchNorm({self.num_features})"
