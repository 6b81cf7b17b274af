"""Fully connected (inner-product) layer and Flatten."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.initializers import get_initializer, zeros
from repro.nn.module import Module
from repro.nn.tensor import DTYPE, Parameter


class Flatten(Module):
    """Reshape NCHW feature maps to (N, C*H*W) for inner-product layers."""

    def __init__(self, name: str = ""):
        super().__init__(name=name or "flatten")
        self._cache_shape: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            # Cached only for backward; writing it in eval mode would let
            # concurrent frozen-network forwards race on shared state.
            self._cache_shape = x.shape
        # the explicit feature count keeps an empty batch reshapeable
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache_shape is None:
            raise ShapeError(f"{self.name}: backward called before forward")
        return grad_out.reshape(self._cache_shape)

    def output_shape(self, input_shape: tuple) -> tuple:
        return (int(np.prod(input_shape)),)


class Dense(Module):
    """Inner-product layer ``y = x @ W + b`` over (N, in_features) inputs."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        use_bias: bool = True,
        init: str = "he",
        name: str = "",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(name=name or "dense")
        if min(in_features, out_features) < 1:
            raise ConfigurationError("dense dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.use_bias = use_bias

        rng = rng or np.random.default_rng(0)
        initializer = get_initializer(init)
        self.weight = self.register_parameter(
            Parameter(
                initializer((in_features, out_features), rng),
                name=f"{self.name}.weight",
            )
        )
        if use_bias:
            self.bias = self.register_parameter(
                Parameter(zeros((out_features,)), name=f"{self.name}.bias")
            )
        else:
            self.bias = None
        self._cache_x: Optional[np.ndarray] = None

    def weight_parameters(self):
        return [self.weight]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected (N, {self.in_features}) input, got {x.shape}"
            )
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data
        if self.training:
            self._cache_x = x
        return out.astype(DTYPE, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache_x is None:
            raise ShapeError(f"{self.name}: backward called before forward")
        self.weight.accumulate_grad(self._cache_x.T @ grad_out)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_out.sum(axis=0))
        return (grad_out @ self.weight.data.T).astype(DTYPE, copy=False)

    def output_shape(self, input_shape: tuple) -> tuple:
        if int(np.prod(input_shape)) != self.in_features:
            raise ShapeError(
                f"{self.name}: input shape {input_shape} does not flatten to "
                f"{self.in_features}"
            )
        return (self.out_features,)

    def macs(self, input_shape: tuple) -> int:
        """Multiply-accumulates for one sample."""
        return self.in_features * self.out_features

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Dense({self.in_features}->{self.out_features})"
