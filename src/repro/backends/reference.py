"""The reference backend: layer-by-layer numpy forwards.

This is the execution strategy the repo has always used — every layer's
own ``forward`` in pipeline order, which is exactly the base
:class:`~repro.backends.base.Walk` step — packaged behind the
:class:`~repro.backends.base.Backend` interface so it can be selected,
compared against and benchmarked like any other backend.  It is the
ground truth the fused backend's bitwise-parity property tests compare
against.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense
from repro.nn.module import Module

__all__ = ["ReferenceBackend"]


class ReferenceBackend(Backend):
    """Executes every unit through the layer's own ``forward``."""

    name = "reference"

    def dense(self, layer: Dense, x: np.ndarray) -> np.ndarray:
        return layer.forward(x)

    def conv(self, layer: Conv2D, x: np.ndarray) -> np.ndarray:
        return layer.forward(x)

    def pool(self, layer: Module, x: np.ndarray) -> np.ndarray:
        return layer.forward(x)

    def act(self, layer: Module, x: np.ndarray) -> np.ndarray:
        return layer.forward(x)

    # The base walk, bound here so the class owns a ``run`` of its own:
    # perfbench/layers.py traces ``ReferenceBackend.__dict__["run"]``.
    run = Backend.run
