"""Backend interface and the shared pipeline -> unit compiler.

A *backend* executes a quantized-inference pipeline (the
``FakeQuantLayer``-interleaved :class:`~repro.nn.network.Sequential`
built by :class:`~repro.core.quantized.QuantizedNetwork`).  All
backends consume the same :func:`compile_units` plan — (layer,
trailing activation-quantizer) pairs tagged with an operation kind —
and share the one loop that executes it, :meth:`Backend.run`.  They
differ only in their per-unit step, :meth:`Walk.step`: the reference
step calls the layers' own ``forward`` methods, and the fused step
calls them too but rectifies and quantizes in place.  Future backends
(threaded, integer-arithmetic, accelerator-sim-backed) slot in behind
the same entry points without touching any caller.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.fake_quant import FakeQuantLayer
from repro.nn.activations import ReLU
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense, Flatten
from repro.nn.module import Module
from repro.nn.network import Sequential
from repro.nn.pooling import AvgPool2D, MaxPool2D
from repro.obs.tracer import get_tracer

__all__ = ["Backend", "Unit", "Walk", "compile_units"]

#: Operation kinds a unit can carry.  ``other`` marks layers of any
#: other type — every backend must still execute them (the fused
#: backend takes the base step, the layer's own ``forward``).
KINDS = ("dense", "conv", "maxpool", "avgpool", "act", "quant", "reshape", "other")


@dataclass(frozen=True)
class Unit:
    """One schedulable step: a layer plus its trailing activation quant.

    ``index`` is the layer's position in ``pipeline.layers`` — stable
    across calls, which makes it the natural key for per-unit records
    (a plan's fallbacks, ``observe`` timings).
    ``quant`` is the :class:`FakeQuantLayer` immediately following the
    layer (``None`` when the pipeline doesn't re-quantize this output,
    e.g. after MaxPool/Flatten).
    """

    kind: str
    layer: Module
    quant: Optional[FakeQuantLayer]
    index: int


def _classify(layer: Module) -> str:
    """Exact-type kinds: a subclass may override ``forward``, so it is
    never safe to treat it as its base class."""
    layer_type = type(layer)
    if layer_type is Dense:
        return "dense"
    if layer_type is Conv2D:
        return "conv"
    if layer_type is MaxPool2D:
        return "maxpool"
    if layer_type is AvgPool2D:
        return "avgpool"
    if layer_type is ReLU:
        return "act"
    if layer_type is Flatten:
        return "reshape"
    return "other"


def compile_units(pipeline: Sequential) -> List[Unit]:
    """Group ``pipeline.layers`` into (layer, quant) execution units.

    A :class:`FakeQuantLayer` directly following a layer is absorbed
    into that layer's unit (the fusion seam); a leading or standalone
    one (``quant_in``) becomes its own ``quant`` unit.
    """
    layers = pipeline.layers
    units: List[Unit] = []
    i = 0
    while i < len(layers):
        layer = layers[i]
        if isinstance(layer, FakeQuantLayer):
            units.append(Unit("quant", layer, None, i))
            i += 1
            continue
        quant: Optional[FakeQuantLayer] = None
        if i + 1 < len(layers) and isinstance(layers[i + 1], FakeQuantLayer):
            quant = layers[i + 1]
        units.append(Unit(_classify(layer), layer, quant, i))
        i += 2 if quant is not None else 1
    return units


class Walk:
    """One eval-mode batch on its way through a pipeline's units.

    ``x`` is the activation between units; :meth:`step` is the reference
    step — the unit's layer ``forward``, then its trailing quant's.  A
    backend that runs units its own way returns a subclass from
    :meth:`Backend.walk`.
    """

    __slots__ = ("units", "x")

    def __init__(self, units: Sequence[Unit], x: np.ndarray):
        self.units = units
        self.x = x

    def step(self, unit: Unit) -> None:
        x = unit.layer.forward(self.x)
        self.x = x if unit.quant is None else unit.quant.forward(x)

    def output(self) -> np.ndarray:
        """The batch's logits, as an array the caller owns."""
        return self.x


class Backend:
    """Executes quantized-inference pipelines.

    A subclass may override :meth:`walk` to execute units its own way.
    The four per-operation entry points (:meth:`dense` / :meth:`conv` /
    :meth:`pool` / :meth:`act`) run one layer's own ``forward`` on every
    backend: they return arrays the caller owns, never a view of
    internal scratch memory.
    """

    #: Registry name; set by subclasses.
    name: str = ""

    # ------------------------------------------------------------------
    # Per-operation entry points
    # ------------------------------------------------------------------
    def dense(self, layer: Dense, x: np.ndarray) -> np.ndarray:
        """Inner product ``x @ W + b`` for one :class:`Dense` layer."""
        return layer.forward(x)

    def conv(self, layer: Conv2D, x: np.ndarray) -> np.ndarray:
        """2-D convolution for one :class:`Conv2D` layer (NCHW)."""
        return layer.forward(x)

    def pool(self, layer: Module, x: np.ndarray) -> np.ndarray:
        """Max/avg pooling for one ``_Pool2D`` layer (NCHW)."""
        return layer.forward(x)

    def act(self, layer: Module, x: np.ndarray) -> np.ndarray:
        """Elementwise nonlinearity for one activation layer."""
        return layer.forward(x)

    # ------------------------------------------------------------------
    # Whole-pipeline execution
    # ------------------------------------------------------------------
    def walk(self, pipeline: Sequential, x: np.ndarray) -> Walk:
        """Start one eval-mode batch through ``pipeline``'s units."""
        return Walk(compile_units(pipeline), x)

    def run(
        self,
        pipeline: Sequential,
        x: np.ndarray,
        observe: Optional[Callable[[Unit, float], None]] = None,
    ) -> np.ndarray:
        """Forward one batch through ``pipeline`` (respects its mode).

        In eval mode every unit goes through this backend's step, in
        :func:`compile_units` order; ``observe(unit, seconds)``, when
        given, receives each unit's wall time.
        """
        if pipeline.training:
            # Trackers must observe and layers must cache backward
            # state — the pipeline's own forward is the only correct path.
            return pipeline.forward(x)
        walk = self.walk(pipeline, np.asarray(x))
        with get_tracer().span("kernels.run", backend=self.name):
            for unit in walk.units:
                if observe is None:
                    walk.step(unit)
                else:
                    started = time.perf_counter()
                    walk.step(unit)
                    observe(unit, time.perf_counter() - started)
            return walk.output()

    def predict(
        self, pipeline: Sequential, x: np.ndarray, batch_size: int = 128
    ) -> np.ndarray:
        """Batched eval-mode inference, mirroring ``Sequential.predict``."""
        was_training = pipeline.training
        pipeline.eval_mode()
        try:
            # an empty input still runs one (empty) batch
            outputs = [
                self.run(pipeline, x[i : i + batch_size])
                for i in range(0, max(x.shape[0], 1), batch_size)
            ]
        finally:
            if was_training:
                pipeline.train_mode()
        return np.concatenate(outputs, axis=0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"
