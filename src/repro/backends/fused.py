"""The fused backend: the reference layers with in-place tails.

Runs every dense, conv, pool and Flatten unit of a
:func:`~repro.backends.base.compile_units` plan through the layer's own
``forward``, so those results are the reference bits by construction.
What it does its own way is the elementwise tail: a ReLU unit, a
standalone quant unit and each unit's trailing activation quant are
rectified and quantized in place (:mod:`repro.kernels`) whenever the
walk made the array itself, where the reference writes a fresh array
for each.  Every intermediate dies once the next unit has read it, as
on the reference path.  Outputs are bitwise-equal to the reference
backend for every paper precision (property-tested in
``tests/kernels/test_parity.py``).

Thread safety: a compiled plan (units, fusability flags, fallbacks) is
immutable, so the backend keeps one plan per pipeline, in a weak map
shared by every thread.  Concurrent serve workers running the same
frozen pipeline share its plan and nothing else, preserving the
lock-free inference contract of ``QuantizedNetwork.freeze()``.

Fallbacks (always safe, never silent):

- training mode runs the whole pipeline through ``Sequential.forward``
  (range trackers must observe, layers must cache backward state);
- a unit whose kind the walk does not know (any layer but an exact
  ``Dense``, ``Conv2D``, ``MaxPool2D``, ``AvgPool2D``, ``ReLU``,
  ``Flatten`` or ``FakeQuantLayer``), or whose quantizer the tails
  cannot reproduce exactly (stochastic rounding, custom subclass),
  takes the base step — the layer's and the quant's own ``forward``.
  Which units fall back is fixed when the plan compiles; every batch
  adds their number to ``kernels.fused.fallback_units``.
"""

from __future__ import annotations

import weakref
from typing import List, Optional

import numpy as np

from repro.backends.base import Backend, Unit, Walk, compile_units
from repro.core.fake_quant import FakeQuantLayer
from repro.kernels.fused import fusable_quantizer, fused_quantize, fused_relu_quantize
from repro.nn.network import Sequential
from repro.obs.metrics import get_metrics

__all__ = ["FusedBackend"]

class _Plan:
    """Compiled units of one pipeline and which of them the walk runs."""

    __slots__ = ("layer_ids", "units", "fusable", "fallbacks")

    def __init__(self, pipeline: Sequential):
        self.layer_ids = tuple(map(id, pipeline.layers))
        self.units: List[Unit] = compile_units(pipeline)
        self.fusable = tuple(_unit_fusable(unit) for unit in self.units)
        #: indices of the units that take the base step
        self.fallbacks = frozenset(
            unit.index for unit, fusable in zip(self.units, self.fusable)
            if not fusable
        )


def _unit_fusable(unit: Unit) -> bool:
    """Static eligibility: the walk knows the kind and the tails
    reproduce its quantizers exactly."""
    if unit.kind == "other":
        return False
    if unit.kind == "quant":
        return (
            type(unit.layer) is FakeQuantLayer
            and fusable_quantizer(unit.layer.quantizer)
        )
    if unit.quant is not None:
        return (
            type(unit.quant) is FakeQuantLayer
            and fusable_quantizer(unit.quant.quantizer)
        )
    return True


def _hint(quant: FakeQuantLayer) -> Optional[float]:
    tracker = quant.tracker
    return tracker.max_abs if tracker.initialized else None


class _FusedWalk(Walk):
    """One batch through a fused plan: the layers' own forwards with
    in-place tails, the base step for the plan's fallbacks.

    ``owned`` says whether the walk made ``x`` itself (writable in
    place, and the caller may keep it) or ``x`` is, or is a view of,
    the caller's input (never written).
    """

    __slots__ = ("plan", "owned")

    def __init__(self, plan: _Plan, x: np.ndarray):
        super().__init__(plan.units, x)
        self.plan = plan
        self.owned = False

    def step(self, unit: Unit) -> None:
        x = self.x
        if unit.index in self.plan.fallbacks:
            super().step(unit)
            # A forward that handed back the same array or a view (Flatten,
            # identity quant) inherits x's ownership; only a genuinely new
            # allocation is the walk's own.
            if self.x is not x and self.x.base is None:
                self.owned = True
            return
        kind, owned = unit.kind, self.owned
        if kind not in ("act", "quant"):
            x = unit.layer.forward(x)
            # Dense, conv and pool forwards allocate; Flatten copies
            # unless its input's memory already had C order
            owned = kind != "reshape" or owned or x.base is None
        quant = unit.layer if kind == "quant" else unit.quant
        self.x = _tail(quant, x, owned, rectify=kind == "act")
        self.owned = owned or self.x is not x


def _tail(
    quant: Optional[FakeQuantLayer], x: np.ndarray, owned: bool, rectify: bool = False
) -> np.ndarray:
    """``x`` rectified (with ``rectify``), then quantized by ``quant``.

    Into a fresh array, unless the walk owns ``x`` as float32: then in
    place, in storage order.  On an NCHW view of channel-major memory
    numpy's ufuncs leave their contiguous loop, so the tail runs over a
    1-D view of that memory when it is one block (every array the walk
    makes is), else over ``x`` itself.
    """
    quantizer = hint = None
    if quant is not None:
        quantizer, hint = quant.quantizer, _hint(quant)
    kernel = fused_relu_quantize if rectify else fused_quantize
    if not owned or x.dtype != np.float32:
        return kernel(quantizer, x, hint)
    flat = x.ravel(order="K")
    kernel(quantizer, x if flat.base is None else flat, hint, in_place=True)
    return x


class FusedBackend(Backend):
    """The reference layers with in-place tails, over one immutable
    plan per pipeline."""

    name = "fused"

    def __init__(self) -> None:
        self._plans: "weakref.WeakKeyDictionary[Sequential, _Plan]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def _plan(self, pipeline: Sequential) -> _Plan:
        # Two threads may compile one pipeline at once; the plans are
        # equal and immutable, so whichever is stored last serves.
        plan = self._plans.get(pipeline)
        if plan is None or plan.layer_ids != tuple(map(id, pipeline.layers)):
            plan = self._plans[pipeline] = _Plan(pipeline)
        return plan

    # ------------------------------------------------------------------
    # Whole-pipeline execution
    # ------------------------------------------------------------------
    def walk(self, pipeline: Sequential, x: np.ndarray) -> Walk:
        plan = self._plan(pipeline)
        metrics = get_metrics()
        metrics.counter("kernels.fused.batches").inc()
        if plan.fallbacks:
            metrics.counter("kernels.fused.fallback_units").inc(len(plan.fallbacks))
        return _FusedWalk(plan, x)

    # The base walk, bound here so the class owns a ``run`` of its own:
    # perfbench/layers.py traces ``FusedBackend.__dict__["run"]``.
    run = Backend.run
