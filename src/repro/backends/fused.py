"""The fused backend: single-pass kernels, no memory kept between batches.

Executes each :func:`~repro.backends.base.compile_units` unit through
the :mod:`repro.kernels` fused routines — quantize, matmul/im2col-conv,
pool and ReLU collapsed into single passes.  Each kernel allocates the
array it produces or updates in place an array the walk already owns,
so every intermediate dies once the next unit has read it, as on the
reference path.  Outputs are bitwise-equal to the reference backend for
every paper precision (property-tested in
``tests/kernels/test_parity.py``).

Thread safety: a compiled plan (units, fusability flags, fallbacks) is
immutable, so the backend keeps one plan per pipeline, in a weak map
shared by every thread.  Concurrent serve workers running the same
frozen pipeline share its plan and nothing else, preserving the
lock-free inference contract of ``QuantizedNetwork.freeze()``.

Fallbacks (always safe, never silent):

- training mode runs the whole pipeline through ``Sequential.forward``
  (range trackers must observe, layers must cache backward state);
- a unit whose kind has no kernel, or whose quantizer the kernels
  cannot reproduce exactly (stochastic rounding, custom subclass),
  takes the base step — the layer's and the quant's own ``forward``.
  Which units fall back is fixed when the plan compiles; every batch
  adds their number to ``kernels.fused.fallback_units``.
"""

from __future__ import annotations

import math
import weakref
from typing import List, Optional, Tuple

import numpy as np

from repro.backends.base import Backend, Unit, Walk, compile_units
from repro.core.fake_quant import FakeQuantLayer
from repro.errors import ShapeError
from repro.kernels.fused import (
    fusable_quantizer,
    fused_avgpool,
    fused_conv2d,
    fused_dense,
    fused_maxpool,
    fused_quantize,
    fused_relu_quantize,
    to_nchw,
)
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense
from repro.nn.im2col import conv_output_size
from repro.nn.module import Module
from repro.nn.network import Sequential
from repro.nn.pooling import AvgPool2D, MaxPool2D
from repro.obs.metrics import get_metrics

__all__ = ["FusedBackend"]

#: Unit kinds with a fused kernel.
_FUSED_KINDS = frozenset({"dense", "conv", "maxpool", "avgpool", "act", "quant", "reshape"})


class _Plan:
    """Compiled units of one pipeline and which of them take a kernel."""

    __slots__ = ("layer_ids", "units", "fusable", "fallbacks")

    def __init__(self, pipeline: Sequential):
        self.layer_ids = tuple(map(id, pipeline.layers))
        self.units: List[Unit] = compile_units(pipeline)
        self.fusable = tuple(_unit_fusable(unit) for unit in self.units)
        #: indices of the units that take the base step instead of a kernel
        self.fallbacks = frozenset(
            unit.index for unit, fusable in zip(self.units, self.fusable)
            if not fusable
        )


def _unit_fusable(unit: Unit) -> bool:
    """Static eligibility: kind has a kernel and quantizers are exact."""
    if unit.kind not in _FUSED_KINDS:
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


def _out_hw(layer: Module, x: np.ndarray, chwn: bool) -> Tuple[int, int]:
    """Output (H, W) of a conv or pool ``layer`` on NCHW or CHWN ``x``."""
    h, w = (x.shape[1], x.shape[2]) if chwn else (x.shape[2], x.shape[3])
    ceil_mode = getattr(layer, "ceil_mode", False)
    return (
        conv_output_size(h, layer.kernel_size, layer.stride, layer.padding, ceil_mode),
        conv_output_size(w, layer.kernel_size, layer.stride, layer.padding, ceil_mode),
    )


class _FusedWalk(Walk):
    """One batch through a fused plan: a kernel per fusable unit, the
    base step for the plan's fallbacks.

    ``owned`` says whether the walk made ``x`` itself (writable in
    place, and the caller may keep it) or ``x`` is, or is a view of,
    the caller's input (never written).  ``chwn`` tracks whether ``x``
    is in channel-major (C, H, W, N) layout.
    """

    __slots__ = ("plan", "owned", "chwn")

    def __init__(self, plan: _Plan, x: np.ndarray):
        super().__init__(plan.units, x)
        self.plan = plan
        self.owned = False
        self.chwn = False

    def step(self, unit: Unit) -> None:
        if unit.index not in self.plan.fallbacks:
            self.x, self.owned, self.chwn = _run_fused(
                unit, self.x, self.owned, self.chwn
            )
            return
        if self.chwn:
            self.x, self.owned, self.chwn = to_nchw(self.x), True, False
        prev = self.x
        super().step(unit)
        # A forward that handed back the same array or a view (Flatten,
        # identity quant) inherits prev's ownership; only a genuinely
        # new allocation is the walk's own.
        if self.x is not prev and self.x.base is None:
            self.owned = True

    def output(self) -> np.ndarray:
        return to_nchw(self.x) if self.chwn else self.x


def _run_fused(
    unit: Unit, x: np.ndarray, owned: bool, chwn: bool
) -> Tuple[np.ndarray, bool, bool]:
    kind, layer = unit.kind, unit.layer
    if kind == "dense":
        if x.ndim != 2 or x.shape[1] != layer.in_features:
            raise ShapeError(
                f"{layer.name}: expected (N, {layer.in_features}) input, "
                f"got {x.shape}"
            )
        bias = layer.bias.data if layer.bias is not None else None
        out = fused_dense(x, layer.weight.data, bias)
        return _quant_tail(unit, out), True, False
    if kind == "conv":
        in_c = x.shape[0] if chwn else (x.shape[1] if x.ndim == 4 else -1)
        if x.ndim != 4 or in_c != layer.in_channels:
            raise ShapeError(
                f"{layer.name}: expected NCHW input with "
                f"C={layer.in_channels}, got shape {x.shape}"
            )
        bias = layer.bias.data if layer.bias is not None else None
        out = fused_conv2d(
            x, layer.weight.data, bias, layer.stride, layer.padding,
            *_out_hw(layer, x, chwn), chwn_in=chwn,
        )
        return _quant_tail(unit, out), True, True
    if kind in ("maxpool", "avgpool"):
        if x.ndim != 4:
            raise ShapeError(
                f"{layer.name}: expected NCHW input, got {x.shape}"
            )
        kernel_fn = fused_maxpool if kind == "maxpool" else fused_avgpool
        out = kernel_fn(
            x, layer.kernel_size, layer.stride, layer.padding,
            *_out_hw(layer, x, chwn), chwn=chwn,
        )
        return _quant_tail(unit, out), True, chwn
    if kind == "act":
        quant = unit.quant.quantizer if unit.quant is not None else None
        hint = _hint(unit.quant) if unit.quant is not None else None
        return fused_relu_quantize(quant, x, hint, in_place=owned), True, chwn
    if kind == "quant":
        out = fused_quantize(layer.quantizer, x, _hint(layer), in_place=owned)
        return out, owned or out is not x, chwn
    # reshape (Flatten): the explicit feature count keeps an empty batch
    # reshapeable
    if chwn:
        nchw = to_nchw(x)
        return nchw.reshape(nchw.shape[0], math.prod(nchw.shape[1:])), True, False
    # Flatten's C-ordered result: a view of a C-ordered input, whose
    # ownership follows it, else a fresh copy
    flat = np.ascontiguousarray(x.reshape(x.shape[0], math.prod(x.shape[1:])))
    return flat, owned or flat.base is None, False


def _quant_tail(unit: Unit, out: np.ndarray) -> np.ndarray:
    if unit.quant is None:
        return out
    # `out` is always this unit's own fresh array: quantize it where it
    # sits
    return fused_quantize(
        unit.quant.quantizer, out, _hint(unit.quant), in_place=True
    )


class FusedBackend(Backend):
    """Fused-kernel execution over one immutable plan per pipeline."""

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

    # ------------------------------------------------------------------
    # Per-operation entry points (each returns a caller-owned array)
    # ------------------------------------------------------------------
    def dense(self, layer: Dense, x: np.ndarray) -> np.ndarray:
        if type(layer) is not Dense:
            return layer.forward(x)
        bias = layer.bias.data if layer.bias is not None else None
        return fused_dense(x, layer.weight.data, bias)

    def conv(self, layer: Conv2D, x: np.ndarray) -> np.ndarray:
        if type(layer) is not Conv2D:
            return layer.forward(x)
        bias = layer.bias.data if layer.bias is not None else None
        out = fused_conv2d(
            x, layer.weight.data, bias, layer.stride, layer.padding,
            *_out_hw(layer, x, False),
        )
        # the NCHW view of channel-major memory Conv2D.forward returns
        return out.transpose(3, 0, 1, 2)

    def pool(self, layer: Module, x: np.ndarray) -> np.ndarray:
        if type(layer) not in (MaxPool2D, AvgPool2D):
            return layer.forward(x)
        kernel_fn = fused_maxpool if type(layer) is MaxPool2D else fused_avgpool
        return kernel_fn(
            x, layer.kernel_size, layer.stride, layer.padding,
            *_out_hw(layer, x, False),
        )

    def act(self, layer: Module, x: np.ndarray) -> np.ndarray:
        return layer.forward(x)
