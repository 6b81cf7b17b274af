"""Benchmark-side tracing and the per-layer walk.

Nothing under ``src/`` is instrumented.  The traced run records spans
from this package's own code: :class:`Tracer` wraps public methods of
each layer at *class* level for as long as a traced phase lasts, and
the walk below times each unit of a frozen pipeline through the
backends' public per-operation entry points.

Instance ``forward`` methods are never wrapped: the fused backend
treats a layer with an instance-level ``forward`` as a fallback unit
(``backends/fused.py:_wrapped``), so wrapping one would measure the
slow path instead of the one users run.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import backends
from repro.backends.base import compile_units
from repro.core.binary import BinaryQuantizer
from repro.core.fixed_point import FixedPointQuantizer
from repro.core.power_of_two import PowerOfTwoQuantizer
from repro.core.precision import PrecisionSpec
from repro.hw.energy import EnergyModel
from repro.kernels import Workspace, fusable_quantizer, fused_quantize
from repro.obs.hooks import layer_bytes, layer_flops
from repro.zoo import network_info

#: Unit kind -> operation family reported per layer (Flatten is a view).
FAMILIES = {
    "conv": "conv", "dense": "dense", "maxpool": "pool", "avgpool": "pool",
    "act": "act", "quant": "quant",
}
FAMILY_ORDER = ("conv", "dense", "pool", "act", "quant")

#: Activation quantizers probed for ``core.quant.*_ns_per_elem``.
QUANT_PROBES: Dict[str, Callable[[], object]] = {
    "fixed": lambda: FixedPointQuantizer(8),
    "fixed_wide": lambda: FixedPointQuantizer(32),
    "pow2": lambda: PowerOfTwoQuantizer(6),
    "binary": lambda: BinaryQuantizer(),
}

#: Repetitions of each timed call in the walk (the median is kept).
WALK_REPS = 3


@dataclass
class Span:
    """One timed call: ``parent`` is the enclosing span on its thread."""

    id: int
    parent: Optional[int]
    name: str
    thread: int
    start: float
    end: float
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _wrap_targets() -> List[Tuple[type, str, str]]:
    """(class, method, span name) wrapped while a traced phase runs."""
    from repro.backends.fused import FusedBackend
    from repro.backends.reference import ReferenceBackend
    from repro.core.quantized import QuantizedNetwork
    from repro.nn.trainer import Trainer
    from repro.parallel.cache import SweepCache
    from repro.search.engine import PrecisionSearch
    from repro.serve.engine import InferenceServer
    from repro.serve.fleet import FleetServer

    return [
        (FusedBackend, "run", "backends.fused.run"),
        (ReferenceBackend, "run", "backends.reference.run"),
        (QuantizedNetwork, "calibrate", "core.calibrate"),
        (QuantizedNetwork, "freeze", "core.freeze"),
        (QuantizedNetwork, "evaluate", "core.evaluate"),
        (EnergyModel, "evaluate", "hw.energy.evaluate"),
        (EnergyModel, "simulate", "hw.sim.simulate"),
        (Trainer, "fit", "nn.fit"),
        (SweepCache, "get", "parallel.cache.get"),
        (SweepCache, "get_state", "parallel.cache.get"),
        (SweepCache, "put", "parallel.cache.put"),
        (SweepCache, "put_state", "parallel.cache.put"),
        (PrecisionSearch, "run", "search.run"),
        (InferenceServer, "submit", "serve.submit"),
        (FleetServer, "submit", "serve.submit"),
    ]


class Tracer:
    """In-memory spans, written out once when the benchmark ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: attributes stamped onto every span (workload, bucket)
        self.context: Dict[str, object] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved: List[Tuple[type, str, object]] = []

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Dict[str, object]]:
        """Time the block; the yielded dict may add attributes to it."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        attrs = {**self.context, **attrs}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            record = Span(span_id, parent, name, threading.get_ident(),
                          start, end, attrs)
            with self._lock:
                self.spans.append(record)

    def _wrap(self, method: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(method)
        def traced(*args, **kwargs):
            with tracer.span(name) as attrs:
                result = method(*args, **kwargs)
                if name == "parallel.cache.put":
                    attrs["bytes"] = os.path.getsize(result)
                return result

        return traced

    @contextlib.contextmanager
    def installed(self, on: bool = True) -> Iterator[None]:
        """Wrap every target method for the duration of the block."""
        if not on:
            yield
            return
        for owner, attr, name in _wrap_targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        try:
            yield
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    # -- reading spans back ---------------------------------------------
    def select(self, name: str, **match: object) -> List[Span]:
        with self._lock:
            spans = list(self.spans)
        return [
            s for s in spans
            if s.name == name
            and all(s.attrs.get(k) == v for k, v in match.items())
        ]

    def mean_ms(self, name: str, **match: object) -> Optional[float]:
        spans = self.select(name, **match)
        return statistics.fmean(s.ms for s in spans) if spans else None

    def _with_self_ms(self) -> List[Tuple[Span, float]]:
        """Every span with its self time: its duration minus its direct
        children's (children run on the parent's thread, so they never
        overlap)."""
        with self._lock:
            spans = list(self.spans)
        child_ms: Dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms
        return [(s, s.ms - child_ms.get(s.id, 0.0)) for s in spans]

    def self_ms(self, **match: object) -> Dict[str, Tuple[int, float, float]]:
        """Span name -> (calls, total ms, self ms) over matching spans."""
        table: Dict[str, Tuple[int, float, float]] = {}
        for s, own in self._with_self_ms():
            if all(s.attrs.get(k) == v for k, v in match.items()):
                calls, total, self_total = table.get(s.name, (0, 0.0, 0.0))
                table[s.name] = (calls + 1, total + s.ms, self_total + own)
        return table

    def self_times(self, name: str, parent_attrs: Dict[str, object],
                   **match: object) -> List[float]:
        """Self ms of each ``name`` span whose parent has ``parent_attrs``."""
        pairs = self._with_self_ms()
        by_id = {s.id: s for s, _ in pairs}
        out = []
        for s, own in pairs:
            parent = by_id.get(s.parent)
            if (s.name == name and parent is not None
                    and all(s.attrs.get(k) == v for k, v in match.items())
                    and all(parent.attrs.get(k) == v
                            for k, v in parent_attrs.items())):
                out.append(own)
        return out

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with self._lock:
            spans = list(self.spans)
        origin = min((s.start for s in spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for s in spans:
                handle.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "thread": s.thread,
                    "start_ms": round((s.start - origin) * 1e3, 4),
                    "dur_ms": round(s.ms, 4), **s.attrs,
                }, default=str) + "\n")


# ----------------------------------------------------------------------
# The unit walk
# ----------------------------------------------------------------------
@dataclass
class WalkTarget:
    """One frozen pipeline the walk times, with the batch it runs."""

    network: str
    frozen: object            # FrozenQuantizedNetwork
    images: np.ndarray

    @property
    def spec(self) -> PrecisionSpec:
        return self.frozen.spec

    @property
    def label(self) -> str:
        return f"{self.network}/{self.spec.key}"


@dataclass
class UnitTiming:
    name: str
    family: str
    fused_s: float            # the op itself (median of WALK_REPS)
    reference_s: float
    fused_quant_s: float      # its trailing activation quant (0 if none)
    reference_quant_s: float
    flops: int
    bytes: int


@dataclass
class WalkResult:
    target: WalkTarget
    units: List[UnitTiming]
    run_s: float              # whole fused forward on the same batch
    activations: List[np.ndarray]


def _median_time(tracer: Tracer, name: str, call: Callable[[], object],
                 **attrs: object) -> float:
    times = []
    for _ in range(WALK_REPS):
        with tracer.span(name, **attrs):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def _quant_call(quant, x: np.ndarray, ws: Workspace, key) -> Callable[[], object]:
    """The fused backend's treatment of one activation quantizer."""
    tracker = quant.tracker
    hint = tracker.max_abs if tracker.initialized else None
    if fusable_quantizer(quant.quantizer):
        return lambda: fused_quantize(quant.quantizer, x, hint, ws, key)
    return lambda: quant.quantizer.quantize(x, range_hint=hint)


def walk(tracer: Tracer, target: WalkTarget) -> WalkResult:
    """Time every unit on inputs captured from one reference pass."""
    fused, reference = backends.get("fused"), backends.get("reference")
    pipeline = target.frozen.pipeline
    batch = target.images.shape[0]
    ws = Workspace()
    timings: List[UnitTiming] = []
    activations: List[np.ndarray] = []
    x = target.images
    for unit in compile_units(pipeline):
        family = FAMILIES.get(unit.kind)
        y = unit.layer.forward(x)
        out = unit.quant.forward(y) if unit.quant is not None else y
        if family is not None:
            attrs = dict(target=target.label, unit=unit.layer.name, images=batch)
            if unit.kind == "quant":
                fused_s = _median_time(
                    tracer, "kernels.fused.quant",
                    _quant_call(unit.layer, x, ws, unit.index), **attrs)
                reference_s = _median_time(
                    tracer, "kernels.reference.quant",
                    functools.partial(unit.layer.forward, x), **attrs)
            else:  # the family names the backend's entry point
                fused_s = _median_time(
                    tracer, f"kernels.fused.{family}",
                    functools.partial(getattr(fused, family), unit.layer, x),
                    **attrs)
                reference_s = _median_time(
                    tracer, f"kernels.reference.{family}",
                    functools.partial(getattr(reference, family), unit.layer, x),
                    **attrs)
            fused_q = reference_q = 0.0
            if unit.quant is not None:
                activations.append(y)
                fused_q = _median_time(
                    tracer, "kernels.fused.quant",
                    _quant_call(unit.quant, y, ws, (unit.index, "post")), **attrs)
                reference_q = _median_time(
                    tracer, "kernels.reference.quant",
                    functools.partial(unit.quant.forward, y), **attrs)
            in_shape = tuple(x.shape[1:])
            timings.append(UnitTiming(
                name=unit.layer.name, family=family,
                fused_s=fused_s, reference_s=reference_s,
                fused_quant_s=fused_q, reference_quant_s=reference_q,
                flops=layer_flops(unit.layer, in_shape, batch),
                bytes=layer_bytes(
                    unit.layer, in_shape, batch,
                    weight_bits=target.spec.weight_bits,
                    activation_bits=target.spec.input_bits,
                ) if unit.kind in ("conv", "dense") else 0,
            ))
        x = out
    run_s = _median_time(
        tracer, "kernels.fused.forward",
        functools.partial(fused.run, pipeline, target.images),
        target=target.label, images=batch)
    return WalkResult(target, timings, run_s, activations)


def _family_s(result: WalkResult, family: str, backend: str) -> float:
    total = 0.0
    for unit in result.units:
        if unit.family == family:
            total += unit.fused_s if backend == "fused" else unit.reference_s
        if family == "quant":
            total += (unit.fused_quant_s if backend == "fused"
                      else unit.reference_quant_s)
    return total


def walk_metrics(results: List[WalkResult]) -> Dict[str, float]:
    """``kernels.*`` and ``core.quant.*`` per-layer metrics from a walk."""
    metrics: Dict[str, float] = {}
    for backend in ("fused", "reference"):
        for family in FAMILY_ORDER:
            metrics[f"kernels.{backend}.{family}_ms"] = statistics.fmean(
                _family_s(r, family, backend) / r.target.images.shape[0] * 1e3
                for r in results
            )
    for family in ("conv", "dense"):
        flops = sum(u.flops for r in results for u in r.units
                    if u.family == family)
        seconds = sum(u.fused_s for r in results for u in r.units
                      if u.family == family)
        metrics[f"kernels.fused.{family}_gflops"] = flops / seconds / 1e9
    unit_sum = sum(u.fused_s + u.fused_quant_s for r in results for u in r.units)
    metrics["kernels.fused.unit_sum_ratio"] = unit_sum / sum(
        r.run_s for r in results)
    metrics.update(quant_probe(results[0].activations))
    return metrics


def quant_probe(activations: List[np.ndarray]) -> Dict[str, float]:
    """ns per element of each quantizer family on captured activations."""
    flat = np.concatenate([a.ravel() for a in activations]).astype(np.float32)
    metrics = {}
    for family, make in QUANT_PROBES.items():
        quantizer = make()
        times = []
        for _ in range(5):
            start = time.perf_counter()
            quantizer.quantize(flat)
            times.append(time.perf_counter() - start)
        metrics[f"core.quant.{family}_ns_per_elem"] = (
            statistics.median(times) / flat.size * 1e9
        )
    return metrics


def layer_table(results: List[WalkResult], energy: EnergyModel) -> List[Dict]:
    """One row per conv/dense layer of every fixed8 walk target."""
    rows = []
    for result in results:
        target = result.target
        if target.spec.key != "fixed8":
            continue
        sim = energy.simulate(target.frozen.qnet.network,
                              network_info(target.network).input_shape,
                              target.spec)
        modeled = {layer.name: layer for layer in sim.layers}
        for unit in result.units:
            if unit.family not in ("conv", "dense"):
                continue
            fused_s = unit.fused_s + unit.fused_quant_s
            layer = modeled.get(unit.name)
            rows.append({
                "net": target.network,
                "layer": unit.name,
                "fused_ms": fused_s * 1e3,
                "reference_ms": (unit.reference_s + unit.reference_quant_s) * 1e3,
                "share": fused_s / result.run_s,
                "gflops": unit.flops / unit.fused_s / 1e9,
                "gbps_computed": unit.bytes / fused_s / 1e9,
                "cycles": layer.cycles if layer else 0,
                "energy_uj": layer.energy_uj if layer else 0.0,
            })
    return rows


def format_table(rows: List[Dict]) -> str:
    header = (f"{'net':14s} {'layer':6s} {'fused ms':>9s} {'ref ms':>9s} "
              f"{'share':>6s} {'GFLOP/s':>8s} {'GB/s*':>7s} "
              f"{'cycles':>9s} {'uJ':>8s}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['net']:14s} {row['layer']:6s} {row['fused_ms']:9.3f} "
            f"{row['reference_ms']:9.3f} {100 * row['share']:5.1f}% "
            f"{row['gflops']:8.2f} {row['gbps_computed']:7.2f} "
            f"{row['cycles']:9d} {row['energy_uj']:8.3f}"
        )
    lines.append("ms per batch of 64 images, each with its quantization tail; "
                 "* GB/s computed from obs.layer_bytes, not measured; cycles "
                 "and uJ modeled by hw.sim")
    return "\n".join(lines)
