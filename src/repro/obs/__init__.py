"""Observability: tracing, metrics and per-layer profiling.

The paper's argument is a *measurement* argument — where time, energy
and accuracy go per precision point — and this subpackage makes the
reproduction observable at runtime the same way:

``Tracer`` / ``SpanRecord``
    Nested span context managers over monotonic wall-time.  Thread-safe
    and a zero-cost no-op when disabled; the process default (from
    :func:`get_tracer`) starts disabled so the training hot path pays a
    single boolean check.

``MetricsRegistry`` / ``Counter`` / ``Gauge`` / ``Histogram``
    Named instruments with windowed p50/p95/p99 histograms and one
    uniform ``snapshot() -> dict``.  The process default registry
    (:func:`get_metrics`) is shared by ``nn.Trainer``,
    ``core.PrecisionSweep``, ``experiments.SweepRunner`` and
    ``repro.serve``, so one snapshot shows the whole stack.

``layer_flops`` / ``layer_bytes``
    Per-layer FLOP and byte-traffic models.  ``python -m repro
    profile`` prices every unit a backend walks with them, next to the
    unit's forward time from the ``observe`` hook of
    :meth:`repro.backends.Backend.run`.

``JsonlSink`` / ``ConsoleTableSink``
    Pluggable span sinks: structured JSONL event files and aligned
    console tables.

Typical use::

    from repro import obs

    obs.set_tracer(obs.Tracer(sinks=[obs.JsonlSink("trace.jsonl")]))
    trainer.fit(...)                      # emits trainer.* spans/metrics
    print(obs.get_metrics().snapshot())   # one dict for the whole run
"""

from repro.obs.tracer import SpanRecord, Tracer, get_tracer, set_tracer
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)
from repro.obs.sinks import ConsoleTableSink, JsonlSink, Sink
from repro.obs.hooks import ProgressNarrator, layer_bytes, layer_flops

__all__ = [
    "Tracer",
    "SpanRecord",
    "get_tracer",
    "set_tracer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "get_metrics",
    "set_metrics",
    "Sink",
    "JsonlSink",
    "ConsoleTableSink",
    "ProgressNarrator",
    "layer_flops",
    "layer_bytes",
]
