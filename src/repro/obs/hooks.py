"""Per-layer FLOP / byte-traffic models and progress narration.

:func:`layer_flops` and :func:`layer_bytes` price one layer of a
:class:`repro.nn.Sequential` (or a quantized pipeline) for a batch.
``repro profile`` sums them over each unit a backend walks, next to
the unit's measured forward time from the ``observe`` hook of
:meth:`repro.backends.Backend.run`.  Both duck-type against the
``Module`` interface (``macs``/``output_shape``/``parameters``), which
keeps this module free of imports from ``repro.nn``.

Cost accounting follows the paper's accelerator view of a layer:

* FLOPs — layers that report ``macs(input_shape)`` (conv, dense) cost
  two FLOPs per MAC; other layers are estimated at one FLOP per output
  element (activation functions, pooling comparisons, fake-quant
  rounding), and pure data movement (flatten) costs zero.
* bytes moved — input + output feature-map traffic at the activation
  bit-width plus one read of the parameters at the weight bit-width,
  mirroring the accelerator's buffer-transfer accounting.
"""

from __future__ import annotations

import sys
import time
from typing import Optional

import numpy as np

__all__ = ["ProgressNarrator", "layer_flops", "layer_bytes"]


class ProgressNarrator:
    """One-line-per-event progress narration for long-running jobs.

    The parallel sweep executor uses this to keep the console alive
    while points train in worker processes: every finished point emits
    a single line (``[sweep] fixed8 done in 3.2s (4/7, 2 cached)``)
    and a final summary on :meth:`close`.  Progress also lands in the
    shared metrics registry as a ``<label>.progress`` gauge in [0, 1],
    so dashboards see it even with the stream silenced.

    Args:
        total: number of units of work expected.
        label: line prefix and metrics namespace.
        enabled: when False every method is a cheap no-op (the
            library-default, so programmatic callers stay silent).
        stream: destination (default ``sys.stderr``).
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    def __init__(
        self,
        total: int,
        label: str = "sweep",
        enabled: bool = True,
        stream=None,
        metrics: Optional[object] = None,
    ):
        self.total = max(int(total), 0)
        self.label = label
        self.enabled = enabled
        self.stream = stream if stream is not None else sys.stderr
        self.metrics = metrics
        self.done = 0
        self.cached = 0
        self._started = time.perf_counter()

    def point(
        self, name: str, cached: bool = False, seconds: Optional[float] = None
    ) -> None:
        """Record one finished unit (``cached`` marks a cache hit)."""
        self.done += 1
        if cached:
            self.cached += 1
        if self.metrics is not None and self.total:
            self.metrics.gauge(f"{self.label}.progress").set(
                self.done / self.total
            )
        if not self.enabled:
            return
        how = "cache hit" if cached else (
            f"done in {seconds:.1f}s" if seconds is not None else "done"
        )
        print(
            f"[{self.label}] {name} {how} "
            f"({self.done}/{self.total}, {self.cached} cached)",
            file=self.stream,
        )

    def close(self, cache_hits: Optional[int] = None) -> None:
        """Emit the final summary line."""
        if not self.enabled:
            return
        elapsed = time.perf_counter() - self._started
        hits = self.cached if cache_hits is None else cache_hits
        print(
            f"[{self.label}] {self.done}/{self.total} points in "
            f"{elapsed:.1f}s ({hits} served from cache)",
            file=self.stream,
        )


def layer_flops(layer: object, input_shape: tuple, batch: int = 1) -> int:
    """FLOPs ``layer`` spends on a batch with per-sample ``input_shape``.

    Layers exposing ``macs(input_shape)`` (conv/dense) are exact at
    2 FLOPs per multiply-accumulate; everything else is estimated at
    one FLOP per output element; pure reshapes cost zero.
    """
    macs = getattr(layer, "macs", None)
    if callable(macs):
        return 2 * int(macs(input_shape)) * batch
    if type(layer).__name__ == "Flatten":
        return 0
    out_shape = layer.output_shape(input_shape)
    return int(np.prod(out_shape)) * batch


def layer_bytes(
    layer: object,
    input_shape: tuple,
    batch: int = 1,
    weight_bits: int = 32,
    activation_bits: int = 32,
) -> int:
    """Bytes moved through the accelerator buffers for one batch.

    Feature maps stream in and out at ``activation_bits`` per value;
    parameters are read once per batch at ``weight_bits`` per value —
    the Section V-B footprint accounting applied to traffic.
    """
    in_elems = int(np.prod(input_shape)) * batch
    out_elems = int(np.prod(layer.output_shape(input_shape))) * batch
    param_elems = sum(p.size for p in layer.parameters())
    activation_bytes = (in_elems + out_elems) * activation_bits / 8.0
    weight_bytes = param_elems * weight_bits / 8.0
    return int(activation_bytes + weight_bytes)
