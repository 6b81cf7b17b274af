"""Serving metrics: latency percentiles, throughput, batching, energy.

The paper's argument is an accuracy/energy trade-off measured per
image; :class:`ServerStats` carries that accounting into the serving
path so every load test reports not just p50/p95/p99 latency and
images/s but also the cumulative *modeled* accelerator energy of the
traffic it served (via :class:`repro.hw.energy.EnergyModel`).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import MetricsRegistry, get_metrics


@dataclass(frozen=True)
class StatsReport:
    """Immutable snapshot of one serving run."""

    completed: int
    rejected: int
    failed: int
    deadline_expired: int          # requests evicted past their deadline
    degraded: int                  # admissions rerouted to lower precision
    throttled: int                 # rejections by the admission controller
    wall_s: float
    throughput_ips: float          # completed images per second
    latency_ms_mean: float
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float
    latency_ms_max: float
    queue_ms_mean: float
    batch_histogram: Dict[int, int]  # batch size -> number of batches
    mean_batch_size: float
    max_queue_depth: int
    energy_uj_total: float
    energy_uj_per_image: float
    #: model key -> {"digest", "version", "batches"} for traffic served
    #: from registry-deployed servables; empty when serving zoo weights.
    served_artifacts: Dict[str, Dict[str, object]] = dataclasses.field(
        default_factory=dict
    )

    def format(self) -> str:
        """Human-readable report block (CLI / benchmark output)."""
        lines = [
            f"requests completed     : {self.completed}"
            + (f"  (rejected {self.rejected}, failed {self.failed})"
               if self.rejected or self.failed else "")
            + (f"  (deadline expired {self.deadline_expired})"
               if self.deadline_expired else "")
            + (f"  (degraded {self.degraded})" if self.degraded else "")
            + (f"  (throttled {self.throttled})" if self.throttled else ""),
            f"wall time              : {self.wall_s:.3f} s",
            f"throughput             : {self.throughput_ips:.1f} img/s",
            "latency (ms)           : "
            f"mean {self.latency_ms_mean:.2f}  p50 {self.latency_ms_p50:.2f}  "
            f"p95 {self.latency_ms_p95:.2f}  p99 {self.latency_ms_p99:.2f}  "
            f"max {self.latency_ms_max:.2f}",
            f"queue wait (ms, mean)  : {self.queue_ms_mean:.2f}",
            f"mean batch size        : {self.mean_batch_size:.2f}"
            f"  (peak queue depth {self.max_queue_depth})",
            "batch-size histogram   : " + self._histogram_line(),
            f"modeled energy         : {self.energy_uj_total:.2f} uJ total, "
            f"{self.energy_uj_per_image:.3f} uJ/image",
        ]
        for key, info in sorted(self.served_artifacts.items()):
            lines.append(
                f"served artifact        : {key} = "
                f"{str(info.get('digest', ''))[:12]} "
                f"(v{info.get('version')}, {info.get('batches')} batches)"
            )
        return "\n".join(lines)

    def _histogram_line(self) -> str:
        if not self.batch_histogram:
            return "(empty)"
        return "  ".join(
            f"{size}:{count}" for size, count in sorted(self.batch_histogram.items())
        )


class ServerStats:
    """Thread-safe accumulator fed by the serving engine's workers.

    Besides its own accounting, every completion/batch/rejection is
    also routed into a :class:`~repro.obs.metrics.MetricsRegistry`
    (the process-wide one by default) under ``serve.*`` names, so
    serving latency and modeled energy show up in the same
    ``snapshot()`` dict as trainer and sweep metrics.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.metrics = metrics or get_metrics()
        self._clock = clock
        self._lock = threading.Lock()
        self._latencies_ms: List[float] = []
        self._queue_ms: List[float] = []
        self._batch_sizes: Counter = Counter()
        self._max_queue_depth = 0
        self._energy_uj = 0.0
        self._rejected = 0
        self._failed = 0
        self._deadline_expired = 0
        self._degraded = 0
        self._throttled = 0
        self._served_artifacts: Dict[str, Dict[str, object]] = {}
        self._first_admit: Optional[float] = None
        self._last_complete: Optional[float] = None

    # ------------------------------------------------------------------
    def record_admission(self) -> None:
        """One request accepted by the queue; starts the wall clock.

        Only *admitted* requests start the clock: a rejected burst long
        before real traffic must not inflate ``wall_s`` (and thereby
        deflate throughput and energy-per-image denominators).
        """
        now = self._clock()
        with self._lock:
            if self._first_admit is None:
                self._first_admit = now

    def record_rejection(self) -> None:
        with self._lock:
            self._rejected += 1
        self.metrics.counter("serve.rejected").inc()

    def record_deadline_expired(self, count: int = 1) -> None:
        with self._lock:
            self._deadline_expired += count
        self.metrics.counter("serve.deadline_expired").inc(count)

    def record_degraded(self, count: int = 1) -> None:
        with self._lock:
            self._degraded += count
        self.metrics.counter("serve.degraded").inc(count)

    def record_throttled(self, count: int = 1) -> None:
        """An admission-controller rejection (the token bucket said no).

        Throttles are *not* counted as queue rejections: the queue had
        room, the controller chose to shed.  Keeping the two apart lets
        operators tell backpressure (a capacity problem) from throttling
        (a policy decision) in the same snapshot.
        """
        with self._lock:
            self._throttled += count
        self.metrics.counter("controller.throttled").inc(count)

    def record_failure(self, count: int = 1) -> None:
        with self._lock:
            self._failed += count
        self.metrics.counter("serve.failed").inc(count)

    def record_batch(self, batch_size: int, queue_depth: int) -> None:
        with self._lock:
            self._batch_sizes[batch_size] += 1
            self._max_queue_depth = max(self._max_queue_depth, queue_depth)
        self.metrics.histogram("serve.batch_size").observe(batch_size)
        self.metrics.gauge("serve.queue_depth").set(queue_depth)

    def record_artifact(self, key: str, digest: str, version: object) -> None:
        """One batch served from a registry-deployed artifact.

        The engine calls this only when the servable carries a registry
        digest (:attr:`repro.serve.Servable.registry_digest`), so plain
        zoo-weight serving pays nothing.  The snapshot then answers
        *which model version actually handled the traffic* — the datum
        a rollout/rollback needs to be auditable.
        """
        with self._lock:
            entry = self._served_artifacts.get(key)
            if entry is None or entry.get("digest") != digest:
                entry = {"digest": digest, "version": version, "batches": 0}
                self._served_artifacts[key] = entry
            entry["batches"] = int(entry["batches"]) + 1
        self.metrics.counter("serve.registry_batches").inc()

    def record_completion(
        self, latency_ms: float, queue_ms: float, energy_uj: float
    ) -> None:
        now = self._clock()
        with self._lock:
            self._latencies_ms.append(latency_ms)
            self._queue_ms.append(queue_ms)
            self._energy_uj += energy_uj
            self._last_complete = now
        self.metrics.counter("serve.completed").inc()
        self.metrics.counter("serve.energy_uj").inc(energy_uj)
        self.metrics.histogram("serve.latency_ms").observe(latency_ms)
        self.metrics.histogram("serve.queue_ms").observe(queue_ms)

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """Cheap monotonic counters for incremental (windowed) sampling.

        Unlike :meth:`report` this computes no percentiles — it is the
        control loop's per-tick read, O(1) under the lock.  Pair with
        :meth:`latencies_since` to build per-window signals.
        """
        with self._lock:
            return {
                "completed": float(len(self._latencies_ms)),
                "failed": float(self._failed),
                "rejected": float(self._rejected),
                "deadline_expired": float(self._deadline_expired),
                "degraded": float(self._degraded),
                "throttled": float(self._throttled),
                "energy_uj": float(self._energy_uj),
            }

    def latencies_since(self, start: int) -> Tuple[List[float], int]:
        """Latency samples appended at index ``start`` or later.

        Returns ``(samples, next_cursor)``; completions only append, so
        a caller holding the returned cursor sees each sample exactly
        once across successive calls.
        """
        with self._lock:
            return list(self._latencies_ms[start:]), len(self._latencies_ms)

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time dict of the serving counters and percentiles.

        Same contract as :meth:`repro.obs.MetricsRegistry.snapshot`:
        one plain dict, JSON-serializable, computed consistently under
        the lock.  Use :meth:`report` for the typed
        :class:`StatsReport` (attribute access and ``format()``).
        """
        return dataclasses.asdict(self.report())

    def report(self) -> StatsReport:
        """Consistent point-in-time report (percentiles computed here)."""
        with self._lock:
            wall_s = 0.0
            if self._first_admit is not None and self._last_complete is not None:
                wall_s = max(self._last_complete - self._first_admit, 0.0)
            return _report(
                np.asarray(self._latencies_ms, dtype=np.float64),
                dict(self._batch_sizes),
                self._energy_uj,
                wall_s,
                queue_ms_mean=(
                    float(np.mean(self._queue_ms)) if self._queue_ms else 0.0
                ),
                rejected=self._rejected,
                failed=self._failed,
                deadline_expired=self._deadline_expired,
                degraded=self._degraded,
                throttled=self._throttled,
                max_queue_depth=self._max_queue_depth,
                served_artifacts={
                    key: dict(info)
                    for key, info in self._served_artifacts.items()
                },
            )


def batch_report(
    batches: Sequence[Tuple[int, float, float]],
    wall_s: float,
    failed: int = 0,
) -> StatsReport:
    """Report over whole batches of ``(size, latency_ms, energy_uj_per_image)``.

    Every image counts its batch's latency, so the fleet builds its
    replica-side compute view from one record per batch rather than
    one per image.
    """
    sizes = np.array([size for size, _, _ in batches], dtype=np.int64)
    latencies = np.repeat(
        np.array([ms for _, ms, _ in batches], dtype=np.float64), sizes
    )
    return _report(
        latencies,
        dict(Counter(sizes.tolist())),
        sum(size * energy for size, _, energy in batches),
        wall_s,
        failed=failed,
    )


def _report(
    latencies: np.ndarray,
    batch_sizes: Dict[int, int],
    energy_uj: float,
    wall_s: float,
    **fields,
) -> StatsReport:
    """The report over per-image ``latencies`` and the batches that ran them;
    ``fields`` sets the counters (zero when omitted)."""
    completed = int(latencies.size)
    n_batches = sum(batch_sizes.values())
    batched_images = sum(size * count for size, count in batch_sizes.items())

    def percentile(p: float) -> float:
        return float(np.percentile(latencies, p)) if completed else 0.0

    defaults = dict(
        rejected=0, failed=0, deadline_expired=0, degraded=0, throttled=0,
        queue_ms_mean=0.0, max_queue_depth=0,
    )
    return StatsReport(
        completed=completed,
        wall_s=wall_s,
        throughput_ips=completed / wall_s if wall_s > 0 else 0.0,
        latency_ms_mean=float(latencies.mean()) if completed else 0.0,
        latency_ms_p50=percentile(50),
        latency_ms_p95=percentile(95),
        latency_ms_p99=percentile(99),
        latency_ms_max=float(latencies.max()) if completed else 0.0,
        batch_histogram=batch_sizes,
        mean_batch_size=batched_images / n_batches if n_batches else 0.0,
        energy_uj_total=float(energy_uj),
        energy_uj_per_image=float(energy_uj) / completed if completed else 0.0,
        **{**defaults, **fields},
    )
