"""The loop that runs the controller: sample, step, actuate, record.

:class:`ControlLoop` owns the cadence.  Each tick it closes a sensor
window (:class:`~repro.control.SensorHub`), feeds the signal to the
:class:`~repro.control.AutoTuner`, pushes the resulting batch knob into
the server's batcher, and appends a :class:`WindowRecord`
to its history — the per-window audit trail the scenario verdicts and
``serve-bench --json`` knob trajectories are built from.

A loop built *without* a tuner is an observer: it judges each window
against the policy (for SLO-attainment accounting) but never moves a
knob.  That is how the static baseline in an A/B scenario run is
measured with the same sensor pipeline as the autotuned arm.

The loop runs either embedded (call :meth:`tick` from a test with a
fake clock) or as a daemon thread (:meth:`start`/:meth:`stop`) beside
a live :class:`~repro.serve.InferenceServer` or
:class:`~repro.serve.FleetServer`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.control.policy import SLOPolicy
from repro.control.signals import SensorHub, Signal
from repro.control.tuner import Action, AutoTuner
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.tracer import get_tracer

__all__ = ["WindowRecord", "ControlLoop"]


@dataclass(frozen=True)
class WindowRecord:
    """One control window: what was seen, what was set, what was done."""

    signal: Signal
    tier_index: int
    precision: str
    batch_size: int
    admission_ips: Optional[float]   # None = unlimited
    slo_met: Optional[bool]          # None when the window had no traffic
    actions: Tuple[Action, ...]


class ControlLoop:
    """Periodic sample -> step -> actuate driver for one server.

    Args:
        server: anything exposing ``stats`` and ``batcher`` (both
            engines do); the loop reads signals from ``stats``, reads
            the queue depth from ``batcher`` and sets its batch knob.
        policy: the SLO each window is judged against.
        tuner: the controller to drive, or ``None`` for an
            observe-only loop (baseline attainment measurement).
        interval_s: control window length when running threaded.
        clock: monotonic-seconds source (injectable for tests).
    """

    def __init__(
        self,
        server,
        policy: SLOPolicy,
        tuner: Optional[AutoTuner] = None,
        interval_s: float = 0.1,
        clock: Callable[[], float] = time.monotonic,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.server = server
        self.policy = policy
        self.tuner = tuner
        self.interval_s = interval_s
        self.metrics = metrics or get_metrics()
        self.history: List[WindowRecord] = []
        self._hub = SensorHub(
            server.stats,
            depth_fn=lambda: server.batcher.depth(),
            clock=clock,
        )
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wire the tuner's actuators into the server.

        The tuner becomes the server's ``degrade`` router (tier knob)
        and its token bucket becomes the admission gate.  Observe-only
        loops install nothing.
        """
        if self.tuner is None:
            return
        self.server.degrade = self.tuner
        self.server.admission = self.tuner.admission

    def tick(self) -> WindowRecord:
        """Run one control window; returns its record."""
        with get_tracer().span("controller.step"):
            signal = self._hub.sample()
            actions: Tuple[Action, ...] = ()
            if self.tuner is not None:
                action = self.tuner.step(signal)
                if action is not None:
                    actions = (action,)
                self.server.batcher.policy.max_batch_size = (
                    self.tuner.batch_size
                )
            record = WindowRecord(
                signal=signal,
                tier_index=self.tuner.tier_index if self.tuner else 0,
                precision=(
                    self.tuner.precision if self.tuner
                    else ""
                ),
                batch_size=(
                    self.tuner.batch_size if self.tuner
                    else self.server.batcher.policy.max_batch_size
                ),
                admission_ips=(
                    self.tuner.admission.rate_ips if self.tuner else None
                ),
                slo_met=(
                    not self.policy.breached(signal.p99_ms)
                    if signal.has_traffic else None
                ),
                actions=actions,
            )
        self.history.append(record)
        self._publish(record)
        return record

    def _publish(self, record: WindowRecord) -> None:
        self.metrics.counter("controller.windows").inc()
        if record.slo_met is False:
            self.metrics.counter("controller.breaches").inc()
        if record.actions:
            self.metrics.counter("controller.actions").inc(len(record.actions))
        self.metrics.gauge("controller.tier").set(record.tier_index)
        self.metrics.gauge("controller.batch").set(record.batch_size)
        self.metrics.gauge("controller.admission_ips").set(
            record.admission_ips if record.admission_ips is not None else -1.0
        )

    # -- threaded operation --------------------------------------------
    def start(self) -> None:
        """Run :meth:`tick` every ``interval_s`` on a daemon thread."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-control-loop", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread and close out one final window."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.tick()  # drain the tail of the last window

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.tick()

    # -- summaries -----------------------------------------------------
    def attainment(self) -> float:
        """Fraction of traffic-bearing windows that met the latency SLO.

        1.0 when no window saw traffic (an idle run violated nothing).
        """
        judged = [r for r in self.history if r.slo_met is not None]
        if not judged:
            return 1.0
        return sum(1 for r in judged if r.slo_met) / len(judged)

    def knob_trajectory(self) -> List[dict]:
        """JSON-ready per-window knob/signal series for reports."""
        return [
            {
                "window": r.signal.window,
                "p99_ms": round(r.signal.p99_ms, 3),
                "completed": r.signal.completed,
                "queue_depth": r.signal.queue_depth,
                "throttled": r.signal.throttled,
                "tier": r.tier_index,
                "precision": r.precision,
                "batch": r.batch_size,
                "admission_ips": r.admission_ips,
                "slo_met": r.slo_met,
                "actions": [a.format() for a in r.actions],
            }
            for r in self.history
        ]
