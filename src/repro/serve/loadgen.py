"""Closed-loop load generation for serve benchmarking.

A closed loop keeps a fixed number of in-flight requests: each client
thread submits one image, waits for its result, then submits the next.
That bounds the queue naturally (offered load adapts to service rate),
which is the honest way to measure a batching engine — an open loop
with a fixed rate either starves the batcher or overruns the queue.

Every admitted request is accounted for in exactly one bucket of the
returned :class:`LoadResult` — result, deadline expiry, typed server
error, or lost (the future never resolved within the client's wait
budget).  Chaos runs assert ``lost == 0``: faults may fail requests,
but never silently swallow them.

The generator also records its *own* per-request enqueue-to-completion
latency samples (``LoadResult.latencies_ms``) — the client-side view,
measured outside the server.  The server's stats report percentiles
over its internal timestamps; the client-side samples are what an SLO
verdict should be judged on and what per-phase scenario analysis slices.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ResultTimeoutError,
    ServerOverloadedError,
)
from repro.serve.engine import Server
from repro.serve.stats import StatsReport


@dataclass(frozen=True)
class LoadResult:
    """Outcome of one closed-loop run."""

    report: StatsReport          # the server's stats over this run
    submitted: int               # requests successfully admitted
    retries: int                 # submissions retried after backpressure
    client_errors: int           # requests failed with a typed server error
    deadline_expired: int = 0    # requests that raised DeadlineExceededError
    lost: int = 0                # futures that never resolved (wait timeout)
    #: client-measured enqueue-to-completion latency of every request
    #: that returned a result, in submission order per client
    latencies_ms: Tuple[float, ...] = field(default=())

    @property
    def accounted(self) -> int:
        """Requests that terminated in a definite outcome."""
        return (
            self.report.completed + self.client_errors + self.deadline_expired
        )


def run_closed_loop(
    server: Server,
    images: np.ndarray,
    network: str,
    precision: str,
    n_requests: int,
    concurrency: int = 32,
    request_timeout_s: float = 120.0,
    deadline_ms: Optional[float] = None,
    duration_s: Optional[float] = None,
) -> LoadResult:
    """Drive ``n_requests`` single-image requests through ``server``.

    ``images`` is an NCHW pool cycled through round-robin; ``concurrency``
    clients keep that many requests in flight.  Backpressure rejections
    are retried after a short pause (and counted), so every request
    eventually completes unless the server fails it.  ``deadline_ms``
    is attached to every submission when given.

    ``duration_s`` turns the run time-bounded: clients stop starting
    new requests once that many seconds have elapsed (whichever of the
    request budget and the clock runs out first ends the run) — this is
    how scenario phases hold a concurrency level for a fixed span.
    """
    if n_requests < 1:
        raise ConfigurationError("n_requests must be >= 1")
    if concurrency < 1:
        raise ConfigurationError("concurrency must be >= 1")
    if duration_s is not None and duration_s <= 0:
        raise ConfigurationError("duration_s must be positive")
    n_images = images.shape[0]
    started_at = time.monotonic()
    stop_at = None if duration_s is None else started_at + duration_s
    counter_lock = threading.Lock()
    state = {
        "next": 0, "submitted": 0, "retries": 0,
        "errors": 0, "deadline": 0, "lost": 0,
    }
    latencies_ms: List[float] = []

    def next_index() -> Optional[int]:
        if stop_at is not None and time.monotonic() >= stop_at:
            return None
        with counter_lock:
            if state["next"] >= n_requests:
                return None
            index = state["next"]
            state["next"] += 1
            return index

    def bump(key: str) -> None:
        with counter_lock:
            state[key] += 1

    def client() -> None:
        while True:
            index = next_index()
            if index is None:
                return
            image = images[index % n_images]
            while True:
                try:
                    future = server.submit(
                        image, network, precision, deadline_ms=deadline_ms
                    )
                    break
                except ServerOverloadedError:
                    bump("retries")
                    if stop_at is not None and time.monotonic() >= stop_at:
                        return  # time-bounded run: don't retry past the end
                    time.sleep(0.001)
            enqueued_at = time.monotonic()
            bump("submitted")
            try:
                future.result(timeout=request_timeout_s)
            except DeadlineExceededError:
                bump("deadline")
            except ResultTimeoutError:
                bump("lost")
            except Exception:
                bump("errors")
            else:
                sample = (time.monotonic() - enqueued_at) * 1e3
                with counter_lock:
                    latencies_ms.append(sample)

    threads: List[threading.Thread] = [
        threading.Thread(target=client, name=f"loadgen-{i}", daemon=True)
        for i in range(min(concurrency, n_requests))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    return LoadResult(
        report=server.report(),
        submitted=state["submitted"],
        retries=state["retries"],
        client_errors=state["errors"],
        deadline_expired=state["deadline"],
        lost=state["lost"],
        latencies_ms=tuple(latencies_ms),
    )
