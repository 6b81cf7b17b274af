"""The request front end, and the in-process engine built on it.

:class:`Server` is the one front end both serving engines share: it
validates and admits requests, routes them through the ``admission``
gate and ``degrade`` router, queues them on its
:class:`~repro.serve.batcher.Batcher` lanes, expires deadlines, turns a
finished batch into :class:`~repro.serve.request.InferenceResult` s and
stats, and drains or abandons queued work on ``stop``.  An engine only
starts, feeds and stops its executor:

* :class:`InferenceServer` (here): worker threads pull micro-batches
  and run one forward pass each on the matching frozen servable from
  the :class:`~repro.serve.model_store.ModelStore`.  The workers and
  the front end share the process, its GIL and its one OpenBLAS pool,
  which is as large as the host, so a forward's BLAS threads compete
  with the front end's threads for the cores.  On a 2-vCPU host one
  BLAS thread for the whole process raised perfbench ``serve_inproc``
  throughput from 10.8–12.1k to 14.8–16.6k req/s but made its latency
  worse (2.58–2.64 → 2.68–2.90 ms): a lone small-batch forward loses
  the second thread.  So this engine leaves the count as it finds it;
  batching provides the dominant speedup by amortizing python/numpy
  dispatch across images.
* :class:`~repro.serve.fleet.FleetServer`: replica processes fed
  through shared-memory rings.

Shutdown is graceful by default: ``stop(drain=True)`` stops admissions,
lets the executor finish everything queued, then stops it.
``drain=False`` fails queued requests with
:class:`~repro.errors.ServerClosedError`.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, List, Optional

import numpy as np

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServerClosedError,
    ServerOverloadedError,
    WorkerStallError,
)
from repro.resilience.faults import FaultInjector, get_injector
from repro.serve.batcher import Batcher, BatchPolicy
from repro.serve.model_store import ModelStore
from repro.serve.request import (
    InferenceRequest,
    InferenceResult,
    ModelKey,
    PendingRequest,
    ServeFuture,
)
from repro.serve.stats import ServerStats, StatsReport


class Server:
    """The request front end: admission, batching, results, shutdown.

    Subclasses implement ``_launch`` (start the executor) and
    ``_shutdown(timeout)`` (wait for it once admissions are closed);
    the executor takes batches from :attr:`batchers` and hands each
    back through ``_finish_batch`` or ``_fail_batch``.

    Attributes:
        degrade: optional overload router with
            ``route(precision, queue_depth)`` — a
            :class:`~repro.control.AutoTuner`; reroutes count in
            ``stats.degraded``.
        admission: optional gate with ``try_acquire()`` — a
            :class:`~repro.control.TokenBucket`; refusals raise
            :class:`~repro.errors.ServerOverloadedError` before the
            queue is touched and count in ``stats.throttled``.

    :meth:`repro.control.ControlLoop.install` sets both hooks.
    """

    def __init__(
        self,
        max_batch_size: int,
        max_delay_ms: float,
        max_queue_depth: int,
        lanes: int = 1,
    ):
        self.degrade = None
        self.admission = None
        self.stats = ServerStats()
        self._batchers = [
            Batcher(
                BatchPolicy(max_batch_size=max_batch_size,
                            max_delay_ms=max_delay_ms),
                max_queue_depth=max_queue_depth,
                on_expired=self._expire_pending,
            )
            for _ in range(lanes)
        ]
        self._ids = itertools.count()
        self._started = False
        self._stopping = False
        self._stopped = False

    @property
    def batchers(self) -> List[Batcher]:
        """Every batcher feeding this server — the uniform surface the
        control loop actuates across both engines."""
        return list(self._batchers)

    def _batcher_for_key(self, key: ModelKey) -> Batcher:
        return self._batchers[0]

    def _depth(self) -> int:
        return sum(batcher.depth() for batcher in self._batchers)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Server":
        if self._started:
            raise ConfigurationError("server already started")
        if self._stopped:
            raise ConfigurationError("server cannot be restarted after stop")
        self._started = True
        self._launch()
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admissions; drain (default) or fail queued requests, then
        stop the executor (``timeout`` bounds that wait)."""
        if self._stopped:
            return
        self._stopping = True
        for batcher in self._batchers:
            batcher.close()
        if not drain:
            abandoned = [
                pending for batcher in self._batchers
                for pending in batcher.pop_all()
            ]
            if abandoned:
                self._fail_batch(abandoned, ServerClosedError(
                    "server stopped before this request ran"
                ))
        try:
            self._shutdown(timeout)
        finally:
            self._stopped = True

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    def _launch(self) -> None:
        raise NotImplementedError

    def _shutdown(self, timeout: Optional[float]) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(
        self,
        image: np.ndarray,
        network: str,
        precision: str,
        deadline_ms: Optional[float] = None,
    ) -> ServeFuture:
        """Enqueue one CHW image; returns a future for its result.

        Raises :class:`~repro.errors.ServerOverloadedError` when the
        bounded queue is full or the admission gate refuses, and
        :class:`~repro.errors.ServerClosedError` after shutdown began —
        both *before* accepting the request, so the caller always knows
        whether the image was admitted.

        ``deadline_ms`` bounds queueing: if no executor has started the
        request's batch that many milliseconds after submission, the
        batcher evicts it and the future raises
        :class:`~repro.errors.DeadlineExceededError`.

        When the ``degrade`` router sends the request to another
        precision, the result's ``model_key`` names the model that
        actually served it.
        """
        image = np.asarray(image, dtype=np.float32)
        if image.ndim != 3:
            raise ConfigurationError(
                f"expected one CHW image, got shape {image.shape}"
            )
        if deadline_ms is not None and deadline_ms <= 0:
            raise ConfigurationError("deadline_ms must be positive")
        if self.admission is not None and not self.admission.try_acquire():
            self.stats.record_throttled()
            raise ServerOverloadedError(
                "admission controller is throttling; retry later"
            )
        degraded = False
        if self.degrade is not None:
            routed = self.degrade.route(precision, self._depth())
            if routed != precision:
                precision = routed
                degraded = True
        now = time.monotonic()
        request = InferenceRequest(
            image=image,
            model_key=ModelKey(network=network, precision=precision),
            request_id=next(self._ids),
            enqueued_at=now,
            deadline_at=None if deadline_ms is None else now + deadline_ms / 1e3,
        )
        future = ServeFuture()
        try:
            self._batcher_for_key(request.model_key).put(
                PendingRequest(request=request, future=future)
            )
        except Exception:
            self.stats.record_rejection()
            raise
        # the wall clock starts only once the queue has the request —
        # rejected bursts must not stretch throughput denominators
        self.stats.record_admission()
        if degraded:
            self.stats.record_degraded()
        return future

    def report(self) -> StatsReport:
        """Typed stats report; ``self.stats.snapshot()`` is the dict form."""
        return self.stats.report()

    # ------------------------------------------------------------------
    # Executor side
    # ------------------------------------------------------------------
    def _expire_pending(self, expired: List[PendingRequest]) -> None:
        """Batcher callback: fail evicted requests with the typed error."""
        for pending in expired:
            pending.future.set_exception(
                DeadlineExceededError(
                    f"request {pending.request.request_id} missed its "
                    "deadline before its batch started"
                )
            )
        self.stats.record_deadline_expired(len(expired))

    def _finish_batch(
        self,
        batch: List[PendingRequest],
        logits: np.ndarray,
        started_at: float,
        energy_uj: float,
        digest: Optional[str] = None,
        version: Optional[int] = None,
        before_resolve: Optional[Callable[[List[InferenceResult]], None]] = None,
    ) -> None:
        """Record a finished batch and resolve its futures.

        ``started_at`` is when the batch left the queue; ``digest`` /
        ``version`` name the registry artifact that served it, if any.
        ``before_resolve`` sees the results after the stats do and
        before any client can.
        """
        finished_at = time.monotonic()
        self.stats.record_batch(len(batch), self._depth())
        if digest is not None:
            key = batch[0].model_key
            self.stats.record_artifact(
                f"{key.network}@{key.precision}", digest, version
            )
        results = []
        for row, pending in enumerate(batch):
            request = pending.request
            result = InferenceResult(
                request_id=request.request_id,
                logits=logits[row].copy(),
                model_key=request.model_key,
                batch_size=len(batch),
                queue_ms=(started_at - request.enqueued_at) * 1e3,
                latency_ms=(finished_at - request.enqueued_at) * 1e3,
                energy_uj=energy_uj,
            )
            self.stats.record_completion(
                latency_ms=result.latency_ms,
                queue_ms=result.queue_ms,
                energy_uj=energy_uj,
            )
            results.append(result)
        if before_resolve is not None:
            before_resolve(results)
        for pending, result in zip(batch, results):
            pending.future.set_result(result)

    def _fail_batch(self, batch: List[PendingRequest],
                    error: BaseException) -> None:
        self.stats.record_failure(len(batch))
        for pending in batch:
            pending.future.set_exception(error)


class InferenceServer(Server):
    """Batched serving on worker threads in this process.

    Args:
        store: servable cache (a default one is built if omitted).
        workers: worker-thread count.
        max_batch_size / max_delay_ms: dynamic-batching policy.
        max_queue_depth: bounded-queue backpressure threshold.
        faults: explicit fault injector; defaults to the process-wide
            one (unarmed, effectively free).

    Use as a context manager for deterministic drain::

        with InferenceServer(store, workers=4) as server:
            futures = [server.submit(img, "lenet_small", "fixed8")
                       for img in images]
            results = [f.result(timeout=30.0) for f in futures]
        print(server.report().format())
    """

    # perfbench traces each engine's own ``__dict__["submit"]``
    submit = Server.submit

    def __init__(
        self,
        store: Optional[ModelStore] = None,
        workers: int = 4,
        max_batch_size: int = 32,
        max_delay_ms: float = 2.0,
        max_queue_depth: int = 256,
        faults: Optional[FaultInjector] = None,
    ):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        super().__init__(max_batch_size, max_delay_ms, max_queue_depth)
        # an empty store is falsy (it has __len__), so test for None
        self.store = store if store is not None else ModelStore()
        self.workers = workers
        self._faults = faults
        self._threads: List[threading.Thread] = []

    @property
    def batcher(self) -> Batcher:
        return self._batchers[0]

    def warmup(self, network: str, precision: str) -> None:
        """Pre-build a servable so first requests don't pay calibration."""
        self.store.warm(network, precision)

    def _launch(self) -> None:
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _shutdown(self, timeout: Optional[float]) -> None:
        """Join the workers.

        ``timeout`` is one shared deadline across *all* worker joins —
        not a per-thread budget, so the total wait is bounded by
        ``timeout`` regardless of worker count.  Workers still alive at
        the deadline raise :class:`~repro.errors.WorkerStallError`
        (counted under ``serve.leaked_workers``) instead of being
        silently leaked behind a clean-looking stop.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = (
                None if deadline is None
                else max(deadline - time.monotonic(), 0.0)
            )
            thread.join(remaining)
        leaked = [thread.name for thread in self._threads if thread.is_alive()]
        if leaked:
            self.stats.metrics.counter("serve.leaked_workers").inc(len(leaked))
            raise WorkerStallError(
                f"{len(leaked)} worker thread(s) still running after the "
                f"{timeout}s stop deadline: {', '.join(leaked)}"
            )

    def _worker_loop(self) -> None:
        batcher = self._batchers[0]
        while True:
            batch = batcher.next_batch(timeout=0.1)
            if batch is None:
                return
            if batch:
                self._run_batch(batch)  # type: ignore[arg-type]

    def _run_batch(self, batch: List[PendingRequest]) -> None:
        started_at = time.monotonic()
        faults = self._faults or get_injector()
        try:
            faults.fire("engine.forward")
            key = batch[0].model_key
            servable = self.store.get(key.network, key.precision)
            images = np.stack([pending.request.image for pending in batch], axis=0)
            logits = faults.corrupt("engine.forward", servable.forward(images))
        except Exception as error:
            self._fail_batch(batch, error)
            return
        self._finish_batch(
            batch, logits, started_at, servable.energy_uj_per_image,
            servable.registry_digest, servable.registry_version,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"InferenceServer(workers={self.workers}, "
            f"policy={self.batcher.policy!r}, depth={self._depth()})"
        )
