"""Multi-process sharded serving: one front-end, N model replicas.

The in-process :class:`~repro.serve.InferenceServer` is capped by the
GIL for everything that is not BLAS; this module shards the fleet
across worker *processes* instead.  The front-end process runs the
same request front end as the in-process engine
(:class:`~repro.serve.engine.Server`: the bounded
:class:`~repro.serve.Batcher` lanes with their micro-batching,
deadlines, degrade rerouting and backpressure), and N replica
processes each run a frozen :class:`~repro.core.QuantizedNetwork`
with a resolved backend.  Batches
cross the process boundary through preallocated
``multiprocessing.shared_memory`` slots (:mod:`repro.serve.ipc`), so
the per-batch cost is one memcpy each way plus a tiny pickled
descriptor; replicas build their servables from the same seed,
calibration budget and backend as a single-process server, which makes
fleet responses bitwise identical to in-process serving.

The replica processes are the fleet's parallelism, so each computes on
one BLAS thread (:func:`repro.parallel.blas.set_blas_threads`, called
first thing in :func:`~repro.serve.replica.replica_main`) and reports
the count in its ``ready`` message (``ReplicaStatus.blas_threads``).
A replica whose OpenBLAS pool were as large as the host would compete
with its own front end's client, dispatcher and receiver threads: on
a 2-vCPU host one replica's perfbench ``serve_fleet`` throughput went
from ≈ 10k to ≈ 18k req/s with the cap, each batch's compute time
unchanged.  More cores are for more replicas.  The thread count
changes no bit (``tests/parallel/test_blas.py``).

Topology::

    clients ──submit()──► Batcher lanes ──► dispatcher threads (1/replica)
                                              │  shared-memory slot write
                                              ▼
                                      replica process pool
                                              │  logits in the same slot
                                              ▼
                          receiver threads ──► Server._finish_batch

Routing: ``shared`` (default) lets every replica's dispatcher pull
from one batcher — work-stealing, best aggregate throughput; ``hash``
gives each replica its own batcher and routes each ``(network,
precision)`` lane to a replica on a consistent-hash ring with virtual
nodes, so a model's traffic sticks to a replica (warm caches) and
adding replicas only remaps ~1/N of lanes.

Failure model: every replica sends heartbeats; the monitor thread
detects process death (or a wedged replica via heartbeat staleness),
terminates what is left, resets the shared-memory ring, *resubmits*
the in-flight batches through :meth:`Batcher.requeue` (bounded by
``max_resubmits`` per request, then
:class:`~repro.errors.ReplicaCrashError`), and respawns the replica —
which rejoins on whatever artifact it was last told to serve.  Chaos
runs kill replicas for real (``os._exit`` via the ``replica.crash``
fault site) and assert zero lost futures.

Segment lifetime is owned exclusively by the front-end: ``stop()``
unlinks every slot, and an optional SIGTERM/atexit emergency path
(enabled by the CLI) unlinks without taking locks so ``kill <pid>``
cannot leak ``/dev/shm`` entries.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import multiprocessing
import os
import queue
import secrets
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    ConfigurationError,
    FleetNotReadyError,
    ReplicaCrashError,
    ServingError,
)
from repro.obs.metrics import get_metrics
from repro.serve.batcher import Batcher
from repro.serve.engine import Server
from repro.serve.ipc import TensorRing
from repro.serve.replica import ReplicaConfig, replica_main
from repro.serve.request import InferenceResult, ModelKey, PendingRequest
from repro.serve.stats import StatsReport, batch_report
from repro.zoo.registry import NETWORK_BUILDERS

__all__ = ["FleetConfig", "FleetServer", "FleetReport", "ReplicaStatus"]


def _max_image_floats() -> int:
    """Largest per-image element count over every registered network."""
    return max(
        int(np.prod(info.input_shape)) for info in NETWORK_BUILDERS.values()
    )


@dataclass
class FleetConfig:
    """Shape and policies of one serving fleet."""

    replicas: int = 2
    ring_slots: int = 2               # in-flight batches per replica
    max_batch_size: int = 32
    max_delay_ms: float = 2.0
    max_queue_depth: int = 256
    routing: str = "shared"           # "shared" (work stealing) | "hash"
    seed: int = 0
    backend: Optional[str] = None
    calibration_images: int = 128
    memory_budget_kb: float = 16384.0
    weight_paths: Dict[str, str] = field(default_factory=dict)
    #: (network, precision) pairs every replica warms before ready
    warm: List[Tuple[str, str]] = field(default_factory=list)
    #: serve this registry artifact: (root, channel, digest, version)
    startup_artifact: Optional[Tuple[str, str, str, int]] = None
    start_method: str = "spawn"
    startup_timeout_s: float = 180.0
    heartbeat_s: float = 0.25
    heartbeat_timeout_s: float = 30.0
    max_resubmits: int = 3
    chaos_seed: Optional[int] = None
    #: deterministic chaos: (replica index, batches before it dies once)
    crash_replica_after: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        if self.ring_slots < 1:
            raise ConfigurationError("ring_slots must be >= 1")
        if self.routing not in ("shared", "hash"):
            raise ConfigurationError(
                f"routing must be 'shared' or 'hash', got {self.routing!r}"
            )


@dataclass(frozen=True)
class ReplicaStatus:
    """Point-in-time front-end view of one replica."""

    index: int
    pid: Optional[int]
    ready: bool
    incarnation: int
    restarts: int
    completed: int
    failed: int
    artifact_digest: Optional[str]
    artifact_version: Optional[int]
    #: BLAS threads the replica computes on; None without OpenBLAS
    blas_threads: Optional[int]


@dataclass(frozen=True)
class FleetReport:
    """Fleet-wide stats: the end-to-end view plus the replica-side view.

    ``replica_compute`` counts every batch a replica finished, crashed
    incarnations included: the same completions, batch histogram and
    energy as ``aggregate``, with each image's replica compute time as
    its latency (and no queueing).
    """

    aggregate: StatsReport            # front-end, end-to-end latencies
    replica_compute: StatsReport      # replica-side, compute-only
    replicas: Dict[int, ReplicaStatus]
    restarts: int
    resubmissions: int

    def format(self) -> str:
        lines = [self.aggregate.format()]
        lines.append(
            f"fleet                  : {len(self.replicas)} replicas, "
            f"{self.restarts} restarts, {self.resubmissions} resubmissions"
        )
        for index in sorted(self.replicas):
            status = self.replicas[index]
            artifact = (
                f" artifact {str(status.artifact_digest)[:12]}"
                f"/v{status.artifact_version}"
                if status.artifact_digest else ""
            )
            lines.append(
                f"  replica {index}            : "
                f"{'ready' if status.ready else 'down'} "
                f"pid {status.pid} inc {status.incarnation} "
                f"blas {status.blas_threads} "
                f"({status.completed} ok, {status.failed} failed, "
                f"{status.restarts} restarts){artifact}"
            )
        return "\n".join(lines)


class _ReplicaHandle:
    """Front-end bookkeeping for one replica slot in the fleet."""

    def __init__(self, index: int, ring: TensorRing):
        self.index = index
        self.ring = ring
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn = None
        self.send_lock = threading.Lock()
        self.lock = threading.Lock()
        self.ready = threading.Event()
        self.init_error: Optional[BaseException] = None
        self.receiver: Optional[threading.Thread] = None
        self.incarnation = 0
        self.restarts = 0
        #: BLAS threads the latest ``ready`` message reported
        self.blas_threads: Optional[int] = None
        #: bumped by crash recovery; a dispatcher that acquired a slot
        #: under an older epoch must drop it — the ring was reset
        self.epoch = 0
        self.last_seen = time.monotonic()
        #: seq -> (slot index, pendings, dispatched_at)
        self.in_flight: Dict[int, Tuple[int, List[PendingRequest], float]] = {}
        self.completed = 0
        self.failed = 0
        self.latencies_ms: List[float] = []
        #: one (size, compute_ms, energy_uj_per_image) per finished batch
        self.batches: List[Tuple[int, float, float]] = []
        self.control_replies: "queue.Queue[dict]" = queue.Queue()
        self.artifact: Optional[Tuple[str, str, str, int]] = None  # desired
        self.dead = False

    def send(self, message: dict) -> None:
        with self.send_lock:
            self.conn.send(message)

    def record_batch(self, results: List[InferenceResult],
                     compute_ms: float, energy_uj: float) -> None:
        with self.lock:
            self.completed += len(results)
            self.batches.append((len(results), compute_ms, energy_uj))
            self.latencies_ms.extend(result.latency_ms for result in results)
            if len(self.latencies_ms) > 65536:
                del self.latencies_ms[:32768]

    def record_failed(self, count: int) -> None:
        with self.lock:
            self.failed += count


class FleetServer(Server):
    """The request front end over N replica processes.

    Drop-in for :class:`~repro.serve.InferenceServer` on the client
    side — both are the same :class:`~repro.serve.engine.Server` — so
    :func:`repro.serve.run_closed_loop` drives either engine.  With
    ``hash`` routing there is one batcher lane per replica.  The ring
    slots are sized by ``config.max_batch_size``, so a batch knob
    applied to :attr:`batchers` must never exceed that bound.
    """

    # perfbench traces each engine's own ``__dict__["submit"]``
    submit = Server.submit

    def __init__(self, config: Optional[FleetConfig] = None):
        self.config = config or FleetConfig()
        hashed = self.config.routing == "hash"
        super().__init__(
            self.config.max_batch_size,
            self.config.max_delay_ms,
            self.config.max_queue_depth,
            lanes=self.config.replicas if hashed else 1,
        )
        self.metrics = get_metrics()
        self._ctx = multiprocessing.get_context(self.config.start_method)
        self._seqs = itertools.count()
        self._token = None
        self._handles: List[_ReplicaHandle] = []
        self._dispatchers: List[threading.Thread] = []
        self._monitor: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        self._hash_ring: List[Tuple[int, int]] = (
            self._build_hash_ring(self.config.replicas) if hashed else []
        )
        self._restarts = 0
        self._resubmissions = 0
        self._state_lock = threading.Lock()
        self._install_sigterm = False
        self._sigterm_installed = False
        self._previous_sigterm = None
        self._atexit_registered = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, install_signal_handler: bool = False) -> "FleetServer":
        self._install_sigterm = install_signal_handler
        return super().start()

    def _launch(self) -> None:
        config = self.config
        image_floats = _max_image_floats()
        self._token = secrets.token_hex(4)
        for index in range(config.replicas):
            ring = TensorRing.for_batches(
                index, config.ring_slots, config.max_batch_size,
                image_floats, token=self._token,
            )
            handle = _ReplicaHandle(index, ring)
            handle.artifact = config.startup_artifact
            self._handles.append(handle)

        if self._install_sigterm:
            self._install_signal_handler()
        # Always registered: a fleet abandoned without stop() (a raised
        # exception between start and stop, say) must still leave
        # /dev/shm clean at interpreter exit.  Cheap and idempotent —
        # after a normal stop() there is nothing left to clean.
        atexit.register(self._emergency_cleanup)
        self._atexit_registered = True

        for handle in self._handles:
            self._spawn(handle, incarnation=0)

        deadline = time.monotonic() + config.startup_timeout_s
        for handle in self._handles:
            while not handle.ready.wait(timeout=0.05):
                died = handle.dead or (
                    handle.process is not None
                    and not handle.process.is_alive()
                )
                if died or time.monotonic() > deadline:
                    error = handle.init_error
                    self._emergency_cleanup()
                    if error is not None:
                        raise FleetNotReadyError(
                            f"replica {handle.index} failed to initialize"
                        ) from error
                    if died:
                        raise FleetNotReadyError(
                            f"replica {handle.index} died during startup"
                        )
                    raise FleetNotReadyError(
                        f"replica {handle.index} not ready within "
                        f"{config.startup_timeout_s:.0f}s"
                    )
            if handle.init_error is not None:
                error = handle.init_error
                self._emergency_cleanup()
                raise FleetNotReadyError(
                    f"replica {handle.index} failed to initialize"
                ) from error

        for handle in self._handles:
            thread = threading.Thread(
                target=self._dispatch_loop, args=(handle,),
                name=f"fleet-dispatch-{handle.index}", daemon=True,
            )
            thread.start()
            self._dispatchers.append(thread)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor", daemon=True
        )
        self._monitor.start()
        self.metrics.gauge("fleet.replicas_ready").set(len(self._handles))

    # -- spawning -------------------------------------------------------
    def _replica_config(self, handle: _ReplicaHandle,
                        incarnation: int) -> ReplicaConfig:
        config = self.config
        crash_after = None
        if (
            config.crash_replica_after is not None
            and config.crash_replica_after[0] == handle.index
        ):
            crash_after = config.crash_replica_after[1]
        return ReplicaConfig(
            index=handle.index,
            segment_names=handle.ring.segment_names(),
            input_bytes=handle.ring.input_bytes,
            seed=config.seed,
            backend=config.backend,
            calibration_images=config.calibration_images,
            memory_budget_kb=config.memory_budget_kb,
            weight_paths=dict(config.weight_paths),
            warm_keys=list(config.warm),
            startup_artifact=handle.artifact,
            heartbeat_s=config.heartbeat_s,
            chaos_seed=config.chaos_seed,
            incarnation=incarnation,
            crash_after_batches=crash_after,
        )

    def _spawn(self, handle: _ReplicaHandle, incarnation: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=replica_main,
            args=(self._replica_config(handle, incarnation), child_conn),
            name=f"fleet-replica-{handle.index}",
            daemon=True,
        )
        handle.conn = parent_conn
        handle.process = process
        handle.incarnation = incarnation
        handle.init_error = None
        handle.dead = False
        handle.last_seen = time.monotonic()
        process.start()
        child_conn.close()
        receiver = threading.Thread(
            target=self._recv_loop, args=(handle, parent_conn),
            name=f"fleet-recv-{handle.index}-{incarnation}", daemon=True,
        )
        handle.receiver = receiver
        receiver.start()

    # -- signal/atexit emergency path ----------------------------------
    def _install_signal_handler(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return

        def _on_sigterm(signum, frame):  # pragma: no cover - signal path
            self._emergency_cleanup()
            os._exit(128 + signal.SIGTERM)

        self._previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
        self._sigterm_installed = True

    def _emergency_cleanup(self) -> None:
        """Terminate replicas and unlink segments without taking locks.

        Safe to call from a signal handler or atexit: every operation
        is lock-free and idempotent, so a front-end killed mid-dispatch
        still leaves ``/dev/shm`` clean.
        """
        for handle in self._handles:
            process = handle.process
            if process is not None and process.is_alive():
                try:
                    process.terminate()
                except Exception:
                    pass
        for handle in self._handles:
            try:
                handle.ring.unlink()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @staticmethod
    def _build_hash_ring(replicas: int, vnodes: int = 64) -> List[Tuple[int, int]]:
        ring = []
        for index in range(replicas):
            for vnode in range(vnodes):
                digest = hashlib.sha256(
                    f"replica-{index}-vnode-{vnode}".encode()
                ).digest()
                ring.append((int.from_bytes(digest[:8], "big"), index))
        ring.sort()
        return ring

    def _route(self, key: ModelKey) -> int:
        """Replica index owning this lane on the consistent-hash ring."""
        point = int.from_bytes(
            hashlib.sha256(
                f"{key.network}@{key.precision}".encode()
            ).digest()[:8],
            "big",
        )
        for marker, index in self._hash_ring:
            if marker >= point:
                return index
        return self._hash_ring[0][1]

    def _batcher_for_replica(self, index: int) -> Batcher:
        if self.config.routing == "hash":
            return self._batchers[index]
        return self._batchers[0]

    def _batcher_for_key(self, key: ModelKey) -> Batcher:
        if self.config.routing == "hash":
            return self._batchers[self._route(key)]
        return self._batchers[0]

    # ------------------------------------------------------------------
    # Fleet views
    # ------------------------------------------------------------------
    def fleet_report(self) -> FleetReport:
        aggregate = self.report()
        batches: List[Tuple[int, float, float]] = []
        statuses: Dict[int, ReplicaStatus] = {}
        for handle in self._handles:
            with handle.lock:
                batches.extend(handle.batches)
                statuses[handle.index] = ReplicaStatus(
                    index=handle.index,
                    pid=None if handle.process is None else handle.process.pid,
                    ready=handle.ready.is_set(),
                    incarnation=handle.incarnation,
                    restarts=handle.restarts,
                    completed=handle.completed,
                    failed=handle.failed,
                    artifact_digest=(
                        handle.artifact[2] if handle.artifact else None
                    ),
                    artifact_version=(
                        handle.artifact[3] if handle.artifact else None
                    ),
                    blas_threads=handle.blas_threads,
                )
        return FleetReport(
            aggregate=aggregate,
            replica_compute=batch_report(
                batches, aggregate.wall_s,
                failed=sum(status.failed for status in statuses.values()),
            ),
            replicas=statuses,
            restarts=self._restarts,
            resubmissions=self._resubmissions,
        )

    def replica_metrics(self) -> Dict[int, Dict[str, object]]:
        """Per-replica live counters (the canary controller's input)."""
        out: Dict[int, Dict[str, object]] = {}
        for handle in self._handles:
            with handle.lock:
                out[handle.index] = {
                    "completed": handle.completed,
                    "failed": handle.failed,
                    "latencies_ms": list(handle.latencies_ms),
                    "restarts": handle.restarts,
                    "ready": handle.ready.is_set(),
                }
        return out

    def ready_replicas(self) -> int:
        return sum(1 for handle in self._handles if handle.ready.is_set())

    @property
    def restarts(self) -> int:
        return self._restarts

    @property
    def resubmissions(self) -> int:
        return self._resubmissions

    # ------------------------------------------------------------------
    # Canary/deploy control plane
    # ------------------------------------------------------------------
    def deploy_to(
        self,
        indices: Sequence[int],
        root: str,
        channel: str,
        digest: str,
        version: int,
        sabotage: bool = False,
        timeout_s: float = 120.0,
    ) -> None:
        """Install a registry artifact on a subset of replicas.

        Blocks until every addressed replica acks the deploy (it builds
        and calibrates in its own process, then swaps its local store —
        the same zero-downtime contract as ``Deployer.rollout``).  A
        ``deploy_error`` reply raises :class:`ServingError` chaining the
        replica's exception.  ``sabotage`` arms forward-path faults on
        the addressed replicas; chaos tests use it to force a canary
        regression.
        """
        for index in indices:
            handle = self._handles[index]
            handle.send({
                "type": "deploy", "root": root, "digest": digest,
                "version": version, "sabotage": sabotage,
            })
        deadline = time.monotonic() + timeout_s
        for index in indices:
            handle = self._handles[index]
            remaining = max(deadline - time.monotonic(), 0.01)
            try:
                reply = handle.control_replies.get(timeout=remaining)
            except queue.Empty:
                raise ServingError(
                    f"replica {index} did not ack deploy of "
                    f"{digest[:12]} within {timeout_s:.0f}s"
                ) from None
            if reply.get("type") == "deploy_error":
                raise ServingError(
                    f"replica {index} failed to deploy {digest[:12]}"
                ) from reply.get("error")
            handle.artifact = (root, channel, digest, version)
        self.metrics.counter("fleet.deploys").inc(len(indices))

    def kill_replica(self, index: int) -> None:
        """SIGKILL one replica (chaos/testing); the monitor respawns it."""
        process = self._handles[index].process
        if process is not None and process.pid is not None:
            try:
                os.kill(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    # ------------------------------------------------------------------
    # Dispatch / receive / monitor threads
    # ------------------------------------------------------------------
    def _total_in_flight(self) -> int:
        total = 0
        for handle in self._handles:
            with handle.lock:
                total += len(handle.in_flight)
        return total

    def _dispatch_loop(self, handle: _ReplicaHandle) -> None:
        batcher = self._batcher_for_replica(handle.index)
        while True:
            if not handle.ready.wait(timeout=0.05):
                if self._stopped:
                    return
                continue
            batch = batcher.next_batch(timeout=0.05)
            if batch is None:
                # closed and drained — but crash recovery may requeue
                # in-flight work, so only exit once nothing is pending
                if self._total_in_flight() == 0:
                    return
                time.sleep(0.005)
                continue
            if not batch:
                continue
            self._dispatch(handle, batch)  # type: ignore[arg-type]

    def _dispatch(self, handle: _ReplicaHandle,
                  batch: List[PendingRequest]) -> None:
        ring = handle.ring
        images = np.stack(
            [pending.request.image for pending in batch], axis=0
        )
        key = batch[0].model_key
        while True:
            if handle.dead or not handle.ready.is_set():
                # never dispatched, so no resubmission penalty: hand the
                # batch back for this dispatcher (once the replica
                # rejoins) or a peer to pick up
                self._batcher_for_key(key).requeue(batch)
                return
            epoch = handle.epoch
            slot = ring.acquire(timeout=0.25)
            if slot is None:
                if self._stopped:
                    self._resubmit(batch)
                    return
                continue
            with handle.lock:
                if handle.epoch != epoch or handle.dead:
                    # crash recovery reset the ring between acquire and
                    # here; the slot claim is void, try again
                    try:
                        ring.release(slot)
                    except ConfigurationError:
                        pass
                    continue
                seq = next(self._seqs)
                dispatched_at = time.monotonic()
                try:
                    desc = ring.write_batch(slot, images)
                    handle.in_flight[seq] = (slot, batch, dispatched_at)
                    handle.send({
                        "type": "infer",
                        "seq": seq,
                        "slot": desc.slot,
                        "n": desc.n,
                        "shape": desc.shape,
                        "dtype": desc.dtype,
                        "network": key.network,
                        "precision": key.precision,
                    })
                    ring.mark_inflight(slot)
                except (BrokenPipeError, OSError, EOFError):
                    # replica died under us before it saw the batch:
                    # mark it dead so no dispatcher sends to it again
                    # (the monitor respawns it) and hand the batch back
                    # uncharged, as above
                    handle.in_flight.pop(seq, None)
                    handle.dead = True
                    try:
                        ring.release(slot)
                    except ConfigurationError:
                        pass
                    self._batcher_for_key(key).requeue(batch)
                    return
            self.metrics.counter("fleet.dispatched_batches").inc()
            return

    def _recv_loop(self, handle: _ReplicaHandle, conn) -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                handle.dead = True
                return
            handle.last_seen = time.monotonic()
            kind = message.get("type")
            if kind == "heartbeat":
                continue
            if kind == "ready":
                handle.blas_threads = message.get("blas_threads")
                handle.ready.set()
                self.metrics.gauge("fleet.replicas_ready").set(
                    self.ready_replicas()
                )
                continue
            if kind == "init_error":
                handle.init_error = message.get("error")
                handle.dead = True  # the starter polls this flag
                return
            if kind in ("deployed", "deploy_error"):
                handle.control_replies.put(message)
                continue
            if kind == "done":
                self._complete(handle, message)
            elif kind == "error":
                self._fail(handle, message)

    def _pop_in_flight(
        self, handle: _ReplicaHandle, seq: int
    ) -> Optional[Tuple[int, List[PendingRequest], float]]:
        with handle.lock:
            return handle.in_flight.pop(seq, None)

    def _complete(self, handle: _ReplicaHandle, message: dict) -> None:
        entry = self._pop_in_flight(handle, int(message["seq"]))
        if entry is None:
            return  # already reclaimed by crash recovery
        slot, batch, dispatched_at = entry
        try:
            logits = handle.ring.read_output(
                slot, int(message["n"]), int(message["n_out"]),
                str(message["dtype"]),
            )
        except (ConfigurationError, ServingError) as error:
            handle.ring.release(slot)
            self._fail_batch(batch, error)
            handle.record_failed(len(batch))
            return
        handle.ring.release(slot)
        compute_ms = float(message["compute_ms"])
        energy = float(message["energy_uj_per_image"])
        self._finish_batch(
            batch, logits, dispatched_at, energy,
            message["registry_digest"], message["registry_version"],
            before_resolve=lambda results: handle.record_batch(
                results, compute_ms, energy
            ),
        )
        self.metrics.counter("fleet.completed_batches").inc()

    def _fail(self, handle: _ReplicaHandle, message: dict) -> None:
        entry = self._pop_in_flight(handle, int(message["seq"]))
        if entry is None:
            return
        slot, batch, _ = entry
        try:
            handle.ring.release(slot)
        except ConfigurationError:
            pass
        error = message.get("error") or ServingError(
            f"replica {handle.index} failed a batch"
        )
        self._fail_batch(batch, error)
        handle.record_failed(len(batch))

    def _resubmit(self, batch: List[PendingRequest]) -> None:
        """Requeue reclaimed requests, bounded per request."""
        survivors: List[PendingRequest] = []
        for pending in batch:
            pending.resubmits += 1
            if pending.resubmits > self.config.max_resubmits:
                pending.future.set_exception(ReplicaCrashError(
                    f"request {pending.request.request_id} lost its "
                    f"replica {pending.resubmits} times "
                    f"(budget {self.config.max_resubmits})"
                ))
                self.stats.record_failure()
            else:
                survivors.append(pending)
        if survivors:
            key = survivors[0].model_key
            self._batcher_for_key(key).requeue(survivors)
            self._resubmissions += len(survivors)
            self.metrics.counter("fleet.resubmitted_requests").inc(
                len(survivors)
            )

    # -- crash detection ------------------------------------------------
    def _monitor_loop(self) -> None:
        interval = min(0.05, self.config.heartbeat_s)
        while not self._monitor_stop.wait(interval):
            for handle in self._handles:
                if self._monitor_stop.is_set():
                    return
                self._check_replica(handle)

    def _check_replica(self, handle: _ReplicaHandle) -> None:
        process = handle.process
        if process is None:
            return
        alive = process.is_alive()
        stale = (
            handle.ready.is_set()
            and self.config.heartbeat_timeout_s > 0
            and time.monotonic() - handle.last_seen
            > self.config.heartbeat_timeout_s
        )
        if alive and not handle.dead and not stale:
            return
        if not handle.ready.is_set() and alive and not handle.dead:
            return  # still starting up
        with self._state_lock:
            # re-check under the lock; another pass may have respawned
            if handle.process is not process:
                return
            self._recover_replica(handle, reason="stale" if stale else "died")

    def _recover_replica(self, handle: _ReplicaHandle, reason: str) -> None:
        handle.dead = True
        handle.ready.clear()
        self.metrics.gauge("fleet.replicas_ready").set(self.ready_replicas())
        process = handle.process
        if process is not None and process.is_alive():
            process.terminate()
        if process is not None:
            process.join(timeout=5.0)
        try:
            handle.conn.close()
        except Exception:
            pass
        # The receiver must be gone before the ring is reset: it may
        # still be draining done-messages the dead replica buffered,
        # and those touch slot states.
        if handle.receiver is not None and (
            handle.receiver is not threading.current_thread()
        ):
            handle.receiver.join(timeout=5.0)
        with handle.lock:
            handle.epoch += 1
            reclaimed = list(handle.in_flight.values())
            handle.in_flight.clear()
            handle.ring.reset()
        for _slot, batch, _at in reclaimed:
            self._resubmit(batch)
        handle.restarts += 1
        self._restarts += 1
        self.metrics.counter("fleet.replica_restarts").inc()
        if self._stopping or self._stopped:
            return
        self._spawn(handle, incarnation=handle.incarnation + 1)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def _shutdown(self, timeout: Optional[float]) -> None:
        """Wait for queued and in-flight work (``timeout``, default
        120 s), tear down replicas, and unlink every shared-memory
        segment."""
        deadline = time.monotonic() + (120.0 if timeout is None else timeout)
        # wait for queues + in-flight work to drain
        while time.monotonic() < deadline:
            if self._depth() == 0 and self._total_in_flight() == 0:
                break
            time.sleep(0.01)
        self._stopped = True
        for thread in self._dispatchers:
            thread.join(timeout=2.0)
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        # now tear down the replicas
        with self._state_lock:
            for handle in self._handles:
                try:
                    handle.send({"type": "stop"})
                except Exception:
                    pass
            for handle in self._handles:
                if handle.process is not None:
                    handle.process.join(timeout=10.0)
                    if handle.process.is_alive():
                        handle.process.terminate()
                        handle.process.join(timeout=5.0)
                if handle.receiver is not None:
                    handle.receiver.join(timeout=2.0)
                handle.ring.close()
                handle.ring.unlink()
        if self._sigterm_installed and (
            threading.current_thread() is threading.main_thread()
        ):
            try:
                signal.signal(signal.SIGTERM, self._previous_sigterm)
            except (ValueError, TypeError):
                pass
            self._sigterm_installed = False
        self.metrics.gauge("fleet.replicas_ready").set(0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FleetServer(replicas={self.config.replicas}, "
            f"routing={self.config.routing!r}, "
            f"ready={self.ready_replicas()})"
        )
