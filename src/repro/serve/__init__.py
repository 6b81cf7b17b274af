"""Batched, multi-worker quantized-inference serving with energy accounting.

The paper measures accuracy against *per-image inference energy* on an
accelerator — a deployment argument.  This subpackage makes that
deployment scenario executable: an in-process service that accepts
single-image requests, groups them into dynamic micro-batches, runs
them through calibrated :class:`~repro.core.QuantizedNetwork` pipelines
on a pool of worker threads, and attributes modeled accelerator energy
(:class:`~repro.hw.energy.EnergyModel`) to every request it serves.
The paper's accuracy/energy trade-off thereby becomes observable per
request under load, not only in offline benchmark tables.

Components:

``ModelStore``
    Loads weights (``repro.nn.serialization``), calibrates and freezes
    one servable per ``(network, precision)``, LRU-evicted under a
    memory budget computed with the paper's Section V-B footprint
    accounting — low-precision models are proportionally cheaper to
    cache, mirroring the accelerator's buffers.
``Batcher`` / ``BatchPolicy``
    Bounded request queue with explicit backpressure and dynamic
    micro-batching (max batch size + max latency deadline).
``Server``
    The one request front end both engines share: validation, the
    ``admission`` gate and ``degrade`` router (set on the server by
    :meth:`repro.control.ControlLoop.install`; refusals raise
    ``ServerOverloadedError`` and count as ``throttled``), request ids,
    the one batcher every executor takes batches from, deadline
    expiry, result building, and drain-or-abandon on ``stop``.
``InferenceServer``
    The in-process executor: worker threads with graceful drain; thread
    safety comes from :meth:`repro.core.QuantizedNetwork.freeze`, which
    bakes quantized parameter copies in so the inference path never
    mutates shared state.
``ServerStats`` / ``StatsReport``
    p50/p95/p99 latency, throughput, queue depth, batch-size histogram
    and cumulative modeled energy.
``run_closed_loop``
    Closed-loop load generator backing ``python -m repro serve-bench``:
    records client-side per-request latencies, runs request- or
    time-bounded, and retries submissions the admission controller
    throttles.
``FleetServer`` / ``FleetConfig``
    The multi-process executor: N replica processes behind the same
    front end, zero-copy shared-memory tensor handoff
    (``repro.serve.ipc``), heartbeat-driven crash recovery with
    in-flight resubmission, and per-replica canary deploys
    (``docs/serving.md`` has the topology).
"""

from repro.serve.request import (
    InferenceRequest,
    InferenceResult,
    ModelKey,
    PendingRequest,
    ServeFuture,
)
from repro.serve.batcher import Batcher, BatchPolicy
from repro.serve.stats import ServerStats, StatsReport
from repro.serve.model_store import ModelStore, Servable
from repro.serve.engine import InferenceServer, Server
from repro.serve.ipc import (
    ReplicaRing,
    SlotDescriptor,
    SlotState,
    TensorRing,
    scan_segments,
)
from repro.serve.replica import CRASH_EXIT_CODE, ReplicaConfig
from repro.serve.fleet import (
    FleetConfig,
    FleetReport,
    FleetServer,
    ReplicaStatus,
)
from repro.serve.loadgen import LoadResult, run_closed_loop

__all__ = [
    "ModelKey",
    "InferenceRequest",
    "InferenceResult",
    "ServeFuture",
    "Batcher",
    "BatchPolicy",
    "PendingRequest",
    "ServerStats",
    "StatsReport",
    "ModelStore",
    "Servable",
    "Server",
    "InferenceServer",
    "TensorRing",
    "ReplicaRing",
    "SlotDescriptor",
    "SlotState",
    "scan_segments",
    "ReplicaConfig",
    "CRASH_EXIT_CODE",
    "FleetServer",
    "FleetConfig",
    "FleetReport",
    "ReplicaStatus",
    "LoadResult",
    "run_closed_loop",
]
