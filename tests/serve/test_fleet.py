"""Multi-process fleet serving: parity, crash/rejoin, config, reports.

These tests spawn real replica processes (``spawn`` start method), so
they share one module-scoped fleet where possible and keep request
budgets small — replica startup (building + calibrating a servable in
the child) dominates the wall time, not serving.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ReplicaCrashError
from repro.serve import (
    FleetConfig,
    FleetServer,
    InferenceServer,
    ModelStore,
    scan_segments,
)


def make_images(count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=(1, 28, 28)).astype(np.float32) for _ in range(count)
    ]


@pytest.fixture(scope="module")
def fleet():
    config = FleetConfig(
        replicas=2,
        warm=[("lenet_small", "fixed8")],
        calibration_images=8,
        seed=0,
        max_batch_size=8,
    )
    server = FleetServer(config)
    server.start()
    yield server
    server.stop()


def test_fleet_matches_in_process_serving_bitwise(fleet):
    """The headline guarantee: sharding is invisible to clients."""
    images = make_images(24)
    futures = [
        fleet.submit(image, "lenet_small", "fixed8") for image in images
    ]
    fleet_results = [future.result(timeout=60.0) for future in futures]

    store = ModelStore(calibration_images=8, seed=0)
    with InferenceServer(store, workers=1) as single:
        futures = [
            single.submit(image, "lenet_small", "fixed8") for image in images
        ]
        single_results = [future.result(timeout=60.0) for future in futures]

    for ours, reference in zip(fleet_results, single_results):
        np.testing.assert_array_equal(ours.logits, reference.logits)


def test_fleet_report_merges_both_views(fleet):
    images = make_images(16, seed=1)
    futures = [
        fleet.submit(image, "lenet_small", "fixed8") for image in images
    ]
    for future in futures:
        result = future.result(timeout=60.0)
        assert result.energy_uj > 0
    report = fleet.fleet_report()
    # the end-to-end view has seen everything submitted so far
    assert report.aggregate.completed >= 16
    assert report.aggregate.failed == 0
    assert len(report.replicas) == 2
    assert fleet.ready_replicas() == 2
    # per-replica counters add up to the front-end total
    by_replica = sum(
        status.completed for status in report.replicas.values()
    )
    assert by_replica == report.aggregate.completed
    formatted = report.format()
    assert "2 replicas" in formatted
    assert "replica 0" in formatted and "replica 1" in formatted


def test_replica_metrics_shape(fleet):
    metrics = fleet.replica_metrics()
    assert set(metrics) == {0, 1}
    for snap in metrics.values():
        assert snap["ready"] is True
        assert snap["completed"] >= 0
        assert isinstance(snap["latencies_ms"], list)


def test_replicas_report_one_blas_thread(fleet):
    """Each replica computes on one BLAS thread and says so in the
    fleet report, whatever the host's count in this process."""
    from repro.parallel.blas import blas_threads

    expected = None if blas_threads() is None else 1
    report = fleet.fleet_report()
    assert {s.blas_threads for s in report.replicas.values()} == {expected}
    assert f"blas {expected} " in report.format()


def test_fleet_live_segments_scoped_by_token(fleet):
    if not scan_segments():
        pytest.skip("no scannable /dev/shm on this platform")
    # 2 replicas x ring_slots=2 segments, all carrying the run token
    assert len(scan_segments(fleet._token)) == 4


def test_crash_and_sigkill_lose_nothing():
    """Zero lost futures across a deterministic crash and a SIGKILL."""
    import time

    config = FleetConfig(
        replicas=2,
        warm=[("lenet_small", "fixed8")],
        calibration_images=8,
        seed=0,
        max_batch_size=4,
        heartbeat_timeout_s=10.0,
        crash_replica_after=(1, 2),   # replica 1 dies after 2 batches
    )
    fleet = FleetServer(config)
    fleet.start()
    try:
        futures = []
        for image in make_images(60, seed=2):
            futures.append(fleet.submit(image, "lenet_small", "fixed8"))
            time.sleep(0.002)
        results = [future.result(timeout=120.0) for future in futures]
        assert len(results) == 60
        assert fleet.restarts >= 1
        assert fleet.resubmissions >= 1

        # round two: SIGKILL the other replica mid-stream
        restarts_before = fleet.restarts
        futures = []
        for index, image in enumerate(make_images(40, seed=3)):
            futures.append(fleet.submit(image, "lenet_small", "fixed8"))
            if index == 10:
                fleet.kill_replica(0)
            time.sleep(0.002)
        results = [future.result(timeout=120.0) for future in futures]
        assert len(results) == 40
        assert fleet.restarts > restarts_before
        report = fleet.report()
        assert report.completed == 100
        assert report.failed == 0
    finally:
        fleet.stop()
    # both incarnations' segments are gone after stop
    assert scan_segments(fleet._token) == []


def test_replica_compute_counts_crashed_incarnations():
    """Regression: a crashed replica never sent its stop-time stats, so
    the replica-side view dropped every batch that incarnation served."""
    import time

    config = FleetConfig(
        replicas=2,
        warm=[("lenet_small", "fixed8")],
        calibration_images=8,
        seed=0,
        max_batch_size=4,
        crash_replica_after=(1, 2),   # replica 1 dies after 2 batches
    )
    fleet = FleetServer(config)
    fleet.start()
    try:
        futures = []
        for image in make_images(48, seed=4):
            futures.append(fleet.submit(image, "lenet_small", "fixed8"))
            time.sleep(0.002)
        for future in futures:
            future.result(timeout=120.0)
    finally:
        fleet.stop()
    report = fleet.fleet_report()
    aggregate, compute = report.aggregate, report.replica_compute
    assert report.restarts >= 1
    assert aggregate.completed == 48
    assert compute.completed == aggregate.completed
    assert compute.batch_histogram == aggregate.batch_histogram
    assert compute.energy_uj_total == pytest.approx(aggregate.energy_uj_total)
    # compute time is part of every image's end-to-end latency
    assert 0.0 < compute.latency_ms_max <= aggregate.latency_ms_max
    assert compute.queue_ms_mean == 0.0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        FleetConfig(replicas=0)
    with pytest.raises(ConfigurationError):
        FleetConfig(ring_slots=0)


def test_submit_validates_like_the_in_process_server(fleet):
    with pytest.raises(ConfigurationError):
        fleet.submit(
            np.zeros((28, 28), dtype=np.float32), "lenet_small", "fixed8"
        )
    with pytest.raises(ConfigurationError):
        fleet.submit(
            np.zeros((1, 28, 28), dtype=np.float32),
            "lenet_small", "fixed8", deadline_ms=0,
        )


def test_resubmit_budget_turns_into_a_typed_failure():
    """A batch that outlives its resubmission budget fails loudly."""
    from repro.serve.batcher import Batcher, BatchPolicy
    from repro.serve.request import (
        InferenceRequest, ModelKey, PendingRequest, ServeFuture,
    )

    config = FleetConfig(replicas=1, max_resubmits=1)
    fleet = FleetServer(config)            # never started: unit scope
    fleet.batcher = Batcher(BatchPolicy())
    request = InferenceRequest(
        image=np.zeros((1, 28, 28), dtype=np.float32),
        model_key=ModelKey(network="lenet_small", precision="fixed8"),
        request_id=0,
        enqueued_at=0.0,
    )
    pending = PendingRequest(request=request, future=ServeFuture())
    fleet._resubmit([pending])             # 1st: back onto the queue
    assert fleet.resubmissions == 1
    assert fleet.batcher.depth() == 1
    requeued = fleet.batcher.next_batch(timeout=0.5)
    fleet._resubmit(requeued)              # 2nd: budget exhausted
    with pytest.raises(ReplicaCrashError):
        pending.future.result(timeout=1.0)


def test_failed_send_requeues_the_batch_uncharged():
    """A batch whose send raised never reached a replica: it goes back
    on the queue without spending resubmission budget, and the replica
    is marked dead so no dispatcher sends to it again before recovery."""
    from repro.serve.batcher import Batcher, BatchPolicy
    from repro.serve.fleet import _ReplicaHandle
    from repro.serve.ipc import SlotState, TensorRing
    from repro.serve.request import (
        InferenceRequest, ModelKey, PendingRequest, ServeFuture,
    )

    class BrokenConnection:
        def send(self, message):
            raise BrokenPipeError("replica gone")

    fleet = FleetServer(FleetConfig(replicas=1))   # never started: unit scope
    fleet.batcher = Batcher(BatchPolicy())
    ring = TensorRing(0, slots=1, input_bytes=4 * 28 * 28)
    try:
        handle = _ReplicaHandle(0, ring)
        handle.conn = BrokenConnection()
        handle.ready.set()
        request = InferenceRequest(
            image=np.zeros((1, 28, 28), dtype=np.float32),
            model_key=ModelKey(network="lenet_small", precision="fixed8"),
            request_id=0,
            enqueued_at=0.0,
        )
        pending = PendingRequest(request=request, future=ServeFuture())
        fleet._dispatch(handle, [pending])
        assert handle.dead
        assert not handle.in_flight
        assert ring.states() == {0: SlotState.FREE}
        assert pending.resubmits == 0 and fleet.resubmissions == 0
        assert fleet.batcher.next_batch(timeout=0.5) == [pending]
        assert not pending.future.done()
    finally:
        ring.close()
        ring.unlink()
