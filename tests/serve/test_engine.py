"""InferenceServer: correctness under batching, backpressure, shutdown."""

import threading
import time

import numpy as np
import pytest

from repro.control import AutoTuner, SLOPolicy, TierLadder
from repro.data import load_dataset
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServerClosedError,
    ServerOverloadedError,
    ShapeError,
    WorkerStallError,
)
from repro.resilience import FaultInjector
from repro.serve import InferenceServer, ModelStore, run_closed_loop


@pytest.fixture(scope="module")
def digits_images():
    split = load_dataset("digits", n_train=32, n_test=64, seed=0)
    return split.test.images


@pytest.fixture(scope="module")
def calibration(digits_images):
    return {"digits": digits_images[:32]}


@pytest.fixture()
def store(calibration):
    return ModelStore(calibration_data=calibration, calibration_images=32)


def test_server_keeps_the_exact_store_it_was_given():
    """Regression: an empty store is falsy (``ModelStore`` has
    ``__len__``), and ``store or ModelStore()`` swapped a cold store
    for a default one, dropping its seed and calibration budget."""
    store = ModelStore(calibration_images=8, seed=3)
    assert len(store) == 0
    server = InferenceServer(store, workers=1)
    assert server.store is store
    assert server.store.calibration_images == 8
    assert server.store.seed == 3


def test_batched_results_match_direct_inference(store, digits_images):
    servable = store.warm("lenet_small", "fixed8")
    expected = servable.forward(digits_images[:24])
    with InferenceServer(store, workers=2, max_batch_size=8) as server:
        futures = [
            server.submit(digits_images[i], "lenet_small", "fixed8")
            for i in range(24)
        ]
        results = [future.result(timeout=30.0) for future in futures]
    for index, result in enumerate(results):
        # tolerance: BLAS accumulation order varies with batch size
        np.testing.assert_allclose(
            result.logits, expected[index], rtol=0, atol=1e-5
        )
        assert result.batch_size >= 1
        assert result.latency_ms >= result.queue_ms >= 0.0
        assert result.energy_uj == servable.energy_uj_per_image


def test_mixed_precision_traffic_stays_separated(store, digits_images):
    int8 = store.warm("lenet_small", "fixed8")
    full = store.warm("lenet_small", "float32")
    with InferenceServer(store, workers=2, max_batch_size=4) as server:
        futures = [
            server.submit(
                digits_images[i],
                "lenet_small",
                "fixed8" if i % 2 else "float32",
            )
            for i in range(16)
        ]
        results = [future.result(timeout=30.0) for future in futures]
    for i, result in enumerate(results):
        reference = int8 if i % 2 else full
        other = full if i % 2 else int8
        # BLAS accumulation order varies with batch size, so float32 logits
        # can drift ~1e-7 between served batches and a batch-of-1 reference;
        # the int8/float32 quantization gap is orders of magnitude larger.
        np.testing.assert_allclose(
            result.logits,
            reference.forward(digits_images[i : i + 1])[0],
            rtol=0,
            atol=1e-5,
        )
        assert not np.allclose(
            result.logits,
            other.forward(digits_images[i : i + 1])[0],
            rtol=0,
            atol=1e-5,
        )
        assert result.energy_uj == reference.energy_uj_per_image
    # int8 requests must be cheaper than float32 on the modeled accelerator
    assert int8.energy_uj_per_image < full.energy_uj_per_image


def test_backpressure_rejects_before_admitting(store, digits_images):
    server = InferenceServer(store, workers=1, max_queue_depth=2)
    server.submit(digits_images[0], "lenet_small", "fixed8")
    server.submit(digits_images[1], "lenet_small", "fixed8")
    with pytest.raises(ServerOverloadedError):
        server.submit(digits_images[2], "lenet_small", "fixed8")
    assert server.report().rejected == 1
    server.stop(drain=False)


def test_stop_without_drain_fails_queued_requests(store, digits_images):
    server = InferenceServer(store, workers=1)
    futures = [
        server.submit(digits_images[i], "lenet_small", "fixed8") for i in range(3)
    ]
    server.stop(drain=False)
    for future in futures:
        with pytest.raises(ServerClosedError):
            future.result(timeout=1.0)
    assert server.report().failed == 3


def test_submit_after_stop_raises(store, digits_images):
    server = InferenceServer(store, workers=1).start()
    server.stop()
    with pytest.raises(ServerClosedError):
        server.submit(digits_images[0], "lenet_small", "fixed8")


def test_context_manager_drains_everything(store, digits_images):
    with InferenceServer(store, workers=2, max_batch_size=8) as server:
        futures = [
            server.submit(digits_images[i % 8], "lenet_small", "fixed8")
            for i in range(40)
        ]
    assert all(future.done() for future in futures)
    assert server.report().completed == 40


def test_submit_validates_image_rank(store, digits_images):
    server = InferenceServer(store, workers=1)
    with pytest.raises(ConfigurationError):
        server.submit(digits_images[:2], "lenet_small", "fixed8")  # batched
    server.stop(drain=False)


def test_worker_errors_propagate_to_futures(store):
    wrong_channels = np.zeros((3, 28, 28), dtype=np.float32)
    with InferenceServer(store, workers=1) as server:
        future = server.submit(wrong_channels, "lenet_small", "fixed8")
        with pytest.raises(ShapeError):
            future.result(timeout=30.0)
    assert server.report().failed >= 1


def slow_down(servable, delay_s):
    """Wrap a servable's forward so each batch takes ``delay_s`` extra."""
    real_forward = servable.forward

    def slow_forward(batch):
        time.sleep(delay_s)
        return real_forward(batch)

    servable.forward = slow_forward


def test_deadline_evicts_queued_requests_under_a_slow_servable(
    store, digits_images
):
    servable = store.warm("lenet_small", "fixed8")
    slow_down(servable, delay_s=0.15)
    with InferenceServer(store, workers=1, max_batch_size=1,
                         max_delay_ms=0.0) as server:
        head = server.submit(digits_images[0], "lenet_small", "fixed8")
        late = [
            server.submit(
                digits_images[i], "lenet_small", "fixed8", deadline_ms=50.0
            )
            for i in range(1, 3)
        ]
        assert head.result(timeout=10.0).request_id == 0
        for future in late:
            # queued behind a 150 ms batch with a 50 ms budget: evicted
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=10.0)
    report = server.report()
    assert report.completed == 1
    assert report.deadline_expired == 2
    assert report.failed == 0  # eviction is not a server failure


def test_deadline_ms_must_be_positive(store, digits_images):
    server = InferenceServer(store, workers=1)
    with pytest.raises(ConfigurationError):
        server.submit(digits_images[0], "lenet_small", "fixed8",
                      deadline_ms=0.0)
    server.stop(drain=False)


def test_generous_deadline_never_fires(store, digits_images):
    with InferenceServer(store, workers=2, max_batch_size=8) as server:
        futures = [
            server.submit(digits_images[i], "lenet_small", "fixed8",
                          deadline_ms=30_000.0)
            for i in range(16)
        ]
        for future in futures:
            future.result(timeout=30.0)
    assert server.report().deadline_expired == 0
    assert server.report().completed == 16


def fixed8_to_fixed4_tuner() -> AutoTuner:
    return AutoTuner(
        SLOPolicy(latency_slo_ms=50.0),
        TierLadder.from_precisions(["fixed8", "fixed4"]),
    )


def test_overload_degrades_to_lower_precision(store, digits_images):
    full = store.warm("lenet_small", "fixed8")
    low = store.warm("lenet_small", "fixed4")
    tuner = fixed8_to_fixed4_tuner()
    server = InferenceServer(store, workers=1)
    server.degrade = tuner
    futures = []
    for i in range(4):
        if i == 2:
            tuner.tier_index = 1  # the controller steps one tier down
        futures.append(server.submit(digits_images[i], "lenet_small", "fixed8"))
    server.start()
    results = [future.result(timeout=30.0) for future in futures]
    server.stop()
    # at tier 0: served as asked; one tier down: degraded
    assert [r.model_key.precision for r in results] == [
        "fixed8", "fixed8", "fixed4", "fixed4"
    ]
    # degraded responses carry the fallback model's (lower) energy
    assert results[2].energy_uj == low.energy_uj_per_image
    assert results[0].energy_uj == full.energy_uj_per_image
    assert low.energy_uj_per_image < full.energy_uj_per_image
    assert server.report().degraded == 2


def test_degradation_leaves_unmapped_precisions_alone(store, digits_images):
    tuner = fixed8_to_fixed4_tuner()
    tuner.tier_index = 1
    store.warm("lenet_small", "float32")
    server = InferenceServer(store, workers=1)
    server.degrade = tuner
    futures = [
        server.submit(digits_images[i], "lenet_small", "float32")
        for i in range(3)
    ]
    server.start()
    results = [future.result(timeout=30.0) for future in futures]
    server.stop()
    assert all(r.model_key.precision == "float32" for r in results)
    assert server.report().degraded == 0


def test_stop_deadline_is_shared_and_stalls_are_loud(store, digits_images):
    """Regression: ``stop(timeout=...)`` used to give *each* worker the
    full timeout and then mark the server stopped without checking that
    the joins succeeded — a wedged worker was silently leaked."""
    release = threading.Event()
    servable = store.warm("lenet_small", "fixed8")
    real_forward = servable.forward

    def blocking_forward(batch):
        release.wait(10.0)
        return real_forward(batch)

    servable.forward = blocking_forward
    server = InferenceServer(store, workers=2, max_batch_size=1).start()
    future = server.submit(digits_images[0], "lenet_small", "fixed8")
    time.sleep(0.05)  # let a worker enter the blocked forward
    started = time.monotonic()
    with pytest.raises(WorkerStallError):
        server.stop(timeout=0.2)
    # one shared deadline, not 0.2 s per worker
    assert time.monotonic() - started < 2.0
    assert server.stats.metrics.counter("serve.leaked_workers").value >= 1
    server.stop()  # repeat stop is a no-op, not a second error
    release.set()
    future.result(timeout=10.0)


def test_faults_parameter_overrides_process_injector(store, digits_images):
    injector = FaultInjector().arm("engine.forward", rate=1.0, max_fires=1)
    with InferenceServer(store, workers=1, faults=injector) as server:
        first = server.submit(digits_images[0], "lenet_small", "fixed8")
        with pytest.raises(Exception, match="engine.forward"):
            first.result(timeout=10.0)
        second = server.submit(digits_images[1], "lenet_small", "fixed8")
        second.result(timeout=10.0)  # fault exhausted: traffic recovers
    assert server.report().failed == 1
    assert server.report().completed == 1


def test_closed_loop_load_generator(store, digits_images):
    with InferenceServer(store, workers=2, max_batch_size=8) as server:
        outcome = run_closed_loop(
            server,
            digits_images,
            "lenet_small",
            "fixed8",
            n_requests=48,
            concurrency=8,
        )
    assert outcome.submitted == 48
    assert outcome.client_errors == 0
    report = outcome.report
    assert report.completed == 48
    assert report.throughput_ips > 0
    assert report.energy_uj_total == pytest.approx(
        48 * report.energy_uj_per_image
    )
    assert sum(size * n for size, n in report.batch_histogram.items()) == 48
