"""run_closed_loop: client-side latency samples, time-bounded runs,
and the admission-gate interaction."""

import time

import numpy as np
import pytest

from repro.control import TokenBucket
from repro.data import load_dataset
from repro.errors import ConfigurationError, ServerOverloadedError
from repro.serve import InferenceServer, ModelStore, run_closed_loop


@pytest.fixture(scope="module")
def digits_images():
    split = load_dataset("digits", n_train=32, n_test=64, seed=0)
    return split.test.images


@pytest.fixture(scope="module")
def store(digits_images):
    store = ModelStore(
        calibration_data={"digits": digits_images[:32]},
        calibration_images=32,
    )
    store.warm("lenet_small", "fixed8")
    return store


def test_client_latencies_recorded_per_request(store, digits_images):
    with InferenceServer(store, workers=2, max_batch_size=8) as server:
        result = run_closed_loop(
            server, digits_images, "lenet_small", "fixed8",
            n_requests=24, concurrency=4,
        )
    assert result.report.completed == 24
    assert len(result.latencies_ms) == 24
    assert all(sample > 0.0 for sample in result.latencies_ms)
    # the client-side view includes the server-side latency and can
    # only add overhead on top of it
    assert max(result.latencies_ms) >= result.report.latency_ms_p50


def test_duration_bounds_the_run(store, digits_images):
    with InferenceServer(store, workers=2, max_batch_size=8) as server:
        started = time.monotonic()
        result = run_closed_loop(
            server, digits_images, "lenet_small", "fixed8",
            n_requests=10_000_000, concurrency=2, duration_s=0.3,
        )
        elapsed = time.monotonic() - started
    # stopped by the clock, far before the request budget
    assert 0 < result.submitted < 10_000_000
    assert elapsed < 30.0
    assert result.lost == 0


def test_duration_validation(store, digits_images):
    with InferenceServer(store, workers=1) as server:
        with pytest.raises(ConfigurationError):
            run_closed_loop(
                server, digits_images, "lenet_small", "fixed8",
                n_requests=1, duration_s=0.0,
            )


def test_admission_gate_throttles_submissions(store, digits_images):
    bucket = TokenBucket(rate_ips=1e-3, burst=2.0)  # two tokens, then shut
    server = InferenceServer(store, workers=2, max_batch_size=8)
    server.admission = bucket
    with server:
        futures = [
            server.submit(digits_images[i], "lenet_small", "fixed8")
            for i in range(2)
        ]
        with pytest.raises(ServerOverloadedError):
            server.submit(digits_images[2], "lenet_small", "fixed8")
        for future in futures:
            future.result(timeout=30.0)
    report = server.report()
    assert report.completed == 2
    assert report.throttled == 1
    assert report.rejected == 0  # throttle is not a queue rejection
    assert "throttled 1" in report.format()


def test_closed_loop_retries_through_throttling(store, digits_images):
    # a tight-but-liveable rate: the closed loop must finish, with the
    # throttles surfacing as retries rather than failures
    bucket = TokenBucket(rate_ips=200.0, burst=4.0)
    server = InferenceServer(store, workers=2, max_batch_size=8)
    server.admission = bucket
    with server:
        result = run_closed_loop(
            server, digits_images, "lenet_small", "fixed8",
            n_requests=32, concurrency=8,
        )
    assert result.report.completed == 32
    assert result.lost == 0 and result.client_errors == 0
    assert result.retries > 0
    assert result.report.throttled == result.retries


def test_unlimited_bucket_is_transparent(store, digits_images):
    server = InferenceServer(store, workers=2, max_batch_size=8)
    server.admission = TokenBucket()
    with server:
        result = run_closed_loop(
            server, digits_images, "lenet_small", "fixed8",
            n_requests=16, concurrency=4,
        )
    assert result.report.completed == 16
    assert result.report.throttled == 0
    assert result.retries == 0


def test_latency_pool_survives_numpy_percentile(store, digits_images):
    with InferenceServer(store, workers=1, max_batch_size=4) as server:
        result = run_closed_loop(
            server, digits_images, "lenet_small", "fixed8",
            n_requests=8, concurrency=2,
        )
    p99 = float(np.percentile(np.asarray(result.latencies_ms), 99))
    assert p99 >= min(result.latencies_ms)
