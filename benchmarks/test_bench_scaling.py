"""Timed capability gates: batching, fleet and sweep-worker scaling.

Each gate is a throughput ratio between two whole runs on the same
host, so it moves with the host's load: the float32 batching ratio
read 1.87-4.34x over 10 repetitions on an idle 2-vCPU host, twice
below its 2.0 bound.  That is why these gates live here, outside the
tier-1 suite, with their bounds as stated.  Four replica or worker
processes cannot run at once on fewer than four CPUs, so the fleet and
sweep gates skip there.

Run with::

    PYTHONPATH=src pytest benchmarks/test_bench_scaling.py
"""

import functools
import os
import time

import pytest

from repro.core.sweep import PrecisionSweep, SweepConfig
from repro.data import load_dataset
from repro.serve import (
    FleetConfig,
    FleetServer,
    InferenceServer,
    ModelStore,
    run_closed_loop,
)
from repro.zoo import build_network

NETWORK = "lenet_small"
BATCHED_PRECISIONS = ("float32", "fixed8")
SEED = 0
CPUS = os.cpu_count() or 1

needs_four_cpus = pytest.mark.skipif(
    CPUS < 4, reason="scaling to 4 processes needs >= 4 CPUs to mean anything"
)


def _closed_loop(server, images, precision, n_requests, concurrency):
    outcome = run_closed_loop(
        server, images, NETWORK, precision,
        n_requests=n_requests, concurrency=concurrency,
    )
    assert outcome.client_errors == 0 and outcome.lost == 0
    assert outcome.report.completed == n_requests
    return outcome.report


@pytest.fixture(scope="module")
def served_split():
    return load_dataset("digits", n_train=128, n_test=128, seed=SEED)


@pytest.fixture(scope="module")
def store(served_split):
    store = ModelStore(calibration_data={"digits": served_split.train.images})
    for precision in BATCHED_PRECISIONS:
        store.warm(NETWORK, precision)
    return store


@pytest.mark.parametrize("precision", BATCHED_PRECISIONS)
def test_dynamic_batching_doubles_unbatched_throughput(store, served_split, precision):
    """Closed loop, 192 requests, 4 workers, concurrency 64: the best of
    max-batch 8 and 32 sustains >= 2x the img/s of max-batch 1."""
    throughput = {}
    for max_batch in (1, 8, 32):
        server = InferenceServer(
            store, workers=4, max_batch_size=max_batch,
            max_delay_ms=2.0, max_queue_depth=512,
        )
        with server:
            report = _closed_loop(
                server, served_split.test.images, precision,
                n_requests=192, concurrency=64,
            )
        throughput[max_batch] = report.throughput_ips
    speedup = max(throughput[8], throughput[32]) / throughput[1]
    assert speedup >= 2.0, (
        f"{precision}: dynamic batching {speedup:.2f}x unbatched "
        f"({throughput})"
    )


@needs_four_cpus
def test_four_replicas_serve_one_and_a_half_times_one():
    """The same closed loop through a 1- and a 4-replica fleet."""
    images = load_dataset("digits", n_train=64, n_test=128, seed=SEED).test.images
    throughput = {}
    for replicas in (1, 4):
        fleet = FleetServer(FleetConfig(
            replicas=replicas, max_batch_size=8,
            warm=[(NETWORK, "fixed8")], calibration_images=32, seed=SEED,
        ))
        fleet.start()
        try:
            started = time.perf_counter()
            _closed_loop(fleet, images, "fixed8", n_requests=256, concurrency=64)
            throughput[replicas] = 256 / (time.perf_counter() - started)
        finally:
            fleet.stop()
        assert fleet.restarts == 0
    speedup = throughput[4] / throughput[1]
    assert speedup >= 1.5, (
        f"4 replicas gave {speedup:.2f}x one on {CPUS} CPUs "
        f"({throughput[1]:.1f} -> {throughput[4]:.1f} img/s)"
    )


@needs_four_cpus
def test_four_sweep_workers_halve_sequential_wall_time(tmp_path):
    """Five precision points, cold: 4 worker processes vs in-process."""
    specs = ["float32", "fixed8", "fixed4", "pow2", "binary"]

    def sweep():
        split = load_dataset("digits", n_train=512, n_test=256, seed=SEED)
        config = SweepConfig(float_epochs=3, qat_epochs=4, batch_size=32, seed=SEED)
        return PrecisionSweep(
            functools.partial(build_network, NETWORK, SEED), split, config
        )

    started = time.perf_counter()
    sweep().run(specs)
    sequential_s = time.perf_counter() - started
    started = time.perf_counter()
    sweep().run(specs, workers=4, cache=str(tmp_path / "sweep-cache"))
    parallel_s = time.perf_counter() - started
    speedup = sequential_s / parallel_s
    assert speedup >= 2.0, (
        f"4 sweep workers gave {speedup:.2f}x on {CPUS} CPUs "
        f"(seq {sequential_s:.2f}s vs par {parallel_s:.2f}s)"
    )
