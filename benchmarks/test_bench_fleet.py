"""Benchmark: sharded fleet throughput scaling vs a single replica.

Serves the same closed-loop load through a 1-replica and a 4-replica
fleet and asserts the headline scaling claim: four replica processes
sustain at least 1.5x the img/s of one (process sharding buys real
parallelism on top of in-process batching because each replica runs
its forward passes in its own interpreter — no GIL sharing).

The scaling assertion, like ``parallel.speedup``, only runs on hosts
with >= 4 CPUs; a single-core container cannot run four forward passes
at once no matter how the work is sharded, so the whole benchmark
skips there.  Responses must be bitwise identical across fleet sizes —
sharding is a deployment knob, never an accuracy knob.
"""

import os
import time

import numpy as np
import pytest

from repro.data import load_dataset
from repro.serve import FleetConfig, FleetServer, run_closed_loop

from benchmarks.conftest import save_result

NETWORK = "lenet_small"
PRECISION = "fixed8"
N_REQUESTS = 256
CONCURRENCY = 64
MAX_BATCH = 8
CALIBRATION = 32
SEED = 0

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="fleet scaling needs >= 4 CPUs to mean anything",
)


def _measure(images, replicas):
    fleet = FleetServer(FleetConfig(
        replicas=replicas,
        max_batch_size=MAX_BATCH,
        warm=[(NETWORK, PRECISION)],
        calibration_images=CALIBRATION,
        seed=SEED,
    ))
    fleet.start()
    try:
        started = time.perf_counter()
        outcome = run_closed_loop(
            fleet, images, NETWORK, PRECISION,
            n_requests=N_REQUESTS, concurrency=CONCURRENCY,
        )
        wall = time.perf_counter() - started
    finally:
        fleet.stop()
    assert outcome.client_errors == 0
    assert outcome.lost == 0
    assert outcome.report.completed == N_REQUESTS
    assert fleet.restarts == 0
    # sample responses for the cross-size parity check
    rng = np.random.default_rng(1)
    probe = rng.normal(size=(1, 28, 28)).astype(np.float32)
    return N_REQUESTS / wall, outcome.report, probe


def _probe_logits(replicas, probe):
    fleet = FleetServer(FleetConfig(
        replicas=replicas,
        max_batch_size=MAX_BATCH,
        warm=[(NETWORK, PRECISION)],
        calibration_images=CALIBRATION,
        seed=SEED,
    ))
    fleet.start()
    try:
        futures = [
            fleet.submit(probe, NETWORK, PRECISION) for _ in range(replicas)
        ]
        return [future.result(timeout=60.0).logits for future in futures]
    finally:
        fleet.stop()


def test_bench_fleet(results_dir):
    split = load_dataset("digits", n_train=64, n_test=128, seed=SEED)
    images = split.test.images

    tput_1, report_1, probe = _measure(images, replicas=1)
    tput_4, report_4, _ = _measure(images, replicas=4)
    speedup = tput_4 / tput_1

    # every replica of every fleet size answers bitwise identically
    logits = _probe_logits(1, probe) + _probe_logits(4, probe)
    for other in logits[1:]:
        np.testing.assert_array_equal(logits[0], other)

    cpus = os.cpu_count() or 1
    lines = [
        f"Fleet scaling: {NETWORK} at {PRECISION}, {N_REQUESTS} requests, "
        f"concurrency {CONCURRENCY} ({cpus} CPUs)",
        "",
        f"{'fleet':<16} {'img/s':>10} {'p99 ms':>10}",
        f"{'1 replica':<16} {tput_1:>10.1f} {report_1.latency_ms_p99:>10.2f}",
        f"{'4 replicas':<16} {tput_4:>10.1f} {report_4.latency_ms_p99:>10.2f}",
        "",
        f"speedup (4/1):   {speedup:.2f}x",
        "responses bitwise-identical across fleet sizes: yes",
    ]
    save_result(results_dir, "fleet.txt", "\n".join(lines))

    assert speedup >= 1.5, (
        f"expected >= 1.5x throughput from 4 replicas on {cpus} CPUs, "
        f"got {speedup:.2f}x ({tput_1:.1f} -> {tput_4:.1f} img/s)"
    )
