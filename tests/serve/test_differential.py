"""Differential oracle: one seeded trace served three ways, bit for bit.

The same 48 ``lenet_small`` requests over ``fixed8`` and ``fixed4`` go
(a) straight through each servable's own ``forward``, (b) through an
``InferenceServer`` and (c) through a two-replica ``FleetServer`` whose
replica 1 dies mid-trace.  At batch size 1 every path runs the same
frozen model on the same single image, so every served response must
match (a) exactly: the logits bit for bit, the modeled energy, and the
model key.  Each path builds its own cold store (8 calibration images,
seed 0).
"""

import numpy as np
import pytest

from repro.serve import FleetConfig, FleetServer, InferenceServer, ModelStore

NETWORK = "lenet_small"
PRECISIONS = ("fixed8", "fixed4")
N_REQUESTS = 48


def cold_store() -> ModelStore:
    return ModelStore(calibration_images=8, seed=0)


@pytest.fixture(scope="module")
def trace():
    rng = np.random.default_rng(17)
    images = rng.normal(size=(N_REQUESTS, 1, 28, 28)).astype(np.float32)
    picks = rng.integers(len(PRECISIONS), size=N_REQUESTS)
    return images, [PRECISIONS[pick] for pick in picks]


@pytest.fixture(scope="module")
def oracle(trace):
    """Path (a): (logits, energy per image) from each servable directly."""
    images, precisions = trace
    store = cold_store()
    servables = {precision: store.get(NETWORK, precision)
                 for precision in PRECISIONS}
    return [
        (servables[precision].forward(image[None])[0],
         servables[precision].energy_uj_per_image)
        for image, precision in zip(images, precisions)
    ]


def replay(server, trace, timeout):
    images, precisions = trace
    futures = [
        server.submit(image, NETWORK, precision)
        for image, precision in zip(images, precisions)
    ]
    return [future.result(timeout=timeout) for future in futures]


def assert_matches_oracle(results, trace, oracle):
    _, precisions = trace
    assert len(results) == N_REQUESTS
    for result, precision, (logits, energy) in zip(results, precisions, oracle):
        assert np.array_equal(result.logits, logits)
        assert result.energy_uj == energy
        assert (result.model_key.network, result.model_key.precision) == (
            NETWORK, precision
        )
        assert result.batch_size == 1


def test_in_process_server_matches_the_servable(trace, oracle):
    with InferenceServer(cold_store(), workers=1, max_batch_size=1) as server:
        results = replay(server, trace, timeout=60.0)
    assert_matches_oracle(results, trace, oracle)


def test_fleet_with_a_crashed_replica_matches_the_servable(trace, oracle):
    fleet = FleetServer(FleetConfig(
        replicas=2,
        max_batch_size=1,
        calibration_images=8,
        seed=0,
        warm=[(NETWORK, precision) for precision in PRECISIONS],
        crash_replica_after=(1, 2),
    ))
    fleet.start()
    try:
        results = replay(fleet, trace, timeout=120.0)
    finally:
        fleet.stop()
    assert_matches_oracle(results, trace, oracle)
    report = fleet.fleet_report()
    assert report.restarts >= 1
    assert report.aggregate.completed == N_REQUESTS
    assert report.replica_compute.completed == N_REQUESTS
