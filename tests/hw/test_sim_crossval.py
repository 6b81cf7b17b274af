"""Cross-validation and determinism guarantees of ``repro.hw.sim``.

The headline contract of the simulator (ISSUE 6 / ROADMAP): under the
paper's operating assumption (DMA fully hidden), simulated energy/image
must agree with the analytical ``Accelerator``+``Schedule`` numbers
within 5 % for every Table-III precision, and the event trace must be
bitwise deterministic — same digest at any ``PYTHONHASHSEED``.
"""

import os
import subprocess
import sys

import pytest

from repro.core.precision import PAPER_PRECISIONS, PrecisionSpec
from repro.errors import ConfigError
from repro.hw import Accelerator, EnergyModel, SimConfig
from repro.hw.scheduler import TileScheduler
from repro.hw.sim import STALL_CAUSES, TileSimulator
from repro.zoo import build_network, network_info

#: documented tolerance policy (docs/hw_sim.md): energy within 5 %,
#: cycles within 1 % (the only cycle difference is per-chunk rounding)
ENERGY_TOLERANCE_PCT = 5.0
CYCLE_TOLERANCE_PCT = 1.0


@pytest.fixture(scope="module")
def lenet_workload():
    info = network_info("lenet")
    return build_network("lenet", seed=0), info.input_shape


@pytest.mark.parametrize(
    "key", [spec.key for spec in PAPER_PRECISIONS]
)
def test_sim_matches_analytical_for_table3_precision(key, lenet_workload):
    network, input_shape = lenet_workload
    accelerator = Accelerator.for_precision(key)
    schedule = TileScheduler(accelerator).schedule(network, input_shape)
    report = TileSimulator(accelerator, schedule).run()

    assert report.analytical_cycles == schedule.total_cycles
    assert abs(report.cycle_gap_pct) <= CYCLE_TOLERANCE_PCT
    assert abs(report.energy_gap_pct) <= ENERGY_TOLERANCE_PCT
    # the sim only refines the analytical number downward (stall
    # cycles stop charging switching power), never above it
    assert report.energy_uj <= report.analytical_energy_uj
    assert 0.0 <= report.utilization <= 1.0
    # identity: every cycle is attributed exactly once
    assert report.busy_cycles + report.stall_cycles == report.total_cycles


@pytest.mark.parametrize("network_name", ["lenet", "convnet", "alex"])
def test_sim_matches_analytical_across_paper_networks(network_name):
    info = network_info(network_name)
    network = build_network(network_name, seed=0)
    report = EnergyModel().simulate(
        network, info.input_shape, PAPER_PRECISIONS[3]  # fixed8
    )
    assert abs(report.energy_gap_pct) <= ENERGY_TOLERANCE_PCT
    assert abs(report.cycle_gap_pct) <= CYCLE_TOLERANCE_PCT


def test_simulate_refuses_a_per_layer_spec():
    """One datapath width at a time: a per-layer spec would be priced at
    its widest width (fixed8's energy for fixed:2,4,8,8:8)."""
    info = network_info("lenet_small")
    spec = PrecisionSpec.parse("fixed:2,4,8,8:8")
    model = EnergyModel()
    assert not model.simulable(spec) and model.simulable(PAPER_PRECISIONS[3])
    with pytest.raises(ConfigError, match="one datapath width") as raised:
        model.simulate(build_network("lenet_small"), info.input_shape, spec)
    assert raised.value.field == "precision"


def test_repeated_runs_identical_trace_digest(lenet_workload):
    network, input_shape = lenet_workload
    accelerator = Accelerator.for_precision("fixed8")
    schedule = TileScheduler(accelerator).schedule(network, input_shape)
    first = TileSimulator(accelerator, schedule).run()
    second = TileSimulator(accelerator, schedule).run()
    assert first.trace_digest == second.trace_digest
    assert first.total_cycles == second.total_cycles
    assert first.energy_uj == second.energy_uj


_DIGEST_SCRIPT = """
from repro.hw import Accelerator
from repro.hw.scheduler import TileScheduler
from repro.hw.sim import TileSimulator
from repro.zoo import build_network, network_info

info = network_info("lenet_small")
accelerator = Accelerator.for_precision("fixed8")
schedule = TileScheduler(accelerator).schedule(
    build_network("lenet_small", seed=0), info.input_shape
)
print(TileSimulator(accelerator, schedule).run().trace_digest)
"""


def test_trace_digest_stable_across_hash_seeds():
    """Two interpreters with different PYTHONHASHSEED agree bitwise."""
    digests = []
    for hash_seed in ("0", "424242"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in ("src", env.get("PYTHONPATH")) if part
        )
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        )
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]
    assert len(digests[0]) == 64  # a real sha256, not an empty print


def test_finite_bandwidth_exposes_dma_stalls(lenet_workload):
    network, input_shape = lenet_workload
    accelerator = Accelerator.for_precision("fixed8")
    schedule = TileScheduler(accelerator).schedule(network, input_shape)
    hidden = TileSimulator(accelerator, schedule).run()
    starved = TileSimulator(
        accelerator, schedule, SimConfig(bandwidth_gbps=2.0)
    ).run()
    assert hidden.stalls["dma_wait"] == 0
    assert starved.stalls["dma_wait"] > 0
    assert starved.total_cycles > hidden.total_cycles
    assert starved.utilization < hidden.utilization
    assert not starved.roofline.compute_bound
    assert hidden.roofline.compute_bound


def test_stall_accounting_is_complete(lenet_workload):
    network, input_shape = lenet_workload
    accelerator = Accelerator.for_precision("fixed16")
    schedule = TileScheduler(accelerator).schedule(network, input_shape)
    report = TileSimulator(
        accelerator, schedule, SimConfig(bandwidth_gbps=8.0)
    ).run()
    assert set(report.stalls) == set(STALL_CAUSES)
    for layer in report.layers:
        assert layer.busy_cycles + layer.stall_cycles == layer.cycles
    assert sum(layer.cycles for layer in report.layers) == \
        report.total_cycles


def test_energy_components_sum_to_total(lenet_workload):
    network, input_shape = lenet_workload
    report = EnergyModel().simulate(
        network, input_shape, PAPER_PRECISIONS[2]  # fixed16
    )
    assert sum(report.energy_by_component_uj.values()) == \
        pytest.approx(report.energy_uj, rel=1e-9)
    assert sum(layer.energy_uj for layer in report.layers) == \
        pytest.approx(report.energy_uj, rel=1e-9)


def test_sim_metrics_and_json_round_trip(lenet_workload):
    import json

    from repro import obs

    network, input_shape = lenet_workload
    metrics = obs.MetricsRegistry()
    previous = obs.set_metrics(metrics)
    try:
        report = EnergyModel().simulate(
            network, input_shape, PAPER_PRECISIONS[3]
        )
    finally:
        obs.set_metrics(previous)
    snapshot = metrics.snapshot()
    assert snapshot["counters"]["sim.runs"] == 1
    assert snapshot["counters"]["sim.events"] == report.events_processed
    assert snapshot["counters"]["sim.cycles"] == report.total_cycles
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["trace_digest"] == report.trace_digest
    assert payload["stalls"]["startup"] == report.stalls["startup"]
