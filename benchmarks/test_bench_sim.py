"""Benchmark: event-driven simulation of LeNet across Table III.

Runs the cycle-level tile simulator (``repro.hw.sim``) over every
paper precision on LeNet and records the simulated cycles, energy and
the gap to the analytical model.  Hardware-only — exact in every mode.

The per-precision energy gaps re-assert the headline
5% cross-validation tolerance so a model drift shows up here as well
as in tier-1.
"""

from repro.core.precision import PAPER_PRECISIONS
from repro.hw import Accelerator
from repro.hw.scheduler import TileScheduler
from repro.hw.sim import TileSimulator
from repro.zoo import build_network, network_info

from benchmarks.conftest import save_result

ENERGY_TOLERANCE_PCT = 5.0


def _simulate_all():
    info = network_info("lenet")
    network = build_network("lenet", seed=0)
    rows = []
    for spec in PAPER_PRECISIONS:
        accelerator = Accelerator.for_precision(spec.key)
        schedule = TileScheduler(accelerator).schedule(
            network, info.input_shape
        )
        report = TileSimulator(accelerator, schedule).run()
        rows.append(
            {
                "key": spec.key,
                "label": spec.label,
                "cycles": report.total_cycles,
                "energy_uj": report.energy_uj,
                "energy_gap_pct": report.energy_gap_pct,
                "utilization": report.utilization,
                "events": report.events_processed,
            }
        )
    return rows


def _format(rows) -> str:
    lines = [
        "Simulated LeNet, Table III precisions",
        f"{'precision':<16}{'cycles':>10}{'energy (uJ)':>14}"
        f"{'gap %':>8}{'util %':>8}{'events':>9}",
        "-" * 65,
    ]
    for row in rows:
        lines.append(
            f"{row['label']:<16}{row['cycles']:>10}"
            f"{row['energy_uj']:>14.2f}{row['energy_gap_pct']:>8.2f}"
            f"{100 * row['utilization']:>8.1f}{row['events']:>9}"
        )
    return "\n".join(lines)


def test_bench_sim(benchmark, results_dir):
    rows = benchmark.pedantic(_simulate_all, rounds=3, iterations=1)
    save_result(results_dir, "sim.txt", _format(rows))

    for row in rows:
        assert abs(row["energy_gap_pct"]) <= ENERGY_TOLERANCE_PCT, row["key"]
        assert 0.0 < row["utilization"] <= 1.0, row["key"]
    # energy must fall monotonically down the fixed-point column, as
    # in the analytical Table IV
    fixed = [r["energy_uj"] for r in rows
             if r["key"] in ("fixed32", "fixed16", "fixed8", "fixed4")]
    assert fixed == sorted(fixed, reverse=True)
