"""Benchmark: mixed-precision search wall time and warm-cache resume.

Runs one cold two-generation search on the tiny task, then replays it
(``resume=True``) against the warm salted cache and asserts at least
90% of evaluations are served without retraining and the frontiers are
bitwise identical.  Machine-readable metrics land in
``results/search.json``.
"""

import json
import os
import time

from repro.core.sweep import SweepConfig
from repro.search import PrecisionSearch, SearchConfig, SearchSpace

from benchmarks.conftest import save_result

SEED = 0
BUDGET_UJ = 50.0


def _make_config():
    return SearchConfig(
        space=SearchSpace(
            task="lenet_small",
            width_choices=(0.5, 1.0),
            weight_bit_choices=(2, 4, 8),
        ),
        generations=2,
        population=3,
        survivors=3,
        energy_budget_uj=BUDGET_UJ,
        seed=SEED,
        sweep=SweepConfig(float_epochs=1, qat_epochs=1, seed=SEED),
        n_train=256,
        n_test=96,
    )


def test_bench_search(results_dir, tmp_path):
    cache_dir = str(tmp_path / "search-cache")

    started = time.perf_counter()
    cold = PrecisionSearch(_make_config(), cache=cache_dir).run()
    t_cold = time.perf_counter() - started

    started = time.perf_counter()
    warm = PrecisionSearch(_make_config(), cache=cache_dir).run(resume=True)
    t_warm = time.perf_counter() - started

    assert [(p.label, p.accuracy, p.energy_uj) for p in warm.frontier] == [
        (p.label, p.accuracy, p.energy_uj) for p in cold.frontier
    ]
    requests = warm.cache_hits + warm.cache_misses
    hit_rate = warm.cache_hits / requests if requests else 0.0
    assert hit_rate >= 0.9, (
        f"warm search cache served only {warm.cache_hits}/{requests} points"
    )
    assert cold.dominates_fixed_grid

    payload = {
        "schema": 1,
        "task": "lenet_small",
        "evaluated": len(cold.evaluated),
        "frontier": len(cold.frontier),
        "dominating": len(cold.dominating),
        "t_cold_s": round(t_cold, 4),
        "t_warm_s": round(t_warm, 4),
        "cache_hit_rate": round(hit_rate, 4),
    }
    with open(os.path.join(results_dir, "search.json"), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    save_result(results_dir, "search.txt", "\n".join([
        "Mixed-precision & width search benchmark (lenet_small, "
        f"budget {BUDGET_UJ:g} uJ)",
        f"  evaluated          : {payload['evaluated']} candidates",
        f"  frontier           : {payload['frontier']} point(s), "
        f"{payload['dominating']} dominating the fixed grid",
        f"  cold search        : {t_cold:.2f} s",
        f"  warm resume        : {t_warm:.2f} s",
        f"  warm cache hit rate: {100 * hit_rate:.0f}%",
    ]))
