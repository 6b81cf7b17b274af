"""Benchmark: process-parallel sweep speedup and cache resume.

Times one cold sequential sweep (workers=1, no cache) against a cold
4-worker run over the same five precision points, asserts the parallel
results are bitwise identical, then re-runs against the warm cache and
asserts at least 90% of points are served without retraining.

The >= 2x speedup claim is asserted only on hosts with >= 4 CPUs;
single-core containers still run the determinism and cache-resume
checks but skip the timing assertion (process parallelism cannot beat
the sequential path without cores to run on).

Machine-readable metrics land in ``results/parallel_sweep.json``.
"""

import functools
import json
import os
import time

from repro.core.sweep import PrecisionSweep, SweepConfig
from repro.data import load_dataset
from repro.parallel import SweepCache
from repro.zoo import build_network

from benchmarks.conftest import save_result

SPECS = ["float32", "fixed8", "fixed4", "pow2", "binary"]
WORKERS = 4
NETWORK = "lenet_small"
SEED = 0


def _make_sweep():
    split = load_dataset("digits", n_train=512, n_test=256, seed=SEED)
    config = SweepConfig(float_epochs=3, qat_epochs=4, batch_size=32, seed=SEED)
    builder = functools.partial(build_network, NETWORK, SEED)
    return PrecisionSweep(builder, split, config)


def _assert_identical(parallel, sequential):
    assert len(parallel) == len(sequential)
    for got, want in zip(parallel, sequential):
        assert got.spec is want.spec
        assert got.accuracy == want.accuracy, got.spec.key
        assert got.converged == want.converged
        assert got.history == want.history, got.spec.key


def test_bench_parallel_sweep(results_dir, tmp_path):
    cache_dir = str(tmp_path / "sweep-cache")

    started = time.perf_counter()
    sequential = _make_sweep().run(SPECS)
    t_seq = time.perf_counter() - started

    started = time.perf_counter()
    parallel = _make_sweep().run(SPECS, workers=WORKERS, cache=cache_dir)
    t_par = time.perf_counter() - started
    _assert_identical(parallel, sequential)

    warm = SweepCache(cache_dir)
    started = time.perf_counter()
    resumed = _make_sweep().run(SPECS, workers=WORKERS, cache=warm)
    t_warm = time.perf_counter() - started
    _assert_identical(resumed, sequential)
    assert warm.hit_rate >= 0.9, (
        f"warm cache served only {warm.hits}/{warm.requests} points"
    )

    speedup = t_seq / t_par
    cpus = os.cpu_count() or 1
    payload = {
        "schema": 1,
        "network": NETWORK,
        "points": len(SPECS),
        "workers": WORKERS,
        "cpu_count": cpus,
        "t_seq_s": round(t_seq, 4),
        "t_par_s": round(t_par, 4),
        "t_warm_s": round(t_warm, 4),
        "speedup": round(speedup, 4),
        "cache_hit_rate": round(warm.hit_rate, 4),
    }
    with open(os.path.join(results_dir, "parallel_sweep.json"), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    lines = [
        f"Parallel sweep: {NETWORK} on digits, {len(SPECS)} precision "
        f"points, {WORKERS} workers ({cpus} CPUs)",
        "",
        f"{'run':<24} {'wall s':>8}",
        f"{'sequential (cold)':<24} {t_seq:>8.2f}",
        f"{'parallel (cold)':<24} {t_par:>8.2f}",
        f"{'parallel (warm cache)':<24} {t_warm:>8.2f}",
        "",
        f"speedup (seq/par):      {speedup:.2f}x",
        f"warm cache hit rate:    {100 * warm.hit_rate:.0f}%",
        "results bitwise-identical across all three runs: yes",
    ]
    save_result(results_dir, "parallel_sweep.txt", "\n".join(lines))

    if cpus >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x parallel speedup on {cpus} CPUs, "
            f"got {speedup:.2f}x (seq {t_seq:.2f}s vs par {t_par:.2f}s)"
        )
    # the warm run never retrains, so it must beat the cold sequential
    # run regardless of core count
    assert t_warm < t_seq
