"""End-to-end parallel sweep: parity, determinism, cache semantics."""

import functools

import pytest

from repro.core.precision import get_precision
from repro.core.sweep import PrecisionSweep, SweepConfig
from repro.data import load_dataset
from repro.obs.metrics import get_metrics
from repro.parallel import SweepCache
from tests.conftest import make_tiny_cnn

SPECS = ["float32", "fixed8", "binary"]


def tiny_config(**overrides):
    defaults = dict(float_epochs=1, qat_epochs=1, batch_size=16, seed=0)
    defaults.update(overrides)
    return SweepConfig(**defaults)


@pytest.fixture(scope="module")
def split():
    return load_dataset("digits", n_train=80, n_test=60, seed=0)


def make_sweep(split, **config_overrides):
    return PrecisionSweep(
        functools.partial(make_tiny_cnn, 5), split, tiny_config(**config_overrides)
    )


@pytest.fixture(scope="module")
def sequential_results(split):
    """The legacy in-process path: run_precision per spec, no cache."""
    sweep = make_sweep(split)
    return [sweep.run_precision(get_precision(key)) for key in SPECS]


def assert_identical(results, reference):
    assert len(results) == len(reference)
    for got, want in zip(results, reference):
        assert got.spec is want.spec
        assert got.accuracy == want.accuracy          # bitwise
        assert got.converged == want.converged
        assert got.history == want.history            # exact float lists


# -- parity -------------------------------------------------------------

def test_run_default_matches_legacy_loop(split, sequential_results):
    assert_identical(make_sweep(split).run(SPECS), sequential_results)


def test_an_uncached_one_worker_run_takes_run_sweep(split, monkeypatch):
    """One sweep path at any worker count: no loop of run()'s own."""
    from repro.parallel import executor

    calls = []
    real = executor.run_sweep

    def spy(sweep, precisions, **kwargs):
        calls.append(kwargs)
        return real(sweep, precisions, **kwargs)

    monkeypatch.setattr(executor, "run_sweep", spy)
    make_sweep(split).run(["float32"])
    assert calls == [dict(workers=1, cache=None, refresh=False)]


def test_workers_one_with_cache_matches_legacy(
    split, sequential_results, tmp_path
):
    cache = SweepCache(str(tmp_path))
    results = make_sweep(split).run(SPECS, workers=1, cache=cache)
    assert_identical(results, sequential_results)
    assert cache.misses >= len(SPECS) and cache.hits == 0


def test_two_workers_bitwise_identical(split, sequential_results, tmp_path):
    results = make_sweep(split).run(
        SPECS, workers=2, cache=str(tmp_path / "c")
    )
    assert_identical(results, sequential_results)


def test_order_independence(split, sequential_results):
    shuffled = ["binary", "float32", "fixed8"]
    results = {r.spec.key: r for r in make_sweep(split).run(shuffled)}
    for want in sequential_results:
        got = results[want.spec.key]
        assert got.accuracy == want.accuracy
        assert got.history == want.history


# -- cache semantics ----------------------------------------------------

def test_second_run_is_served_from_cache(split, sequential_results, tmp_path):
    cache = SweepCache(str(tmp_path))
    make_sweep(split).run(SPECS, workers=2, cache=cache)
    warm = SweepCache(str(tmp_path))
    results = make_sweep(split).run(SPECS, workers=2, cache=warm)
    assert_identical(results, sequential_results)
    assert warm.hits == len(SPECS) and warm.misses == 0
    assert warm.hit_rate == 1.0


def test_refresh_retrains_and_overwrites(split, tmp_path):
    cache = SweepCache(str(tmp_path))
    first = make_sweep(split).run(SPECS, cache=cache)
    refreshed_cache = SweepCache(str(tmp_path))
    refreshed = make_sweep(split).run(
        SPECS, cache=refreshed_cache, refresh=True
    )
    assert refreshed_cache.hits == 0  # no lookups served
    assert_identical(refreshed, first)
    # and the refreshed entries are still readable afterwards
    warm = SweepCache(str(tmp_path))
    assert_identical(make_sweep(split).run(SPECS, cache=warm), first)
    assert warm.hits == len(SPECS)


def test_config_change_invalidates_cache(split, tmp_path):
    cache = SweepCache(str(tmp_path))
    make_sweep(split).run(SPECS, cache=cache)
    other = SweepCache(str(tmp_path))
    make_sweep(split, qat_lr=0.001).run(SPECS, cache=other)
    assert other.hits == 0  # different hyperparams -> different keys


def test_corrupt_entry_is_retrained(split, sequential_results, tmp_path):
    cache = SweepCache(str(tmp_path))
    make_sweep(split).run(SPECS, cache=cache)
    # corrupt the fixed8 entry on disk
    from repro.nn.serialization import state_digest
    from repro.parallel.cache import config_fingerprint, split_fingerprint
    key = cache.point_key(
        state_digest(make_tiny_cnn(5)),
        "fixed8",
        split_fingerprint(split),
        config_fingerprint(tiny_config()),
    )
    path = cache._path(key, ".json")
    with open(path, "w") as handle:
        handle.write("garbage")
    warm = SweepCache(str(tmp_path))
    results = make_sweep(split).run(SPECS, cache=warm)
    assert_identical(results, sequential_results)
    assert warm.misses == 1 and warm.hits == len(SPECS) - 1


# -- graceful degradation ----------------------------------------------

def test_unpicklable_builder_falls_back_sequentially(
    split, sequential_results
):
    sweep = PrecisionSweep(lambda: make_tiny_cnn(5), split, tiny_config())
    with pytest.warns(RuntimeWarning, match="not picklable"):
        results = sweep.run(SPECS, workers=2)
    assert_identical(results, sequential_results)


def test_cache_hit_miss_counters_feed_metrics(split, tmp_path):
    metrics = get_metrics()
    before_miss = metrics.counter("parallel.cache.misses").value
    before_hit = metrics.counter("parallel.cache.hits").value
    make_sweep(split).run(SPECS, cache=str(tmp_path))
    make_sweep(split).run(SPECS, cache=str(tmp_path))
    assert metrics.counter("parallel.cache.misses").value == before_miss + 3
    assert metrics.counter("parallel.cache.hits").value == before_hit + 3
