"""PrecisionSearch end-to-end: frontiers, reproducibility, publishing.

The module-scoped ``searched`` fixture runs one real (tiny) search and
every test inspects it, so the expensive part happens once.  Its
configuration is deliberately frozen: seed 0 over lenet_small with
widths {0.5, 1.0} and bits {2, 4, 8} deterministically discovers
scaled/layered points that dominate the fixed paper grid.
"""

import collections
import json
import os
import shutil

import pytest

from repro import obs
from repro.core.precision import get_precision
from repro.core.sweep import SweepConfig
from repro.data import synth_digits
from repro.errors import ConfigError
from repro.hw.energy import EnergyModel
from repro.parallel import SweepCache, executor
from repro.parallel import cache as cache_module
from repro.parallel.cache import config_fingerprint, split_fingerprint
from repro.search import PrecisionSearch, SearchConfig, SearchSpace
from repro.search import engine

BUDGET_UJ = 50.0


def make_config(**overrides):
    space = SearchSpace(
        task="lenet_small",
        width_choices=(0.5, 1.0),
        weight_bit_choices=(2, 4, 8),
    )
    kwargs = dict(
        space=space,
        generations=2,
        population=3,
        survivors=3,
        energy_budget_uj=BUDGET_UJ,
        seed=0,
        sweep=SweepConfig(float_epochs=1, qat_epochs=1),
        n_train=256,
        n_test=96,
    )
    kwargs.update(overrides)
    return SearchConfig(**kwargs)


def frontier_tuples(result):
    return [(p.label, p.accuracy, p.energy_uj) for p in result.frontier]


@pytest.fixture(scope="module")
def cache_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("search-cache"))


@pytest.fixture(scope="module")
def searched(cache_root):
    search = PrecisionSearch(make_config(), cache=cache_root)
    return search, search.run()


def artifact_digests(published):
    """label -> artifact digest of one ``PrecisionSearch.publish``."""
    return {label: m.digest for label, m in published["artifacts"].items()}


@pytest.fixture(scope="module")
def cold_digests(searched, tmp_path_factory):
    search, result = searched
    return artifact_digests(search.publish(
        result, str(tmp_path_factory.mktemp("cold-registry"))
    ))


def copy_cache(cache_root, tmp_path):
    """A private copy of the shared cache, for tests that damage it."""
    root = str(tmp_path / "cache")
    shutil.copytree(cache_root, root)
    return root


def state_path(root, key):
    return os.path.join(root, key[:2], key + ".npz")


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so the returned list counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_search_produces_an_energy_sorted_frontier(searched):
    _, result = searched
    assert result.generations_run == 2
    assert len(result.frontier) >= 2
    energies = [p.energy_uj for p in result.frontier]
    assert energies == sorted(energies)
    # the budget filtered the frontier
    assert all(p.energy_uj <= BUDGET_UJ for p in result.frontier)
    # anchors plus bred candidates were all evaluated
    anchors = len(result.grid_frontier)
    assert len(result.evaluated) > anchors


def test_search_discovers_points_dominating_the_fixed_grid(searched):
    _, result = searched
    assert result.dominates_fixed_grid
    grid_labels = {p.label for p in result.grid_frontier}
    assert all(p.label not in grid_labels for p in result.dominating)


def test_search_writes_resume_state(searched):
    search, result = searched
    assert result.state_path is not None and os.path.exists(result.state_path)
    with open(result.state_path) as handle:
        state = json.load(handle)
    assert state["fingerprint"] == search.space.fingerprint()
    assert state["generations_done"] == result.generations_run


def test_sim_check_skips_the_points_the_simulator_refuses(searched):
    search, result = searched
    specs = {
        point.label: result.by_label(point.label).candidate.spec()
        for point in result.frontier
    }
    assert set(search._sim_check(result)) == {
        label for label, spec in specs.items() if EnergyModel.simulable(spec)
    }


def test_resume_replays_bitwise_from_cache(searched, cache_root):
    _, first = searched
    resumed = PrecisionSearch(make_config(), cache=cache_root).run(resume=True)
    assert frontier_tuples(resumed) == frontier_tuples(first)
    assert resumed.cache_misses == 0
    assert resumed.cache_hits > 0


def test_replay_leaves_its_state_file_untouched(searched, cache_root, monkeypatch):
    """The state file already records every generation a replay walks,
    so the replay writes nothing (mtimes, not inodes: the filesystem may
    reuse an inode number across two replaces)."""
    search, _ = searched
    path = search.state_path()
    before = os.stat(path).st_mtime_ns
    writes = count_calls(monkeypatch, engine, "atomic_write")
    resumed = PrecisionSearch(make_config(), cache=cache_root).run(resume=True)
    assert resumed.cache_misses == 0
    assert writes == []
    assert os.stat(path).st_mtime_ns == before


def test_replay_records_generations_its_state_file_lacks(
    searched, cache_root, tmp_path, monkeypatch
):
    _, first = searched
    replay = PrecisionSearch(make_config(), cache=copy_cache(cache_root, tmp_path))
    with open(replay.state_path()) as handle:
        state = json.load(handle)
    state["generations_done"] = 0
    with open(replay.state_path(), "w") as handle:
        json.dump(state, handle)
    writes = count_calls(monkeypatch, engine, "atomic_write")
    replay.run(resume=True)
    assert len(writes) == first.generations_run  # generations 1.., not 0
    with open(replay.state_path()) as handle:
        assert json.load(handle)["generations_done"] == first.generations_run


def test_warm_replay_reads_no_states_and_keys_each_sweep_once(
    searched, cache_root, monkeypatch
):
    state_reads = count_calls(monkeypatch, SweepCache, "get_state")
    sweeps = count_calls(monkeypatch, executor, "run_sweep")
    fingerprints = count_calls(monkeypatch, executor, "split_fingerprint")
    resumed = PrecisionSearch(make_config(), cache=cache_root).run(resume=True)
    assert resumed.cache_misses == 0
    assert state_reads == []
    # one key computation (one split_fingerprint call, which may return
    # the split's stored digest) per run_sweep call
    assert sweeps and len(fingerprints) == len(sweeps)


def test_warm_replay_hashes_no_split_and_builds_one_network_per_name(
    searched, cache_root, monkeypatch
):
    search, _ = searched
    # the cold search in this process hashed the split and priced every
    # candidate on its energy model, which the replay is handed
    hashed = count_calls(monkeypatch, cache_module, "_hash_split")
    schedules = count_calls(monkeypatch, EnergyModel, "evaluate")
    builds = count_calls(monkeypatch, engine, "build_network")
    resumed = PrecisionSearch(
        make_config(), cache=cache_root, energy_model=search.energy_model
    ).run(resume=True)
    assert resumed.cache_misses == 0
    assert hashed == []
    assert schedules == []
    # per network name: one build, digested for the cache keys and
    # priced on
    assert collections.Counter(args[0] for args in builds) == {
        entry.candidate.network: 1 for entry in resumed.evaluated
    }


def test_warm_replay_synthesizes_no_dataset(searched, cache_root, monkeypatch):
    # the cold search in this process already synthesized the split
    renders = count_calls(monkeypatch, synth_digits, "synthesize")
    resumed = PrecisionSearch(make_config(), cache=cache_root).run(resume=True)
    assert resumed.cache_misses == 0
    assert renders == []


def test_perfbench_search_keys_keep_their_pinned_values(tmp_path):
    """Storing the space fingerprint, split digest and init digest
    changes no key of perfbench's ``train`` search at seed 101 (same
    space, split and sweep budget).  The key itself also mixes in
    ``repro.__version__``, so the test pins the parts and recomputes
    the key from them."""
    search = PrecisionSearch(
        make_config(
            sweep=SweepConfig(float_epochs=1, qat_epochs=1, seed=101),
            dataset_seed=101,
        ),
        cache=str(tmp_path),
    )
    space_fp = search.space.fingerprint()
    assert space_fp == (
        "d961cc7c251f11c73ffb0747c56c21636c3af1138b14fa12dbe354f8bff2fe30"
    )
    split_fp = split_fingerprint(search.split)
    assert split_fp == (
        "5c414c28fafe2e3cc35f758d73840e57ab57600ea07655dc852c271ece91ea68"
    )
    sweep = search._sweep("lenet_small")
    config_fp = config_fingerprint(sweep.config)
    assert config_fp == (
        "2e16fa1d57965f150e3f209e28e1ef8161c0e588babce0b470bbe1f490c7fc9c"
    )
    for _ in range(2):  # derived, then stored
        init_digest = sweep.init_digest()
        assert init_digest == (
            "95c634d9fe7b3ca54d31166a42f64cbf54fbcf3dcd98251adddd5bff556d043f"
        )
        keys = executor._point_keys(
            sweep, [get_precision("fixed8")], search.cache
        )
        assert search.cache.salt == space_fp
        assert keys["fixed8"] == search.cache.point_key(
            init_digest, "fixed8", split_fp, config_fp
        )


def test_replay_counts_a_result_only_entry_once_as_a_miss(
    searched, cache_root, tmp_path
):
    from repro.obs.metrics import get_metrics

    _, first = searched
    root = copy_cache(cache_root, tmp_path)
    # fixed8 shares its sweep call with the cached float baseline
    key = first.by_label("lenet_small|fixed8").cache_key
    os.remove(state_path(root, key))
    metrics = get_metrics()
    hits_before = metrics.counter("parallel.cache.hits").value
    misses_before = metrics.counter("parallel.cache.misses").value
    resumed = PrecisionSearch(make_config(), cache=root).run(resume=True)
    assert frontier_tuples(resumed) == frontier_tuples(first)
    assert resumed.cache_misses == 1
    assert resumed.cache_hits == len(resumed.evaluated) - 1
    assert metrics.counter("parallel.cache.misses").value - misses_before == 1
    assert (metrics.counter("parallel.cache.hits").value - hits_before
            == resumed.cache_hits)
    assert os.path.exists(state_path(root, key))  # retrained and re-stored


def test_publish_after_replay_matches_the_cold_digests(
    cache_root, cold_digests, tmp_path
):
    search = PrecisionSearch(make_config(), cache=cache_root)
    published = search.publish(
        search.run(resume=True), str(tmp_path / "registry")
    )
    assert artifact_digests(published) == cold_digests


def test_publish_after_replay_retrains_a_corrupt_state(
    searched, cache_root, cold_digests, tmp_path, caplog
):
    _, first = searched
    root = copy_cache(cache_root, tmp_path)
    key = next(
        first.by_label(p.label).cache_key for p in first.frontier
        if first.by_label(p.label).candidate.spec_key != "float32"
    )
    with open(state_path(root, key), "wb") as handle:
        handle.write(b"junk")
    search = PrecisionSearch(make_config(), cache=root)
    resumed = search.run(resume=True)
    assert resumed.cache_misses == 0  # the replay only checks existence
    with caplog.at_level("WARNING", logger="repro.parallel.cache"):
        published = search.publish(resumed, str(tmp_path / "registry"))
    assert "corrupt weights" in caplog.text
    assert artifact_digests(published) == cold_digests
    assert SweepCache(root).get_state(key) is not None  # stored again


def test_dataset_load_is_a_search_dataset_span():
    tracer = obs.Tracer()
    previous = obs.set_tracer(tracer)
    try:
        PrecisionSearch(make_config(n_train=64, n_test=32))
    finally:
        obs.set_tracer(previous)
    (span,) = tracer.records("search.dataset")
    assert span.tags == {"dataset": "digits", "n_train": 64, "n_test": 32}


def test_resume_requires_a_cache():
    with pytest.raises(ConfigError, match="resume"):
        PrecisionSearch(make_config(), cache=None).run(resume=True)


def test_resume_rejects_a_different_search_space(searched, cache_root):
    search, _ = searched
    other = PrecisionSearch(
        make_config(space=SearchSpace(
            task="lenet_small",
            width_choices=(0.5, 1.0),
            weight_bit_choices=(4, 8),
        )),
        cache=cache_root,
    )
    # plant the first search's state where the second expects its own
    with open(search.state_path()) as handle:
        state = json.load(handle)
    with open(other.state_path(), "w") as handle:
        json.dump(state, handle)
    with pytest.raises(ConfigError, match="fingerprint"):
        other.run(resume=True)


@pytest.mark.parametrize("payload", ["{not json", "[1, 2]"])
def test_resume_rejects_a_corrupt_state_file(payload, tmp_path):
    search = PrecisionSearch(make_config(), cache=str(tmp_path))
    with open(search.state_path(), "w") as handle:
        handle.write(payload)
    with pytest.raises(ConfigError, match="delete it") as info:
        search.run(resume=True)
    assert info.value.field == "resume"
    assert search.state_path() in str(info.value)


def test_worker_count_does_not_change_results(tmp_path):
    config = make_config(generations=0, population=2, n_train=192, n_test=64)
    serial = PrecisionSearch(
        make_config(generations=0, population=2, n_train=192, n_test=64),
        cache=str(tmp_path / "c1"),
    ).run()
    config.workers = 3
    parallel = PrecisionSearch(config, cache=str(tmp_path / "c2")).run()
    assert [
        (e.candidate.key, e.result.accuracy, e.energy_uj)
        for e in serial.evaluated
    ] == [
        (e.candidate.key, e.result.accuracy, e.energy_uj)
        for e in parallel.evaluated
    ]


def test_publish_promotes_the_frontier(searched, tmp_path):
    search, result = searched
    published = search.publish(result, str(tmp_path / "registry"))
    assert published["promoted"], published["rejected"]
    channel = published["channel"]
    assert channel.name == "search-lenet_small"
    active = channel.active()
    assert active is not None
    # manifests carry search provenance and the salted cache key
    promoted_labels = {label for label, _ in published["promoted"]}
    for label in promoted_labels:
        manifest = published["artifacts"][label]
        assert manifest.extra["search_fingerprint"] == search.space.fingerprint()
        assert manifest.sweep_cache_key
    # the budget became the promotion gate's absolute cap
    for label, _ in published["promoted"]:
        assert published["artifacts"][label].energy_uj_per_image <= BUDGET_UJ


def test_search_counters_flow_to_metrics(cache_root):
    from repro.obs.metrics import get_metrics

    metrics = get_metrics()
    gen_before = metrics.counter("search.generation").value
    eval_before = metrics.counter("search.evaluated").value
    hits_before = metrics.counter("search.cache_hits").value
    result = PrecisionSearch(make_config(), cache=cache_root).run()
    assert metrics.counter("search.generation").value - gen_before == 3
    assert (metrics.counter("search.evaluated").value - eval_before
            == len(result.evaluated))
    assert metrics.counter("search.cache_hits").value - hits_before > 0
