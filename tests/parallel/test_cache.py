"""Sweep cache: key recipe, hit/miss/refresh semantics, corruption."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.precision import get_precision
from repro.core.sweep import PrecisionResult, PrecisionSweep, SweepConfig
from repro.data import DataSplit, Dataset, load_dataset
from repro.nn.serialization import state_digest
from repro.parallel import cache as cache_module
from repro.parallel.cache import (
    SweepCache,
    config_fingerprint,
    default_cache_dir,
    split_fingerprint,
)
from tests.conftest import make_tiny_cnn


@pytest.fixture()
def cache(tmp_path):
    return SweepCache(str(tmp_path / "sweep-cache"))


def make_result(key="fixed8", accuracy=0.8125):
    return PrecisionResult(
        spec=get_precision(key),
        accuracy=accuracy,
        converged=True,
        history={"val_accuracy": [0.5, 0.75, accuracy]},
    )


# -- key recipe --------------------------------------------------------

def test_point_key_is_stable(cache):
    key = cache.point_key("digest", "fixed8", "split", "config")
    assert key == cache.point_key("digest", "fixed8", "split", "config")
    assert key != cache.point_key("digest", "fixed4", "split", "config")
    assert key != cache.point_key("other", "fixed8", "split", "config")
    assert key != cache.point_key("digest", "fixed8", "other", "config")
    assert key != cache.point_key("digest", "fixed8", "split", "other")


def test_split_fingerprint_tracks_content():
    split_a = load_dataset("digits", n_train=40, n_test=30, seed=0)
    split_b = load_dataset("digits", n_train=40, n_test=30, seed=0)
    split_c = load_dataset("digits", n_train=40, n_test=30, seed=1)
    assert split_fingerprint(split_a) == split_fingerprint(split_b)
    assert split_fingerprint(split_a) != split_fingerprint(split_c)


def test_config_fingerprint_tracks_hyperparams():
    base = SweepConfig()
    assert config_fingerprint(base) == config_fingerprint(SweepConfig())
    assert config_fingerprint(base) != config_fingerprint(SweepConfig(seed=9))
    assert config_fingerprint(base) != config_fingerprint(
        SweepConfig(qat_lr=0.001)
    )


def test_key_recipe_stable_across_processes(tmp_path):
    """The full key recipe must reproduce bit-for-bit in a new process."""
    script = (
        "from repro.core.sweep import SweepConfig\n"
        "from repro.data import load_dataset\n"
        "from repro.nn.serialization import state_digest\n"
        "from repro.parallel.cache import (SweepCache, config_fingerprint,\n"
        "                                  split_fingerprint)\n"
        "from repro.zoo import build_network\n"
        "split = load_dataset('digits', n_train=40, n_test=30, seed=0)\n"
        "cache = SweepCache('unused')\n"
        "print(cache.point_key(state_digest(build_network('lenet_small', 0)),\n"
        "                      'fixed8', split_fingerprint(split),\n"
        "                      config_fingerprint(SweepConfig())))\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    child = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    from repro.zoo import build_network
    split = load_dataset("digits", n_train=40, n_test=30, seed=0)
    expected = SweepCache("unused").point_key(
        state_digest(build_network("lenet_small", 0)),
        "fixed8",
        split_fingerprint(split),
        config_fingerprint(SweepConfig()),
    )
    assert child.stdout.strip() == expected


# -- stored digests ----------------------------------------------------

def count_split_hashes(monkeypatch):
    """Count the SHA-256 passes ``split_fingerprint`` makes over split bytes."""
    hashed = []
    original = cache_module._hash_split

    def counted(split):
        hashed.append(split)
        return original(split)

    monkeypatch.setattr(cache_module, "_hash_split", counted)
    return hashed


def rebuilt(split, **arrays):
    """``split`` in new containers; ``arrays`` replaces e.g. ``test_images``."""
    return DataSplit(*(
        Dataset(
            arrays.get(f"{name}_images", part.images),
            arrays.get(f"{name}_labels", part.labels),
            list(part.class_names),
            part.name,
        )
        for name, part in (
            ("train", split.train), ("val", split.val), ("test", split.test)
        )
    ))


def writable_copy(split):
    return rebuilt(split, **{
        f"{name}_{kind}": np.array(getattr(getattr(split, name), kind))
        for name in ("train", "val", "test")
        for kind in ("images", "labels")
    })


def test_stored_split_digest_equals_a_fresh_hash_of_writable_copies():
    split = load_dataset("digits", n_train=40, n_test=30, seed=4)
    stored = split_fingerprint(split)
    assert split_fingerprint(split) == stored
    copy = writable_copy(split)
    assert copy.train.images.flags.writeable
    assert split_fingerprint(copy) == stored


def test_repeat_load_dataset_split_hashes_nothing(monkeypatch):
    recipe = dict(n_train=40, n_test=30, seed=5)
    expected = split_fingerprint(load_dataset("digits", **recipe))
    hashed = count_split_hashes(monkeypatch)
    assert split_fingerprint(load_dataset("digits", **recipe)) == expected
    assert hashed == []


def test_writable_split_fingerprint_follows_an_in_place_edit(monkeypatch):
    split = writable_copy(load_dataset("digits", n_train=40, n_test=30, seed=4))
    before = split_fingerprint(split)
    hashed = count_split_hashes(monkeypatch)
    split.train.images[0, 0, 0, 0] += 1.0
    assert split_fingerprint(split) != before
    assert len(hashed) == 1


def test_read_only_view_follows_an_edit_of_its_writable_base():
    split = load_dataset("digits", n_train=40, n_test=30, seed=4)
    base = np.array(split.test.images)
    view = base[:]
    view.flags.writeable = False
    # the other five arrays are the memo's own, read-only ones
    mixed = rebuilt(split, test_images=view)
    before = split_fingerprint(mixed)
    base[0, 0, 0, 0] += 1.0
    assert split_fingerprint(mixed) != before


def test_a_frozen_copy_is_hashed_on_every_call(monkeypatch):
    # owned and read-only like the memo's arrays, but not the memo's:
    # whoever froze them may thaw and edit them
    split = writable_copy(load_dataset("digits", n_train=40, n_test=30, seed=4))
    arrays = [getattr(getattr(split, name), kind)
              for name in ("train", "val", "test")
              for kind in ("images", "labels")]
    for array in arrays:
        array.flags.writeable = False
    before = split_fingerprint(split)
    hashed = count_split_hashes(monkeypatch)
    arrays[0].flags.writeable = True
    arrays[0][0, 0, 0, 0] += 1.0
    arrays[0].flags.writeable = False
    assert split_fingerprint(split) != before
    assert len(hashed) == 1


def test_replacing_a_sweeps_builder_derives_a_new_init_digest():
    builds = []

    def builder(seed):
        builds.append(seed)
        return make_tiny_cnn(seed)

    split = load_dataset("digits", n_train=40, n_test=30, seed=4)
    sweep = PrecisionSweep(lambda: builder(1), split)
    first = sweep.init_digest()
    assert sweep.init_digest() == first
    assert builds == [1]
    sweep.builder = lambda: builder(2)
    assert sweep.init_digest() == state_digest(make_tiny_cnn(2)) != first
    assert builds == [1, 2]


# -- hit / miss / refresh ----------------------------------------------

def test_get_miss_then_hit_roundtrip(cache):
    key = cache.point_key("d", "fixed8", "s", "c")
    assert cache.get(key) is None
    assert (cache.hits, cache.misses) == (0, 1)

    stored = make_result()
    cache.put(key, stored)
    loaded = cache.get(key)
    assert (cache.hits, cache.misses) == (1, 1)
    assert loaded == stored  # bitwise: spec, accuracy, converged, history
    assert loaded.spec is stored.spec  # canonical registry instance
    assert cache.hit_rate == pytest.approx(0.5)


def test_put_overwrites(cache):
    key = cache.point_key("d", "fixed8", "s", "c")
    cache.put(key, make_result(accuracy=0.25))
    cache.put(key, make_result(accuracy=0.75))
    assert cache.get(key).accuracy == 0.75


def test_novel_spec_key_roundtrips(cache):
    key = cache.point_key("d", "fixed:4:8", "s", "c")
    result = PrecisionResult(
        spec=get_precision("fixed8").parse("fixed:4:8"),
        accuracy=0.5,
        converged=True,
    )
    cache.put(key, result)
    assert cache.get(key) == result


# -- corruption recovery -----------------------------------------------

def test_corrupt_json_is_a_miss_and_removed(cache, caplog):
    key = cache.point_key("d", "fixed8", "s", "c")
    path = cache.put(key, make_result())
    with open(path, "w") as handle:
        handle.write("{not json at all")
    with caplog.at_level("WARNING", logger="repro.parallel.cache"):
        assert cache.get(key) is None
    assert "corrupt" in caplog.text
    assert not os.path.exists(path)
    # the sweep can then re-train and re-store the point
    cache.put(key, make_result())
    assert cache.get(key) is not None


def test_schema_mismatch_is_a_miss(cache, caplog):
    key = cache.point_key("d", "fixed8", "s", "c")
    path = cache.put(key, make_result())
    with open(path) as handle:
        payload = json.load(handle)
    payload["schema"] = 999
    with open(path, "w") as handle:
        json.dump(payload, handle)
    with caplog.at_level("WARNING", logger="repro.parallel.cache"):
        assert cache.get(key) is None
    assert not os.path.exists(path)


def test_missing_fields_are_a_miss(cache, caplog):
    key = cache.point_key("d", "fixed8", "s", "c")
    path = cache.put(key, make_result())
    with open(path, "w") as handle:
        json.dump({"schema": 1}, handle)
    with caplog.at_level("WARNING", logger="repro.parallel.cache"):
        assert cache.get(key) is None


# -- weight states ------------------------------------------------------

def test_state_roundtrip(cache):
    network = make_tiny_cnn(seed=3)
    from repro.nn.serialization import network_state
    state = network_state(network)
    key = cache.point_key("d", "float32", "s", "c")
    assert cache.get_state(key) is None
    cache.put_state(key, state)
    loaded = cache.get_state(key)
    assert sorted(loaded) == sorted(state)
    for name in state:
        assert np.array_equal(loaded[name], state[name])


def test_result_only_entry_is_one_miss_when_state_required(cache):
    key = cache.point_key("d", "fixed8", "s", "c")
    cache.put(key, make_result())
    assert cache.get(key, require_state=True) is None
    assert (cache.hits, cache.misses) == (0, 1)
    cache.put_state(key, {"w": np.ones(3, dtype=np.float32)})
    assert cache.get(key, require_state=True) == make_result()
    assert (cache.hits, cache.misses) == (1, 1)


def test_corrupt_state_is_dropped(cache, caplog):
    key = cache.point_key("d", "float32", "s", "c")
    path = cache.put_state(key, {"w": np.ones(3, dtype=np.float32)})
    with open(path, "wb") as handle:
        handle.write(b"junk")
    with caplog.at_level("WARNING", logger="repro.parallel.cache"):
        assert cache.get_state(key) is None
    assert not os.path.exists(path)


# -- maintenance --------------------------------------------------------

def test_clear_removes_everything(cache):
    for spec_key in ("fixed8", "fixed4"):
        cache.put(cache.point_key("d", spec_key, "s", "c"), make_result())
    cache.put_state(
        cache.point_key("d", "float32", "s", "c"),
        {"w": np.zeros(2, dtype=np.float32)},
    )
    assert cache.clear() == 3
    assert cache.get(cache.point_key("d", "fixed8", "s", "c")) is None


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "custom"))
    assert default_cache_dir() == str(tmp_path / "custom")
    monkeypatch.delenv("REPRO_SWEEP_CACHE")
    assert default_cache_dir().endswith(os.path.join(".cache", "repro-sweeps"))


# -- salted keys (search-space isolation) -------------------------------

def test_empty_salt_keys_match_pre_salt_layout(tmp_path):
    plain = SweepCache(str(tmp_path))
    explicit = SweepCache(str(tmp_path), salt="")
    args = ("digest", "fixed8", "split", "config")
    assert plain.point_key(*args) == explicit.point_key(*args)


def test_salt_partitions_the_key_space(tmp_path):
    args = ("digest", "fixed8", "split", "config")
    base = SweepCache(str(tmp_path)).point_key(*args)
    salted = SweepCache(str(tmp_path), salt="space-a").point_key(*args)
    other = SweepCache(str(tmp_path), salt="space-b").point_key(*args)
    assert len({base, salted, other}) == 3


def test_salted_caches_do_not_see_each_others_entries(tmp_path):
    spec = get_precision("fixed8")
    result = PrecisionResult(spec=spec, accuracy=0.5, converged=True)
    a = SweepCache(str(tmp_path), salt="space-a")
    b = SweepCache(str(tmp_path), salt="space-b")
    args = ("digest", spec.key, "split", "config")
    a.put(a.point_key(*args), result)
    assert a.get(a.point_key(*args)) is not None
    assert b.get(b.point_key(*args)) is None
