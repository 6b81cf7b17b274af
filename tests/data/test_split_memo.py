"""``load_dataset`` synthesizes each recipe once per process.

Every test swaps counting wrappers into ``DATASET_BUILDERS``.  The memo
is keyed by the builder object, so a new wrapper starts with nothing
cached, whatever this process loaded before.
"""

import numpy as np
import pytest

from repro.data import DATASET_BUILDERS, load_dataset
from repro.data.registry import SPLIT_MEMO_SIZE
from repro.errors import ConfigError

RECIPE = dict(name="digits", n_train=20, n_test=30, seed=5)


def counting(name, builder, calls):
    def counted(**kwargs):
        calls.append((name, kwargs))
        return builder(**kwargs)
    return counted


@pytest.fixture
def builds(monkeypatch):
    """``(name, kwargs)`` of every builder call made during the test."""
    calls = []
    for name, builder in list(DATASET_BUILDERS.items()):
        monkeypatch.setitem(DATASET_BUILDERS, name,
                            counting(name, builder, calls))
    return calls


def parts(split):
    return (split.train, split.val, split.test)


def arrays(split):
    return [array for part in parts(split)
            for array in (part.images, part.labels)]


def test_one_recipe_is_synthesized_once(builds):
    load_dataset(**RECIPE)
    load_dataset(**RECIPE)
    assert len(builds) == 1


def test_calls_share_read_only_arrays_in_their_own_containers(builds):
    first, second = load_dataset(**RECIPE), load_dataset(**RECIPE)
    assert second is not first
    for mine, theirs in zip(parts(first), parts(second)):
        assert mine is not theirs
        assert mine.class_names is not theirs.class_names
        assert mine.images is theirs.images
        assert mine.labels is theirs.labels
    for array in arrays(first):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_a_shared_split_has_the_bytes_of_a_fresh_synthesis(builds, monkeypatch):
    load_dataset(**RECIPE)
    shared = load_dataset(**RECIPE)
    # a builder not seen before is a memo miss: synthesize afresh
    builder = DATASET_BUILDERS["digits"]
    monkeypatch.setitem(DATASET_BUILDERS, "digits",
                        lambda **kwargs: builder(**kwargs))
    fresh = load_dataset(**RECIPE)
    assert len(builds) == 2
    for got, want in zip(arrays(shared), arrays(fresh)):
        assert got is not want
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("field, value", [
    ("name", "svhn"),
    ("n_train", 21),
    ("n_test", 31),
    ("seed", 6),
    ("val_fraction", 0.2),
    ("normalize", False),
])
def test_a_recipe_differing_in_one_field_gets_its_own_split(
    builds, field, value
):
    other = {**RECIPE, field: value}
    mine, theirs = load_dataset(**RECIPE), load_dataset(**other)
    assert load_dataset(**RECIPE).train.images is mine.train.images
    assert load_dataset(**other).train.images is theirs.train.images
    assert len(builds) == 2
    assert not any(a is b for a, b in zip(arrays(mine), arrays(theirs)))


def test_the_oldest_recipe_is_rebuilt_once_the_bound_is_full(builds):
    load_dataset(**RECIPE)
    newer = [{**RECIPE, "seed": 100 + i} for i in range(SPLIT_MEMO_SIZE)]
    for recipe in newer:
        load_dataset(**recipe)
    assert len(builds) == SPLIT_MEMO_SIZE + 1
    load_dataset(**newer[-1])     # still held
    assert len(builds) == SPLIT_MEMO_SIZE + 1
    load_dataset(**RECIPE)        # evicted by the last of the newer ones
    assert len(builds) == SPLIT_MEMO_SIZE + 2


@pytest.mark.parametrize("field, bad", [
    ("n_train", 20.0),
    ("n_test", 30.0),
    ("seed", 5.0),
    ("n_train", np.float64(20.0)),
    ("n_test", "30"),
])
def test_a_non_integer_count_or_seed_is_rejected_before_the_memo(
    builds, field, bad
):
    recipe = {**RECIPE, field: bad}
    with pytest.raises(ConfigError) as before:
        load_dataset(**recipe)
    load_dataset(**RECIPE)
    # 20.0 == 20 and hashes alike: a memo hit must not let it through
    with pytest.raises(ConfigError) as after:
        load_dataset(**recipe)
    assert before.value.field == after.value.field == field
    assert len(builds) == 1


def test_a_negative_seed_is_rejected(builds):
    with pytest.raises(ConfigError) as info:
        load_dataset(**{**RECIPE, "seed": -1})
    assert info.value.field == "seed"
    assert builds == []


def test_numpy_integers_share_the_int_recipe(builds):
    recipe = {**RECIPE, "n_train": np.int64(20), "seed": np.uint8(5)}
    assert load_dataset(**recipe).train.images is \
        load_dataset(**RECIPE).train.images
    assert len(builds) == 1
