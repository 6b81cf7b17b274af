"""Dataset registry coverage: all three tasks through the split protocol."""

import numpy as np
import pytest

from repro.data import DATASET_BUILDERS, load_dataset
from repro.errors import ConfigError


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_full_split_protocol(name):
    split = load_dataset(name, n_train=100, n_test=100, seed=3)
    assert len(split.train) == 100
    assert len(split.val) == 10     # 10% of each test class
    assert len(split.test) == 90
    assert split.num_classes == 10
    assert split.name == name


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_val_test_disjoint_from_train(name):
    """Train and test pools are generated independently; no image may
    appear in both (a leak would inflate every accuracy column)."""
    split = load_dataset(name, n_train=60, n_test=60, seed=4)
    train_hashes = {img.tobytes() for img in split.train.images}
    for img in np.concatenate([split.val.images, split.test.images]):
        assert img.tobytes() not in train_hashes


def test_split_deterministic():
    a = load_dataset("digits", n_train=50, n_test=50, seed=9)
    b = load_dataset("digits", n_train=50, n_test=50, seed=9)
    assert np.array_equal(a.val.images, b.val.images)
    assert np.array_equal(a.test.labels, b.test.labels)


def test_image_shapes_match_paper_networks():
    assert load_dataset("digits", 50, 50).image_shape == (1, 28, 28)
    assert load_dataset("svhn", 50, 50).image_shape == (3, 32, 32)
    assert load_dataset("cifar", 50, 50).image_shape == (3, 32, 32)


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_empty_test_split_rejected(name):
    # one test image per class: the validation hold-out takes all ten
    with pytest.raises(ConfigError) as info:
        load_dataset(name, n_train=10, n_test=10, seed=0)
    assert info.value.field == "n_test"


def test_smallest_splits_keep_test_images():
    assert len(load_dataset("digits", n_train=10, n_test=11, seed=0).test) == 1
    assert len(load_dataset("digits", n_train=32, n_test=16, seed=0).test) == 6
