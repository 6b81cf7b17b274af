"""Dataset registry keyed by the paper's benchmark names.

``load_dataset`` produces the full train/val/test split following the
paper's protocol: "we randomly select 10% of each classification
category from the original test set as our validation set".

A recipe (builder, sizes, seed, validation fraction, normalization)
always yields the same bytes, so a process synthesizes each split
once: the last :data:`SPLIT_MEMO_SIZE` recipes' arrays stay in memory,
read-only, and every call wraps them in new containers.
:func:`is_memoized` tells those arrays from any other.
"""

from __future__ import annotations

import functools
import operator
import weakref
from typing import Callable, Dict, Tuple

import numpy as np

from repro.data.dataset import DataSplit, Dataset, stratified_split
from repro.data.synth_cifar import synthetic_cifar
from repro.data.synth_digits import synthetic_digits
from repro.data.synth_svhn import synthetic_svhn
from repro.errors import ConfigError, ConfigurationError

DATASET_BUILDERS: Dict[str, Callable] = {
    "digits": synthetic_digits,
    "svhn": synthetic_svhn,
    "cifar": synthetic_cifar,
}

#: Distinct recipes whose splits :func:`load_dataset` keeps.  perfbench's
#: six recipes hold ≈ 14 MB; the three full-mode experiment splits
#: (6000/1500 images each) ≈ 210 MB, which their sweeps hold anyway.
SPLIT_MEMO_SIZE = 8


def _integer(field: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(field, f"must be an integer, got {value!r}") from None


def load_dataset(
    name: str,
    n_train: int = 2000,
    n_test: int = 500,
    seed: int = 0,
    val_fraction: float = 0.1,
    normalize: bool = True,
) -> DataSplit:
    """Build a named synthetic task with the paper's val-split protocol.

    With ``normalize=True`` (default) pixel values are mapped from
    [0, 1] to [-1, 1] — zero-centred inputs, the standard preprocessing
    the paper's Caffe recipes apply via mean subtraction.

    Calls with one recipe share one synthesis: the returned
    :class:`DataSplit` and its :class:`Dataset` objects are new, but
    their image and label arrays are the same read-only arrays every
    such call gets.  Copy an array before writing to it.

    Raises:
        ConfigurationError: ``name`` is not in :data:`DATASET_BUILDERS`.
        ConfigError: ``n_train``, ``n_test`` or ``seed`` is not an
            integer, ``seed`` is negative, or ``n_test`` leaves no test
            image once validation is held out.
    """
    try:
        builder = DATASET_BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown dataset {name!r}; choose from {sorted(DATASET_BUILDERS)}"
        ) from None
    # before the memo: 256.0 == 256 and both hash alike, so a float
    # count must not be served whatever the process happens to hold
    n_train = _integer("n_train", n_train)
    n_test = _integer("n_test", n_test)
    seed = _integer("seed", seed)
    if seed < 0:
        raise ConfigError("seed", f"must be >= 0, got {seed}")
    parts = _synthesized_split(
        builder, n_train, n_test, seed, val_fraction, normalize
    )
    return DataSplit(*(
        Dataset(part.images, part.labels, list(part.class_names), part.name)
        for part in parts
    ))


#: id -> weak reference of every array :func:`_synthesized_split` froze
_memo_arrays: Dict[int, weakref.ref] = {}


@functools.lru_cache(maxsize=SPLIT_MEMO_SIZE)
def _synthesized_split(
    builder: Callable,
    n_train: int,
    n_test: int,
    seed: int,
    val_fraction: float,
    normalize: bool,
) -> Tuple[Dataset, Dataset, Dataset]:
    """One recipe's (train, val, test), synthesized, with read-only arrays."""
    train, test_full = builder(n_train=n_train, n_test=n_test, seed=seed)
    if normalize:
        train = Dataset(
            2.0 * train.images - 1.0, train.labels, train.class_names, train.name
        )
        test_full = Dataset(
            2.0 * test_full.images - 1.0,
            test_full.labels,
            test_full.class_names,
            test_full.name,
        )
    rng = np.random.default_rng(seed + 1000)
    test, val = stratified_split(test_full, val_fraction, rng)
    if not len(test):
        raise ConfigError(
            "n_test",
            f"{n_test} test images leave none once validation holds out "
            f"{val_fraction:.0%} of each class (at least one per class)",
        )
    for part in (train, val, test):
        for array in (part.images, part.labels):
            array.flags.writeable = False
            _memo_arrays[id(array)] = weakref.ref(
                array, lambda _ref, key=id(array): _memo_arrays.pop(key, None)
            )
    return train, val, test


def is_memoized(array: np.ndarray) -> bool:
    """Whether ``array`` is one of the split memo's own arrays.

    Those are read-only from birth and shared by every caller, so their
    bytes never change while they live, and a fact derived from them
    (``parallel.cache.split_fingerprint``'s digest) can be kept.  Any
    other array, read-only or not, may still change.
    """
    ref = _memo_arrays.get(id(array))
    return ref is not None and ref() is array
