"""Dataset registry keyed by the paper's benchmark names.

``load_dataset`` produces the full train/val/test split following the
paper's protocol: "we randomly select 10% of each classification
category from the original test set as our validation set".
"""

from __future__ import annotations

from typing import Callable, Dict

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
    """
    try:
        builder = DATASET_BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown dataset {name!r}; choose from {sorted(DATASET_BUILDERS)}"
        ) from None
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
    return DataSplit(train=train, val=val, test=test)
