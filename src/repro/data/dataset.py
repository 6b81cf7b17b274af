"""Dataset containers, splits, batching and chunked synthesis."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError


@dataclass
class Dataset:
    """A labelled image set.

    Attributes:
        images: NCHW ``float32`` array, values roughly in [0, 1].
        labels: (N,) integer class ids.
        class_names: readable name per class id.
        name: dataset identifier (``"digits"``, ``"svhn"``, ``"cifar"``).
    """

    images: np.ndarray
    labels: np.ndarray
    class_names: List[str]
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ShapeError(f"images must be NCHW, got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ShapeError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.images.shape[0]} images"
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= len(self.class_names)
        ):
            raise ShapeError("labels out of range for class_names")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        """(C, H, W) of a single image."""
        return tuple(self.images.shape[1:])

    def subset(self, indices: np.ndarray, name: Optional[str] = None) -> "Dataset":
        return Dataset(
            images=self.images[indices],
            labels=self.labels[indices],
            class_names=self.class_names,
            name=name or self.name,
        )

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)


@dataclass
class DataSplit:
    """Train / validation / test partition of one task."""

    train: Dataset
    val: Dataset
    test: Dataset

    @property
    def name(self) -> str:
        return self.train.name

    @property
    def num_classes(self) -> int:
        return self.train.num_classes

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return self.train.image_shape


def stratified_split(
    dataset: Dataset, fraction: float, rng: np.random.Generator
) -> Tuple[Dataset, Dataset]:
    """Split off ``fraction`` of each class (paper: 10 % of each category
    of the test set becomes the validation set).

    Returns ``(remainder, held_out)``.
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigurationError("fraction must be in (0, 1)")
    held: List[np.ndarray] = []
    kept: List[np.ndarray] = []
    for cls in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == cls)
        idx = rng.permutation(idx)
        n_held = max(1, int(round(fraction * idx.size))) if idx.size else 0
        held.append(idx[:n_held])
        kept.append(idx[n_held:])
    held_idx = np.concatenate(held) if held else np.array([], dtype=np.int64)
    kept_idx = np.concatenate(kept) if kept else np.array([], dtype=np.int64)
    return dataset.subset(kept_idx), dataset.subset(held_idx)


def batches(
    dataset: Dataset,
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield (images, labels) mini-batches, shuffled when ``rng`` is given."""
    if batch_size < 1:
        raise ConfigurationError("batch_size must be >= 1")
    order = np.arange(len(dataset))
    if rng is not None:
        order = rng.permutation(order)
    for start in range(0, len(dataset), batch_size):
        idx = order[start : start + batch_size]
        yield dataset.images[idx], dataset.labels[idx]


#: Images per chunk of :func:`synthesize`: bounds the temporaries one
#: vectorized rendering pass holds.
SYNTH_CHUNK = 64


def synthesize(
    count: int,
    image_shape: Tuple[int, int, int],
    render_chunk: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator,
    class_names: Sequence[str],
    name: str,
) -> Dataset:
    """A class-balanced synthetic dataset, rendered a chunk at a time.

    Image ``i`` shows class ``i % len(class_names)``.  ``render_chunk``
    takes the labels of up to :data:`SYNTH_CHUNK` consecutive images,
    draws their randomness from ``rng`` in image order, and returns the
    finished images; one ``rng`` permutation then shuffles the set.
    """
    labels = np.arange(count) % len(class_names)
    images = np.empty((count, *image_shape), dtype=np.float32)
    for start in range(0, count, SYNTH_CHUNK):
        stop = min(start + SYNTH_CHUNK, count)
        images[start:stop] = render_chunk(labels[start:stop])
    order = rng.permutation(count)
    return Dataset(images[order], labels[order], list(class_names), name=name)


def add_noise(images: np.ndarray, noises: Sequence[np.ndarray]) -> np.ndarray:
    """``clip(images + noise, 0, 1)`` over a chunk, one noise array per image."""
    noisy = np.stack(noises).reshape(images.shape)
    noisy += images
    return np.clip(noisy, 0.0, 1.0, out=noisy)
