"""Classification metrics."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 classification accuracy in [0, 1] from logits or probabilities."""
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"accuracy expects (N, classes) logits and (N,) labels, got "
            f"{logits.shape} and {labels.shape}"
        )
    predictions = logits.argmax(axis=1)
    return float(np.mean(predictions == labels))


def top_k_accuracy(logits: np.ndarray, labels: np.ndarray, k: int = 5) -> float:
    """Fraction of samples whose true label is in the top-k predictions."""
    labels = np.asarray(labels)
    if k < 1 or k > logits.shape[1]:
        raise ShapeError(f"k={k} out of range for {logits.shape[1]} classes")
    top_k = np.argpartition(-logits, k - 1, axis=1)[:, :k]
    hits = (top_k == labels[:, None]).any(axis=1)
    return float(np.mean(hits))


def confusion_matrix(logits: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """(num_classes, num_classes) counts; rows = true class, cols = predicted."""
    labels = np.asarray(labels)
    predictions = logits.argmax(axis=1)
    if labels.size and not (
        0 <= labels.min() and max(labels.max(), predictions.max()) < num_classes
    ):
        raise ShapeError(f"labels or predictions outside [0, {num_classes})")
    cells = labels.astype(np.int64) * num_classes + predictions
    counts = np.bincount(cells, minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)
