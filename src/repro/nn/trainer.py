"""Mini-batch training loop with validation tracking.

The loop exposes two hook points, ``before_step`` and ``after_step``,
which the quantization-aware trainer (:mod:`repro.core.qat`) uses to
swap quantized weights in for the forward/backward pass and restore the
full-precision shadow copies before the optimizer update — the
dual-weight-set technique of Courbariaux et al. adopted by the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.errors import ConfigurationError, TrainingError
from repro.nn.evaluation import EvalResult
from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.nn.metrics import accuracy
from repro.nn.network import Sequential
from repro.nn.optim import SGD
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer


@dataclass
class TrainingHistory:
    """Per-epoch training curves."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.train_loss)

    @property
    def best_val_accuracy(self) -> float:
        return max(self.val_accuracy) if self.val_accuracy else float("nan")

    def record(self, train_loss: float, train_acc: float,
               val_loss: float, val_acc: float) -> None:
        self.train_loss.append(train_loss)
        self.train_accuracy.append(train_acc)
        self.val_loss.append(val_loss)
        self.val_accuracy.append(val_acc)


class EarlyStopping:
    """Stop when validation accuracy has not improved for ``patience`` epochs."""

    def __init__(self, patience: int = 5, min_delta: float = 0.0):
        if patience < 1:
            raise ConfigurationError("patience must be >= 1")
        self.patience = patience
        self.min_delta = min_delta
        self.best = -np.inf
        self.stale_epochs = 0

    def update(self, val_accuracy: float) -> bool:
        """Record an epoch result; returns True when training should stop."""
        if val_accuracy > self.best + self.min_delta:
            self.best = val_accuracy
            self.stale_epochs = 0
        else:
            self.stale_epochs += 1
        return self.stale_epochs >= self.patience


class Trainer:
    """SGD training driver for a :class:`Sequential` network.

    Args:
        network: the model to train.
        optimizer: an :class:`SGD` instance over the network parameters.
        loss: loss object; defaults to softmax cross-entropy.
        batch_size: mini-batch size.
        rng: generator for epoch shuffling (reproducibility).
        before_step / after_step: optional callables invoked around each
            optimizer update (used by quantization-aware training).
        restore_best: when validating, snapshot the parameters at every
            new best validation accuracy and restore that snapshot when
            ``fit`` returns — epoch-level model selection, which
            stabilizes noisy low-precision fine-tuning.
    """

    def __init__(
        self,
        network: Sequential,
        optimizer: SGD,
        loss: Optional[Loss] = None,
        batch_size: int = 32,
        rng: Optional[np.random.Generator] = None,
        before_step: Optional[Callable[[], None]] = None,
        after_step: Optional[Callable[[], None]] = None,
        restore_best: bool = False,
    ):
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        self.network = network
        self.optimizer = optimizer
        self.loss = loss or SoftmaxCrossEntropy()
        self.batch_size = batch_size
        self.rng = rng or np.random.default_rng(0)
        self.before_step = before_step
        self.after_step = after_step
        self.restore_best = restore_best
        self.history = TrainingHistory()

    # ------------------------------------------------------------------
    def train_step(self, batch_x: np.ndarray, batch_y: np.ndarray) -> float:
        """One forward/backward/update cycle; returns the batch loss.

        The backward pass is :meth:`Sequential.backward_params`: the
        parameter gradients of a full backward, without the input
        gradient of the first layer that has parameters (or of any
        layer before it), which no update reads.
        """
        if self.before_step is not None:
            self.before_step()
        self.network.zero_grad()
        logits = self.network.forward(batch_x)
        loss_value, grad = self.loss.compute(logits, batch_y)
        if not np.isfinite(loss_value):
            raise TrainingError(
                f"non-finite loss ({loss_value}); training diverged"
            )
        self.network.backward_params(grad)
        if self.after_step is not None:
            self.after_step()
        self.optimizer.step()
        return loss_value

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> EvalResult:
        """Loss and accuracy over a dataset in eval mode.

        Returns an :class:`EvalResult` — indexable like the dict this
        method used to return (``result["accuracy"]``) and usable as
        the accuracy float directly.
        """
        start = time.perf_counter()
        logits = self.network.predict(x, batch_size=max(self.batch_size, 64))
        loss_value, _ = self.loss.compute(logits, y)
        return EvalResult(
            accuracy(logits, y),
            loss=loss_value,
            n_samples=int(len(y)),
            elapsed_s=time.perf_counter() - start,
        )

    def fit(
        self,
        train_x: np.ndarray,
        train_y: np.ndarray,
        val_x: Optional[np.ndarray] = None,
        val_y: Optional[np.ndarray] = None,
        epochs: int = 10,
        early_stopping: Optional[EarlyStopping] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train for up to ``epochs`` epochs, shuffling every epoch.

        Each epoch runs inside a ``trainer.epoch`` span (under one
        ``trainer.fit`` span) on the default tracer and feeds the shared
        metrics registry: ``trainer.epochs`` (counter),
        ``trainer.epoch_s`` (histogram), ``trainer.train_loss`` /
        ``trainer.train_accuracy`` / ``trainer.val_accuracy`` /
        ``trainer.throughput_sps`` (gauges).
        """
        if train_x.shape[0] != len(train_y):
            raise ConfigurationError("train_x and train_y lengths differ")
        n = train_x.shape[0]
        best_accuracy = -np.inf
        best_state: Optional[List[np.ndarray]] = None
        tracer = get_tracer()
        metrics = get_metrics()
        with tracer.span("trainer.fit", network=self.network.name, epochs=epochs):
            for epoch in range(epochs):
                epoch_start = time.perf_counter()
                with tracer.span("trainer.epoch", epoch=epoch):
                    self.optimizer.set_epoch(epoch)
                    self.network.train_mode()
                    order = self.rng.permutation(n)
                    epoch_loss = 0.0
                    batches = 0
                    for start in range(0, n, self.batch_size):
                        idx = order[start : start + self.batch_size]
                        epoch_loss += self.train_step(train_x[idx], train_y[idx])
                        batches += 1
                    train_metrics = self.evaluate(train_x, train_y)
                    if val_x is not None and val_y is not None:
                        val_metrics = self.evaluate(val_x, val_y)
                    else:
                        val_metrics = EvalResult(float("nan"))
                self.history.record(
                    epoch_loss / max(batches, 1),
                    train_metrics["accuracy"],
                    val_metrics["loss"],
                    val_metrics["accuracy"],
                )
                epoch_s = time.perf_counter() - epoch_start
                metrics.counter("trainer.epochs").inc()
                metrics.histogram("trainer.epoch_s").observe(epoch_s)
                metrics.gauge("trainer.train_loss").set(self.history.train_loss[-1])
                metrics.gauge("trainer.train_accuracy").set(train_metrics["accuracy"])
                if epoch_s > 0:
                    metrics.gauge("trainer.throughput_sps").set(n / epoch_s)
                if not np.isnan(val_metrics["accuracy"]):
                    metrics.gauge("trainer.val_accuracy").set(val_metrics["accuracy"])
                if verbose:  # pragma: no cover - console output
                    print(
                        f"epoch {epoch + 1}/{epochs} "
                        f"loss={self.history.train_loss[-1]:.4f} "
                        f"train_acc={train_metrics['accuracy']:.4f} "
                        f"val_acc={val_metrics['accuracy']:.4f}"
                    )
                if (
                    self.restore_best
                    and not np.isnan(val_metrics["accuracy"])
                    and val_metrics["accuracy"] > best_accuracy
                ):
                    best_accuracy = val_metrics["accuracy"]
                    best_state = [p.data.copy() for p in self.network.parameters()]
                if early_stopping is not None and not np.isnan(val_metrics["accuracy"]):
                    if early_stopping.update(val_metrics["accuracy"]):
                        break
        if best_state is not None:
            for param, values in zip(self.network.parameters(), best_state):
                param.data[...] = values
        return self.history
