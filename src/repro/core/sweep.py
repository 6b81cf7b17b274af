"""Precision sweep orchestration.

A sweep reproduces the experimental protocol of Section V: train a
full-precision network, then for every precision point warm-start from
the float weights, fine-tune quantization-aware, and record the test
accuracy.  Non-convergent configurations (the paper's "NA" rows —
fixed-point (4,4) on SVHN/CIFAR, binary on SVHN) are detected by
comparing the final accuracy against chance level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.precision import PAPER_PRECISIONS, PrecisionSpec
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.core.qat import QATTrainer
from repro.core.quantized import QuantizedNetwork
from repro.data.dataset import DataSplit
from repro.errors import ConfigurationError, TrainingError
from repro.nn.network import Sequential
from repro.nn.optim import SGD, StepDecay
from repro.nn.serialization import (
    load_network_state,
    network_state,
    state_digest,
    transfer_weights,
)
from repro.nn.trainer import Trainer


@dataclass
class SweepConfig:
    """Training budget for one sweep.

    The defaults are the quick budgets used by the benchmark harness;
    ``paper()`` returns longer ones for higher-fidelity runs.
    """

    float_epochs: int = 10
    qat_epochs: int = 4
    float_lr: float = 0.02
    qat_lr: float = 0.005
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 32
    lr_step: int = 6
    calibration_samples: int = 256
    convergence_factor: float = 1.8
    seed: int = 0

    @classmethod
    def paper(cls) -> "SweepConfig":
        """Longer schedule for closer-to-paper fidelity runs."""
        return cls(float_epochs=30, qat_epochs=10, lr_step=12)

    def __post_init__(self) -> None:
        if self.float_epochs < 1 or self.qat_epochs < 0:
            raise ConfigurationError("epoch counts must be positive")
        if self.convergence_factor < 1.0:
            raise ConfigurationError("convergence_factor must be >= 1")


@dataclass
class PrecisionResult:
    """Outcome of one (network, precision) training run."""

    spec: PrecisionSpec
    accuracy: float          # test accuracy in [0, 1]
    converged: bool          # False reproduces the paper's "NA" rows
    history: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def accuracy_percent(self) -> float:
        return 100.0 * self.accuracy


class PrecisionSweep:
    """Run the paper's protocol over a list of precision points.

    Args:
        builder: zero-argument callable returning a fresh, identically
            structured :class:`Sequential` (same layer/parameter names).
        split: train/val/test data.
        config: training budgets.
        keep_states: retain each point's trained full-precision
            parameter arrays (keyed by spec key; read them with
            :meth:`point_state`).  Off by default — a full sweep's
            states are several networks' worth of memory — and switched
            on by publishers (``repro sweep --publish``) that turn
            sweep winners into registry artifacts.
    """

    def __init__(
        self,
        builder: Callable[[], Sequential],
        split: DataSplit,
        config: Optional[SweepConfig] = None,
        keep_states: bool = False,
    ):
        self.builder = builder
        self.split = split
        self.config = config or SweepConfig()
        self.keep_states = keep_states
        #: spec key -> trained parameter arrays held in memory (only
        #: with keep_states)
        self.point_states: Dict[str, Dict[str, np.ndarray]] = {}
        #: spec key -> (cache, cache key) of weights a cached run found
        #: on disk and has not read yet (only with keep_states)
        self.stored_states: Dict[str, Tuple[object, str]] = {}
        #: spec key -> sweep-cache key, for every point a cached run
        #: resolved (recorded by :func:`repro.parallel.run_sweep`)
        self.cache_keys: Dict[str, str] = {}
        self._float_network: Optional[Sequential] = None
        self._float_result: Optional[PrecisionResult] = None
        self._init_network: Optional[Tuple[Callable, Sequential]] = None
        self._init_digest: Optional[Tuple[Sequential, str]] = None

    # ------------------------------------------------------------------
    @property
    def chance_accuracy(self) -> float:
        return 1.0 / self.split.num_classes

    @property
    def float_network(self) -> Optional[Sequential]:
        """The trained full-precision network (None until trained)."""
        return self._float_network

    def init_network(self) -> Sequential:
        """A fresh build of :attr:`builder`: the network
        :meth:`init_digest` hashes.

        Built once per :attr:`builder` object and kept; assigning
        another builder builds again.  Callers read it (layer shapes,
        energy pricing) and never train it.
        """
        if self._init_network is None or self._init_network[0] is not self.builder:
            self._init_network = (self.builder, self.builder())
        return self._init_network[1]

    def init_digest(self) -> str:
        """:func:`~repro.nn.serialization.state_digest` of
        :meth:`init_network`, derived once per init network.

        Part of every cache key of this sweep's points.
        """
        network = self.init_network()
        if self._init_digest is None or self._init_digest[0] is not network:
            self._init_digest = (network, state_digest(network))
        return self._init_digest[1]

    def seed_baseline(
        self, state: Dict[str, np.ndarray], result: PrecisionResult
    ) -> None:
        """Install a previously trained float baseline without retraining.

        ``state`` is a parameter name -> array mapping (as produced by
        :func:`repro.nn.serialization.network_state`) and ``result`` the
        baseline's :class:`PrecisionResult`.  Used by the parallel
        executor and the on-disk cache so workers and resumed sweeps
        warm-start from the exact weights the sequential run trained.
        """
        network = self.builder()
        load_network_state(network, state)
        self._float_network = network
        self._float_result = result
        if self.keep_states:
            self.point_states["float32"] = network_state(network)

    def point_state(self, spec_key: str) -> Optional[Dict[str, np.ndarray]]:
        """Trained parameter arrays of one point, or None.

        A point trained in this process is already in
        :attr:`point_states`.  A point a cached run served is read from
        the ``.npz`` recorded in :attr:`stored_states` on this first
        use.  If that file has gone missing or is unreadable (the cache
        drops it with a warning), the point runs again through the same
        cache: as a result-only entry it is a miss, so it retrains from
        the cached float baseline — deterministically, so the weights
        match the cached accuracy — and its weights are stored again.
        None without ``keep_states``, for a point never run, or for one
        whose training diverged.
        """
        stored = self.stored_states.pop(spec_key, None)
        if stored is not None and spec_key not in self.point_states:
            cache, key = stored
            state = cache.get_state(key)
            if state is None:
                self.run([spec_key], cache=cache)
            else:
                self.point_states[spec_key] = state
        return self.point_states.get(spec_key)

    def _derived_rng(self, *stream: object) -> np.random.Generator:
        """Fresh generator for one named stream of this sweep.

        Seeds are derived from ``config.seed`` and the stream
        components alone (never from global numpy state or call
        order), so two sweeps in one process cannot interleave RNG
        draws and any point can be re-derived in isolation — the
        property the parallel executor's determinism contract rests
        on.
        """
        from repro.parallel.seeding import generator_for

        return generator_for(self.config.seed, *stream)

    def _make_optimizer(self, network: Sequential, lr: float) -> SGD:
        cfg = self.config
        return SGD(
            network.parameters(),
            lr=StepDecay(lr, step=cfg.lr_step),
            momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
        )

    def train_float_baseline(
        self, rng: Optional[np.random.Generator] = None
    ) -> PrecisionResult:
        """Train the full-precision reference network (cached)."""
        if self._float_result is not None:
            return self._float_result
        cfg = self.config
        network = self.builder()
        rng = rng if rng is not None else self._derived_rng("float")
        trainer = Trainer(
            network,
            self._make_optimizer(network, cfg.float_lr),
            batch_size=cfg.batch_size,
            rng=rng,
            restore_best=True,
        )
        trainer.fit(
            self.split.train.images, self.split.train.labels,
            self.split.val.images, self.split.val.labels,
            epochs=cfg.float_epochs,
        )
        metrics = trainer.evaluate(self.split.test.images, self.split.test.labels)
        self._float_network = network
        self._float_result = PrecisionResult(
            spec=PAPER_PRECISIONS[0],
            accuracy=metrics["accuracy"],
            converged=True,
            history={"val_accuracy": trainer.history.val_accuracy},
        )
        if self.keep_states:
            self.point_states["float32"] = network_state(network)
        return self._float_result

    def run_precision(
        self,
        spec: Union[PrecisionSpec, str],
        rng: Optional[np.random.Generator] = None,
    ) -> PrecisionResult:
        """Warm-start + QAT fine-tune + quantized evaluation for ``spec``.

        ``spec`` may be a :class:`PrecisionSpec` or any string
        :meth:`PrecisionSpec.parse` accepts.  The whole point runs
        inside a ``sweep.precision`` span tagged with the spec's key,
        and the outcome lands in the shared metrics registry as
        ``sweep.accuracy.<key>`` / ``sweep.converged.<key>`` gauges
        (not for the float point of :meth:`run`, which takes the
        baseline without calling this).

        ``rng`` overrides the QAT shuffling generator; by default each
        spec gets its own generator derived from ``config.seed`` and
        the spec key, so results are independent of the order (and the
        process) in which points run.
        """
        spec = PrecisionSpec.parse(spec)
        with get_tracer().span("sweep.precision", spec=spec.key):
            result = self._run_precision(spec, rng=rng)
        metrics = get_metrics()
        metrics.counter("sweep.precisions").inc()
        metrics.gauge(f"sweep.accuracy.{spec.key}").set(result.accuracy)
        metrics.gauge(f"sweep.converged.{spec.key}").set(float(result.converged))
        return result

    def _run_precision(
        self,
        spec: PrecisionSpec,
        rng: Optional[np.random.Generator] = None,
    ) -> PrecisionResult:
        baseline = self.train_float_baseline()
        if spec.is_float:
            return baseline

        cfg = self.config
        network = self.builder()
        transfer_weights(self._float_network, network)
        qnet = QuantizedNetwork(network, spec)
        qnet.calibrate(self.split.train.images[: cfg.calibration_samples])

        history: Dict[str, List[float]] = {}
        if cfg.qat_epochs > 0:
            if rng is None:
                rng = self._derived_rng("qat", spec.key)
            trainer = QATTrainer(
                qnet,
                self._make_optimizer(network, cfg.qat_lr),
                batch_size=cfg.batch_size,
                rng=rng,
                restore_best=True,
            )
            try:
                trainer.fit(
                    self.split.train.images, self.split.train.labels,
                    self.split.val.images, self.split.val.labels,
                    epochs=cfg.qat_epochs,
                )
                history["val_accuracy"] = trainer.history.val_accuracy
            except TrainingError:
                # Diverged outright (e.g. 4-bit on a hard task): report
                # as non-convergent, like the paper's NA entries.
                return PrecisionResult(spec=spec, accuracy=0.0, converged=False)

        accuracy = qnet.evaluate(
            self.split.test.images, self.split.test.labels
        ).accuracy
        converged = accuracy >= cfg.convergence_factor * self.chance_accuracy
        if self.keep_states:
            # The network holds the QAT-fine-tuned *full-precision*
            # weights (the dual-weight scheme's shadow values); they are
            # what a registry artifact stores — quantization is re-applied
            # at deploy time from the precision spec.
            self.point_states[spec.key] = network_state(network)
        return PrecisionResult(
            spec=spec, accuracy=accuracy, converged=converged, history=history
        )

    def run(
        self,
        precisions: Optional[Sequence[PrecisionSpec]] = None,
        *,
        workers: int = 1,
        cache: object = None,
        refresh: bool = False,
    ) -> List[PrecisionResult]:
        """Sweep all (default: the paper's seven) precision points.

        Args:
            precisions: specs (or parseable strings) to run, in order.
            workers: number of worker *processes*.  ``1`` (default)
                runs every point in this process; ``N > 1`` dispatches
                them to a pool.  Every count takes the one path,
                :func:`repro.parallel.run_sweep`, and returns
                bitwise-identical results for the same ``config.seed``.
            cache: on-disk result cache — ``None``/``False`` disables
                it, ``True`` uses the default directory
                (``~/.cache/repro-sweeps`` or ``$REPRO_SWEEP_CACHE``),
                a string names a directory, and a
                :class:`repro.parallel.SweepCache` is used as-is.
            refresh: ignore cached results (but still store fresh ones).
        """
        from repro.parallel.executor import run_sweep

        return run_sweep(
            self, precisions, workers=workers, cache=cache, refresh=refresh
        )
