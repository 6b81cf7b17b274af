"""Shared sweep execution with in-process caching.

Table IV, Table V and Figure 4 all need (network, precision) accuracy
sweeps plus hardware energy numbers; :class:`SweepRunner` trains each
sweep once per process and serves every driver from the cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.precision import PAPER_PRECISIONS, PrecisionSpec
from repro.core.sweep import PrecisionResult, PrecisionSweep
from repro.data.registry import load_dataset
from repro.experiments.config import ExperimentConfig
from repro.hw.energy import EnergyModel, EnergyReport
from repro.obs.tracer import get_tracer
from repro.zoo.registry import build_network, network_info

#: paper dataset -> paper network name(s)
TASK_NETWORKS = {
    "digits": ["lenet"],
    "svhn": ["convnet"],
    "cifar": ["alex", "alex+", "alex++"],
}


@dataclass
class EvaluatedPoint:
    """Accuracy + hardware energy for one (network, precision) pair."""

    network: str            # paper architecture name
    trained_network: str    # network actually trained (proxy in quick mode)
    spec: PrecisionSpec
    accuracy: float         # test accuracy in [0, 1]
    converged: bool
    energy_uj: float        # per-image energy on the paper architecture
    energy_saving_pct: float  # vs. the float32 baseline network

    @property
    def accuracy_percent(self) -> float:
        return 100.0 * self.accuracy


class SweepRunner:
    """Caches trained sweeps and energy reports per process.

    Splits come straight from :func:`~repro.data.load_dataset`, which
    synthesizes each recipe once per process.

    Beyond the in-process memoization, the runner can parallelize
    accuracy sweeps over worker processes and resume them from the
    on-disk result cache:

    Args:
        config: experiment budgets (quick proxy vs. paper-fidelity).
        workers: worker processes per network sweep (``1`` = the
            legacy sequential path; results are bitwise identical
            either way).
        cache: on-disk sweep cache — ``None`` disables, ``True`` uses
            the default directory, a string names one, or pass a
            :class:`repro.parallel.SweepCache`.
        refresh: ignore cached results, retrain, and overwrite them.
    """

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        *,
        workers: int = 1,
        cache: object = None,
        refresh: bool = False,
        keep_states: bool = False,
    ):
        self.config = config or ExperimentConfig.from_environment()
        self.workers = max(1, int(workers))
        self.cache = cache
        self.refresh = refresh
        self.keep_states = keep_states
        self.energy_model = EnergyModel()
        self._sweeps: Dict[str, PrecisionSweep] = {}
        self._results: Dict[tuple, PrecisionResult] = {}
        self._energy_networks: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def split_for(self, dataset: str):
        return load_dataset(
            dataset,
            n_train=self.config.n_train,
            n_test=self.config.n_test,
            seed=self.config.dataset_seed,
        )

    def _sweep_for(self, trained_name: str, dataset: str) -> PrecisionSweep:
        if trained_name not in self._sweeps:
            self._sweeps[trained_name] = PrecisionSweep(
                # functools.partial (not a lambda) so the builder
                # pickles into worker processes.
                builder=functools.partial(
                    build_network, trained_name, self.config.sweep.seed
                ),
                split=self.split_for(dataset),
                config=self.config.sweep,
                keep_states=self.keep_states,
            )
        return self._sweeps[trained_name]

    def trained_state(self, paper_network: str, spec: PrecisionSpec):
        """Trained parameter arrays for one evaluated point, or ``None``.

        Needs a runner built with ``keep_states=True`` (registry
        publishing from :mod:`repro.experiments.fig4`); then every
        evaluated point has weights.  Points trained in this process
        are held in memory; points served from the on-disk cache are
        read from its ``.npz`` on this first call, and a missing or
        unreadable file retrains that point (see
        :meth:`PrecisionSweep.point_state`).  ``None`` without
        ``keep_states``, for a point never evaluated, or for one whose
        training diverged.
        """
        trained = self.config.accuracy_network(paper_network)
        sweep = self._sweeps.get(trained)
        if sweep is None:
            return None
        return sweep.point_state(spec.key)

    def prefetch(
        self, paper_network: str, specs: Sequence[PrecisionSpec]
    ) -> None:
        """Train (or load from cache) several points in one parallel batch.

        Populates the in-process result memo so the subsequent
        per-point :meth:`accuracy_result` calls are pure lookups.
        """
        trained = self.config.accuracy_network(paper_network)
        wanted = [
            spec for spec in specs if (trained, spec.key) not in self._results
        ]
        if not wanted:
            return
        dataset = network_info(paper_network).dataset
        sweep = self._sweep_for(trained, dataset)
        with get_tracer().span(
            "runner.prefetch", network=trained, points=len(wanted)
        ):
            results = sweep.run(
                wanted,
                workers=self.workers,
                cache=self.cache,
                refresh=self.refresh,
            )
        for spec, result in zip(wanted, results):
            self._results[(trained, spec.key)] = result

    def accuracy_result(
        self, paper_network: str, spec: PrecisionSpec
    ) -> PrecisionResult:
        """Trained accuracy for one point (cached)."""
        trained = self.config.accuracy_network(paper_network)
        key = (trained, spec.key)
        if key not in self._results:
            dataset = network_info(paper_network).dataset
            sweep = self._sweep_for(trained, dataset)
            with get_tracer().span(
                "runner.accuracy", network=trained, spec=spec.key
            ):
                if self.cache or self.refresh:
                    self._results[key] = sweep.run(
                        [spec], cache=self.cache, refresh=self.refresh
                    )[0]
                else:
                    self._results[key] = sweep.run_precision(spec)
        return self._results[key]

    def energy_report(self, paper_network: str, spec: PrecisionSpec) -> EnergyReport:
        """Per-image energy of the *paper* architecture (cached).

        The energy model only reads layer shapes, so one built network
        per architecture serves every precision spec, and
        :meth:`EnergyModel.evaluate_cached` on the runner's model
        schedules each (architecture, spec) once.
        """
        if paper_network not in self._energy_networks:
            self._energy_networks[paper_network] = build_network(paper_network)
        return self.energy_model.evaluate_cached(
            self._energy_networks[paper_network],
            network_info(paper_network).input_shape,
            spec,
        )

    # ------------------------------------------------------------------
    def evaluate_point(
        self,
        paper_network: str,
        spec: PrecisionSpec,
        energy_baseline_network: Optional[str] = None,
    ) -> EvaluatedPoint:
        """Combine accuracy and energy for one design point.

        ``energy_baseline_network`` names the float32 reference for the
        savings column; Table V references everything to plain ALEX.
        """
        result = self.accuracy_result(paper_network, spec)
        energy = self.energy_report(paper_network, spec)
        baseline_name = energy_baseline_network or paper_network
        baseline = self.energy_report(baseline_name, PAPER_PRECISIONS[0])
        return EvaluatedPoint(
            network=paper_network,
            trained_network=self.config.accuracy_network(paper_network),
            spec=spec,
            accuracy=result.accuracy,
            converged=result.converged,
            energy_uj=energy.energy_uj,
            energy_saving_pct=energy.savings_vs(baseline),
        )

    def evaluate_network(
        self,
        paper_network: str,
        precisions: Optional[Sequence[PrecisionSpec]] = None,
        energy_baseline_network: Optional[str] = None,
    ) -> List[EvaluatedPoint]:
        specs = list(precisions) if precisions is not None else list(PAPER_PRECISIONS)
        if self.workers > 1 or self.cache:
            self.prefetch(paper_network, specs)
        return [
            self.evaluate_point(paper_network, spec, energy_baseline_network)
            for spec in specs
        ]
