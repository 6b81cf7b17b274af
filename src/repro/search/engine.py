"""Budgeted mixed-precision & width search over the sweep machinery.

:class:`PrecisionSearch` explores the (width multiplier x per-layer
precision) plane of one task under an optional per-image energy budget:

1. generation 0 evaluates the fixed paper grid
   (:meth:`SearchSpace.anchors`) plus random samples — the grid doubles
   as the baseline frontier the search is judged against;
2. every generation's Pareto frontier
   (:func:`repro.core.pareto.pareto_frontier`) selects survivors,
   which breed the next generation through local mutations
   (:meth:`SearchSpace.mutate`);
3. candidates train through the ordinary
   :class:`~repro.core.sweep.PrecisionSweep` protocol, dispatched by
   :func:`repro.parallel.run_sweep` — so worker processes and the
   on-disk :class:`~repro.parallel.SweepCache` come for free.  The
   cache is salted with the space fingerprint, which is what makes an
   interrupted search resumable (``--resume``) with bitwise-identical
   results at any worker count;
4. survivors' trained weights publish through
   :func:`repro.registry.publish_with_modeled_costs` and promote
   through a channel behind
   :class:`~repro.registry.PromotionPolicy` — the budget becomes the
   gate's ``max_energy_uj``.

Every random draw derives from ``(seed, "search", ...)`` streams via
:func:`repro.parallel.seeding.generator_for`; nothing depends on wall
clock, worker count or completion order.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.pareto import DesignPoint, dominates, pareto_frontier
from repro.core.sweep import PrecisionResult, PrecisionSweep, SweepConfig
from repro.data import load_dataset
from repro.errors import ConfigError
from repro.hw.energy import EnergyModel
from repro.ioutil import atomic_write
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.parallel.cache import SweepCache
from repro.parallel.executor import resolve_cache
from repro.parallel.seeding import generator_for
from repro.registry import (
    ArtifactStore,
    Channel,
    PromotionPolicy,
    promote_frontier,
    publish_with_modeled_costs,
)
from repro.search.space import Candidate, SearchSpace
from repro.zoo import build_network, network_info

__all__ = [
    "SearchConfig",
    "EvaluatedCandidate",
    "SearchResult",
    "PrecisionSearch",
]

logger = logging.getLogger(__name__)

#: Resume-state schema; bump when the state payload layout changes.
STATE_SCHEMA = 1

CacheLike = Union[None, bool, str, SweepCache]


@dataclass
class SearchConfig:
    """Budgets and knobs for one :class:`PrecisionSearch` run.

    Args:
        space: the axes being explored (also the cache salt).
        generations: evolutionary rounds after generation 0.
        population: new candidates bred (or sampled) per generation.
        survivors: frontier points kept as parents each round.
        energy_budget_uj: per-image cap; feasible points drive the
            frontier and the promotion gate (None = unconstrained).
        seed: root seed for sampling/mutation streams (training seeds
            live in ``sweep.seed``).
        workers: worker processes handed to the sweep executor.
        sweep: training budget per candidate.
        n_train / n_test / dataset_seed: dataset sizing (one split is
            drawn for the whole search; it is part of every cache key).
        sim_check: cross-check frontier energies against the
            cycle-level simulator (:mod:`repro.hw.sim`); uniform specs
            only — the simulator prices one datapath width at a time.
    """

    space: SearchSpace
    generations: int = 3
    population: int = 6
    survivors: int = 4
    energy_budget_uj: Optional[float] = None
    seed: int = 0
    workers: int = 1
    sweep: SweepConfig = field(default_factory=SweepConfig)
    n_train: int = 1500
    n_test: int = 400
    dataset_seed: int = 0
    sim_check: bool = False

    def __post_init__(self) -> None:
        if self.generations < 0:
            raise ConfigError("generations", "must be >= 0")
        if self.population < 1:
            raise ConfigError("population", "must be >= 1")
        if self.survivors < 1:
            raise ConfigError("survivors", "must be >= 1")
        if self.energy_budget_uj is not None and self.energy_budget_uj <= 0:
            raise ConfigError("energy_budget_uj", "must be > 0")


@dataclass
class EvaluatedCandidate:
    """One trained + priced search point."""

    candidate: Candidate
    result: PrecisionResult
    energy_uj: float
    generation: int
    cache_key: Optional[str] = None

    @property
    def converged(self) -> bool:
        return self.result.converged

    def design_point(self) -> DesignPoint:
        return DesignPoint(
            label=self.candidate.key,
            accuracy=self.result.accuracy_percent,
            energy_uj=self.energy_uj,
            metadata={
                "network": self.candidate.network,
                "base": self.candidate.base,
                "width": f"{self.candidate.width:g}",
                "precision": self.candidate.spec_key,
                "generation": str(self.generation),
            },
        )


@dataclass
class SearchResult:
    """Everything a search run found."""

    evaluated: List[EvaluatedCandidate]
    frontier: List[DesignPoint]
    grid_frontier: List[DesignPoint]
    dominating: List[DesignPoint]
    generations_run: int
    cache_hits: int = 0
    cache_misses: int = 0
    state_path: Optional[str] = None
    sim_gaps_pct: Dict[str, float] = field(default_factory=dict)

    @property
    def dominates_fixed_grid(self) -> bool:
        """Did the search beat the fixed paper grid somewhere?"""
        return bool(self.dominating)

    def by_label(self, label: str) -> Optional[EvaluatedCandidate]:
        for entry in self.evaluated:
            if entry.candidate.key == label:
                return entry
        return None


class PrecisionSearch:
    """Generation loop + publishing for one :class:`SearchConfig`.

    Args:
        config: search budgets and the space definition.
        cache: like :meth:`PrecisionSweep.run`'s ``cache`` argument;
            the resolved cache is re-salted with the space fingerprint
            so entries can never leak between different spaces.  The
            default ``None`` disables caching (and ``resume``).
        energy_model: analytical model that prices every candidate
            through :meth:`~repro.hw.energy.EnergyModel.evaluate_cached`,
            so each (network, spec) is scheduled once per model.  The
            default is a new model per search; pass one model to
            several searches (a replay, say) to share its schedules.
    """

    def __init__(
        self,
        config: SearchConfig,
        cache: CacheLike = None,
        energy_model: Optional[EnergyModel] = None,
    ):
        self.config = config
        self.space = config.space
        resolved = resolve_cache(cache)
        self.cache: Optional[SweepCache] = None
        if resolved is not None:
            self.cache = SweepCache(resolved.root, salt=self.space.fingerprint())
        self.energy_model = energy_model or EnergyModel()
        info = network_info(self.space.task)
        self._input_shape = info.input_shape
        with get_tracer().span(
            "search.dataset",
            dataset=info.dataset,
            n_train=config.n_train,
            n_test=config.n_test,
        ):
            self.split = load_dataset(
                info.dataset,
                n_train=config.n_train,
                n_test=config.n_test,
                seed=config.dataset_seed,
            )
        self._sweeps: Dict[str, PrecisionSweep] = {}
        self._networks: Dict[str, object] = {}
        # the width-1.0 network: the anchors' pricing network too
        self.n_layers = len(self._network(self.space.task).weight_layers())

    # -- plumbing ------------------------------------------------------
    def _sweep(self, network: str) -> PrecisionSweep:
        """One keep-states sweep per distinct (possibly scaled) network."""
        if network not in self._sweeps:
            self._sweeps[network] = PrecisionSweep(
                functools.partial(
                    build_network, network, seed=self.config.sweep.seed
                ),
                self.split,
                config=self.config.sweep,
                keep_states=True,
            )
        return self._sweeps[network]

    def _network(self, name: str):
        if name not in self._networks:
            self._networks[name] = build_network(
                name, seed=self.config.sweep.seed
            )
        return self._networks[name]

    def _energy(self, candidate: Candidate) -> float:
        report = self.energy_model.evaluate_cached(
            self._network(candidate.network),
            self._input_shape,
            candidate.spec(),
        )
        return report.energy_uj

    def _rng(self, *stream: object):
        return generator_for(self.config.seed, "search", *stream)

    # -- evaluation ----------------------------------------------------
    def _evaluate(
        self, candidates: List[Candidate], generation: int
    ) -> List[EvaluatedCandidate]:
        """Train + price a batch, grouped by network for sweep reuse."""
        by_network: Dict[str, List[Candidate]] = {}
        for candidate in candidates:
            by_network.setdefault(candidate.network, []).append(candidate)
        evaluated: List[EvaluatedCandidate] = []
        metrics = get_metrics()
        for network in sorted(by_network):
            group = by_network[network]
            sweep = self._sweep(network)
            specs = [candidate.spec() for candidate in group]
            hits_before = self.cache.hits if self.cache else 0
            results = sweep.run(
                specs, workers=self.config.workers, cache=self.cache
            )
            if self.cache:
                metrics.counter("search.cache_hits").inc(
                    self.cache.hits - hits_before
                )
            by_key = {result.spec.key: result for result in results}
            for candidate in group:
                result = by_key[candidate.spec().key]
                evaluated.append(
                    EvaluatedCandidate(
                        candidate=candidate,
                        result=result,
                        energy_uj=self._energy(candidate),
                        generation=generation,
                        cache_key=sweep.cache_keys.get(candidate.spec().key),
                    )
                )
        metrics.counter("search.evaluated").inc(len(evaluated))
        return evaluated

    def _feasible(
        self, pool: Dict[str, EvaluatedCandidate]
    ) -> List[DesignPoint]:
        """Converged points under the budget (all converged if none fit)."""
        converged = [e for e in pool.values() if e.converged]
        budget = self.config.energy_budget_uj
        if budget is not None:
            feasible = [e for e in converged if e.energy_uj <= budget]
            if feasible:
                converged = feasible
        return [e.design_point() for e in converged]

    def _select_survivors(self, frontier: List[DesignPoint]) -> List[DesignPoint]:
        """Up to ``survivors`` frontier points, evenly spaced along it."""
        k = self.config.survivors
        if len(frontier) <= k:
            return list(frontier)
        if k == 1:
            return [frontier[0]]
        indices = sorted(
            {round(i * (len(frontier) - 1) / (k - 1)) for i in range(k)}
        )
        return [frontier[i] for i in indices]

    def _breed(
        self,
        survivors: List[DesignPoint],
        pool: Dict[str, EvaluatedCandidate],
        generation: int,
    ) -> List[Candidate]:
        """Population of new, unique candidates for ``generation``."""
        children: List[Candidate] = []
        seen = set(pool)
        for i in range(self.config.population):
            child: Optional[Candidate] = None
            for attempt in range(8):
                rng = self._rng("breed", generation, i, attempt)
                if survivors:
                    parent_label = survivors[
                        int(rng.integers(len(survivors)))
                    ].label
                    parent = pool[parent_label].candidate
                    child = self.space.mutate(parent, rng, self.n_layers)
                else:
                    child = None
                if child is None:
                    child = self.space.sample(rng, self.n_layers)
                if child.key not in seen:
                    break
                child = None
            if child is not None:
                seen.add(child.key)
                children.append(child)
        return children

    # -- resume state --------------------------------------------------
    def state_path(self) -> Optional[str]:
        if self.cache is None:
            return None
        return os.path.join(
            self.cache.root, f"search-{self.space.fingerprint()[:12]}.json"
        )

    def _save_state(self, generation: int, pool_size: int) -> None:
        path = self.state_path()
        if path is None:
            return
        payload = {
            "schema": STATE_SCHEMA,
            "fingerprint": self.space.fingerprint(),
            "task": self.space.task,
            "seed": self.config.seed,
            "generations_done": generation,
            "evaluated": pool_size,
        }
        atomic_write(path, json.dumps(payload, indent=1).encode("utf-8"))

    def _check_resume(self) -> None:
        """Validate any prior state file against this run's identity.

        The actual resume mechanism is the salted cache — replaying
        the deterministic loop turns finished points into cache hits —
        so all the state file must do is refuse to resume a *different*
        search into this cache namespace.
        """
        path = self.state_path()
        if path is None:
            raise ConfigError(
                "resume", "resuming requires a cache (pass cache=...)"
            )
        if not os.path.exists(path):
            logger.info("search resume: no prior state at %s; fresh run", path)
            return
        try:
            with open(path, "r", encoding="utf-8") as handle:
                state = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(
                "resume",
                f"state file {path} is not valid JSON ({exc}); delete it "
                "to start this search afresh",
            ) from None
        if not isinstance(state, dict):
            raise ConfigError(
                "resume",
                f"state file {path} holds a JSON {type(state).__name__}, "
                "not a search state; delete it to start this search afresh",
            )
        if state.get("fingerprint") != self.space.fingerprint():
            raise ConfigError(
                "resume",
                f"state file {path} was written by a different search "
                "space (fingerprint mismatch)",
            )
        if state.get("seed") != self.config.seed:
            raise ConfigError(
                "resume",
                f"state file {path} used seed {state.get('seed')}, "
                f"this run uses {self.config.seed}",
            )
        logger.info(
            "search resume: replaying %s generation(s) from cache",
            state.get("generations_done", 0),
        )

    # -- the loop ------------------------------------------------------
    def run(self, resume: bool = False) -> SearchResult:
        """Execute the full search; see the module docstring."""
        if resume:
            self._check_resume()
        metrics = get_metrics()
        tracer = get_tracer()
        pool: Dict[str, EvaluatedCandidate] = {}
        with tracer.span(
            "search.run",
            task=self.space.task,
            generations=self.config.generations,
            workers=self.config.workers,
        ):
            # generation 0: the fixed grid + uniform random samples
            seeds = list(self.space.anchors())
            seen = {candidate.key for candidate in seeds}
            for i in range(self.config.population):
                for attempt in range(8):
                    candidate = self.space.sample(
                        self._rng("seed", i, attempt), self.n_layers
                    )
                    if candidate.key not in seen:
                        seen.add(candidate.key)
                        seeds.append(candidate)
                        break
            anchor_labels = {c.key for c in self.space.anchors()}
            generations_run = 0
            with tracer.span("search.generation", generation=0,
                             population=len(seeds)):
                metrics.counter("search.generation").inc()
                for entry in self._evaluate(seeds, generation=0):
                    pool[entry.candidate.key] = entry
            self._save_state(0, len(pool))

            for generation in range(1, self.config.generations + 1):
                frontier = pareto_frontier(self._feasible(pool))
                survivors = self._select_survivors(frontier)
                children = self._breed(survivors, pool, generation)
                if not children:
                    logger.info(
                        "search: generation %d bred no new candidates; "
                        "stopping early", generation,
                    )
                    break
                with tracer.span("search.generation", generation=generation,
                                 population=len(children)):
                    metrics.counter("search.generation").inc()
                    for entry in self._evaluate(children, generation):
                        pool[entry.candidate.key] = entry
                generations_run = generation
                self._save_state(generation, len(pool))

        frontier = pareto_frontier(self._feasible(pool))
        grid_points = [
            entry.design_point()
            for entry in pool.values()
            if entry.candidate.key in anchor_labels and entry.converged
        ]
        grid_frontier = pareto_frontier(grid_points)
        dominating = [
            point for point in frontier
            if point.label not in anchor_labels
            and any(dominates(point, anchor) for anchor in grid_frontier)
        ]
        result = SearchResult(
            evaluated=sorted(
                pool.values(),
                key=lambda e: (e.generation, e.candidate.key),
            ),
            frontier=frontier,
            grid_frontier=grid_frontier,
            dominating=dominating,
            generations_run=generations_run,
            cache_hits=self.cache.hits if self.cache else 0,
            cache_misses=self.cache.misses if self.cache else 0,
            state_path=self.state_path(),
        )
        if self.config.sim_check:
            result.sim_gaps_pct = self._sim_check(result)
        return result

    def _sim_check(self, result: SearchResult) -> Dict[str, float]:
        """Cycle-level cross-check of the frontier's analytical energies."""
        gaps: Dict[str, float] = {}
        for point in result.frontier:
            entry = result.by_label(point.label)
            if entry is None:
                continue
            spec = entry.candidate.spec()
            if getattr(spec, "weight_bits_per_layer", None):
                continue  # simulator prices one datapath width at a time
            report = self.energy_model.simulate(
                self._network(entry.candidate.network),
                self._input_shape,
                spec,
            )
            gaps[point.label] = report.energy_gap_pct
        return gaps

    # -- publishing ----------------------------------------------------
    def publish(
        self,
        result: SearchResult,
        root: str,
        channel_name: Optional[str] = None,
    ) -> Dict[str, object]:
        """Publish the frontier and promote it behind the Pareto gate.

        Every frontier point whose trained weights the search retained
        becomes an artifact (manifest carries width/generation and the
        salted sweep cache key for provenance).  Points a replay served
        from the cache have their weights read here, on first use
        (:meth:`PrecisionSweep.point_state`).  The frontier then walks
        the channel expensive-first through
        :func:`repro.registry.promote_frontier` with the energy budget
        as the gate's absolute ``max_energy_uj``.
        """
        store = ArtifactStore(root)
        channel = Channel(store, channel_name or f"search-{self.space.task}")
        manifests: Dict[str, object] = {}
        for point in result.frontier:
            entry = result.by_label(point.label)
            if entry is None:
                continue
            sweep = self._sweeps.get(entry.candidate.network)
            if sweep is None:
                continue
            state = sweep.point_state(entry.candidate.spec_key)
            if state is None:
                continue
            manifests[point.label] = publish_with_modeled_costs(
                store,
                state,
                entry.candidate.network,
                entry.candidate.spec_key,
                accuracy=entry.result.accuracy,
                n_samples=len(self.split.test.labels),
                energy_model=self.energy_model,
                sweep_cache_key=entry.cache_key,
                created_by="search",
                extra={
                    "search_base": entry.candidate.base,
                    "search_width": f"{entry.candidate.width:g}",
                    "search_generation": str(entry.generation),
                    "search_fingerprint": self.space.fingerprint(),
                },
            )
        policy = PromotionPolicy(max_energy_uj=self.config.energy_budget_uj)
        promoted, rejected = promote_frontier(
            channel, result.frontier, manifests,
            policy=policy, note=f"search {self.space.task}",
        )
        return {
            "store": store,
            "channel": channel,
            "artifacts": manifests,
            "promoted": promoted,
            "rejected": rejected,
        }
