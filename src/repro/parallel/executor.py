"""Process-parallel sweep execution with cache-aware scheduling.

:func:`run_sweep` is the single entry point behind
``PrecisionSweep.run(workers=..., cache=...)``.  Scheduling:

1. every requested point is first resolved against the on-disk
   :class:`~repro.parallel.cache.SweepCache` (unless disabled or
   ``refresh`` is set);
2. if any point misses, the float baseline is obtained — from the
   sweep instance if already trained, else from the cache's stored
   weights, else by training it once in the parent process — and
   cached;
3. remaining misses are dispatched to a
   :class:`concurrent.futures.ProcessPoolExecutor`, each as a
   pickle-able :class:`~repro.parallel.tasks.SweepPointTask` carrying
   the baseline weights, and results stream back in completion order
   while the parent writes them to the cache.

Determinism contract: with the same ``SweepConfig.seed`` the results
are bitwise identical no matter how many workers run the sweep,
because every point derives its RNG stream from the root seed and its
spec key alone (:mod:`repro.parallel.seeding`) and warm-starts from
the exact same baseline weights.

Builders that cannot be pickled (e.g. lambdas) degrade gracefully:
the sweep falls back to in-process execution with a warning rather
than failing.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Union

from repro.core.precision import PrecisionSpec
from repro.core.sweep import PrecisionResult, PrecisionSweep
from repro.errors import FaultInjectedError, TrainingError
from repro.nn.serialization import network_state
from repro.obs.hooks import ProgressNarrator
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.parallel.blas import set_blas_threads
from repro.parallel.cache import (
    SweepCache,
    config_fingerprint,
    split_fingerprint,
)
from repro.parallel.tasks import PointOutcome, SweepPointTask, run_sweep_point
from repro.resilience.faults import get_injector
from repro.resilience.retry import RetryPolicy, retry_call

__all__ = ["run_sweep", "resolve_cache", "DEFAULT_POINT_RETRY"]

#: Backoff applied to sweep points that die transiently — an injected
#: ``parallel.point`` fault or a worker process crashing out from under
#: its :class:`ProcessPoolExecutor` (``BrokenProcessPool``).
DEFAULT_POINT_RETRY = RetryPolicy(
    max_attempts=3, base_delay_s=0.05, max_delay_s=1.0
)

CacheLike = Union[None, bool, str, SweepCache]


def resolve_cache(cache: CacheLike) -> Optional[SweepCache]:
    """Normalize the ``cache`` argument accepted by the public surfaces.

    ``None``/``False`` -> disabled, ``True`` -> default directory,
    ``str`` -> that directory, :class:`SweepCache` -> itself.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return SweepCache()
    if isinstance(cache, SweepCache):
        return cache
    if isinstance(cache, str):
        return SweepCache(cache)
    raise TypeError(
        f"cache must be None, bool, str or SweepCache, got {type(cache)!r}"
    )


def _point_keys(
    sweep: PrecisionSweep, specs: Sequence[PrecisionSpec], cache: SweepCache
) -> Dict[str, str]:
    """spec key -> cache key for every requested spec plus ``float32``."""
    init_digest = sweep.init_digest()
    split_fp = split_fingerprint(sweep.split)
    config_fp = config_fingerprint(sweep.config)
    wanted = {spec.key for spec in specs} | {"float32"}
    return {
        spec_key: cache.point_key(init_digest, spec_key, split_fp, config_fp)
        for spec_key in wanted
    }


def _ensure_baseline(
    sweep: PrecisionSweep,
    cache: Optional[SweepCache],
    keys: Dict[str, str],
    cached_float: Optional[PrecisionResult],
    refresh: bool,
    float_checked: bool,
) -> PrecisionResult:
    """Make sure the sweep holds a trained float baseline; cache it.

    ``cached_float`` is the float32 result if an earlier cache lookup
    already found it (``float_checked`` marks that the lookup
    happened).  When the float point was not itself requested, its
    entry is looked up here so a resumed sweep still warm-starts from
    stored weights instead of retraining the baseline.
    """
    if sweep.float_network is not None:
        baseline = sweep.train_float_baseline()
    else:
        if (
            cache is not None
            and cached_float is None
            and not refresh
            and not float_checked
        ):
            cached_float = cache.get(keys["float32"], require_state=True)
        state = None
        if cache is not None and cached_float is not None:
            state = cache.get_state(keys["float32"])
        if state is not None:
            sweep.seed_baseline(state, cached_float)
            baseline = cached_float
        else:
            # Either no cache, a genuine miss, or the result JSON
            # survived while the weights .npz did not: (re)train.
            # Training is deterministic in the root seed, so the
            # retrained weights match whatever the result recorded.
            with get_tracer().span("parallel.baseline"):
                baseline = sweep.train_float_baseline()
    if cache is not None:
        cache.put(keys["float32"], baseline)
        cache.put_state(keys["float32"], network_state(sweep.float_network))
    return baseline


def run_sweep(
    sweep: PrecisionSweep,
    precisions: Optional[Sequence[Union[PrecisionSpec, str]]] = None,
    *,
    workers: int = 1,
    cache: CacheLike = None,
    refresh: bool = False,
    progress: bool = False,
    retry: Optional[RetryPolicy] = None,
) -> List[PrecisionResult]:
    """Run ``sweep`` over ``precisions`` with caching and N processes.

    See :meth:`repro.core.sweep.PrecisionSweep.run` for the argument
    contract; this function is its implementation for any combination
    of ``workers``/``cache``/``refresh``.

    ``retry`` (default :data:`DEFAULT_POINT_RETRY`) governs recovery
    from transient point failures: a worker process dying mid-point
    (``BrokenProcessPool``) rebuilds the pool and resubmits only the
    unfinished points; an injected ``parallel.point`` fault re-runs the
    point in place.  Because every point derives its RNG stream from
    the root seed alone, a retried point is bitwise identical to an
    undisturbed one.
    """
    from repro.core.precision import PAPER_PRECISIONS

    specs = [
        PrecisionSpec.parse(spec)
        for spec in (precisions if precisions is not None else PAPER_PRECISIONS)
    ]
    store = resolve_cache(cache)
    workers = max(1, int(workers))
    metrics = get_metrics()
    tracer = get_tracer()
    metrics.gauge("parallel.workers").set(workers)
    narrator = ProgressNarrator(
        total=len(specs), label="sweep", enabled=progress, metrics=metrics
    )

    results: List[Optional[PrecisionResult]] = [None] * len(specs)
    keys: Dict[str, str] = {}
    cached_float: Optional[PrecisionResult] = None
    float_checked = False

    keep_states = sweep.keep_states

    # -- pass 1: resolve every point against the cache -----------------
    if store is not None:
        keys = _point_keys(sweep, specs, store)
        sweep.cache_keys.update(keys)
        if not refresh:
            for index, spec in enumerate(specs):
                if spec.is_float:
                    float_checked = True
                # A publishing sweep needs the trained weights, not just
                # the accuracy row: a result-only entry (from a
                # pre-publish run) is a miss, so the point is retrained —
                # deterministically, so the weights match the cached
                # accuracy.  A hit's weights are only recorded here;
                # PrecisionSweep.point_state reads them on first use.
                result = store.get(keys[spec.key], require_state=keep_states)
                if result is None:
                    metrics.counter("parallel.cache.misses").inc()
                    continue
                if keep_states:
                    sweep.stored_states[spec.key] = (store, keys[spec.key])
                metrics.counter("parallel.cache.hits").inc()
                with tracer.span("parallel.point", spec=spec.key, cached=True):
                    results[index] = result
                if spec.is_float:
                    cached_float = result
                narrator.point(spec.key, cached=True)

    misses = [i for i, result in enumerate(results) if result is None]
    if not misses:
        narrator.close(cache_hits=store.hits if store else 0)
        return [result for result in results if result is not None]

    # -- pass 2: baseline (needed by every miss, float or not) ---------
    baseline = _ensure_baseline(
        sweep, store, keys, cached_float, refresh, float_checked
    )
    for index in list(misses):
        if specs[index].is_float:
            results[index] = baseline
            narrator.point(specs[index].key, cached=False)
            misses.remove(index)

    # -- pass 3: dispatch the remaining misses -------------------------
    parallel = workers > 1 and len(misses) > 1
    if parallel:
        try:
            pickle.dumps(sweep.builder)
        except Exception:
            warnings.warn(
                "sweep builder is not picklable (use a module-level "
                "function or functools.partial); running sequentially",
                RuntimeWarning,
                stacklevel=2,
            )
            parallel = False

    baseline_state = (
        network_state(sweep.float_network) if misses else None
    )

    def record(index: int, outcome: PointOutcome) -> None:
        spec = specs[index]
        # Worker results arrive with a pickled copy of the spec; swap in
        # the parent's canonical instance so identity semantics match the
        # in-process points (spec is get_precision(key) for registry keys).
        results[index] = dataclasses.replace(outcome.result, spec=spec)
        metrics.counter("parallel.points").inc()
        metrics.histogram("parallel.point_s").observe(outcome.elapsed_s)
        with tracer.span(
            "parallel.point",
            spec=spec.key,
            cached=False,
            worker=outcome.worker,
            worker_s=outcome.elapsed_s,
        ):
            pass
        if store is not None:
            store.put(keys[spec.key], outcome.result)
        if keep_states:
            # In-process points already populated sweep.point_states;
            # worker outcomes ship theirs back explicitly.
            state = outcome.state or sweep.point_states.get(spec.key)
            if state is not None:
                sweep.point_states[spec.key] = state
                if store is not None:
                    store.put_state(keys[spec.key], state)
        narrator.point(spec.key, cached=False, seconds=outcome.elapsed_s)

    policy = retry or DEFAULT_POINT_RETRY
    backoff_rng = random.Random(0)

    def note_retry(attempt: int, error: BaseException) -> None:
        metrics.counter("parallel.retries").inc()
        warnings.warn(
            f"sweep point attempt {attempt + 1} failed transiently "
            f"({error}); retrying",
            RuntimeWarning,
            stacklevel=2,
        )

    if parallel:
        tasks = {
            index: SweepPointTask(
                builder=sweep.builder,
                split=sweep.split,
                config=sweep.config,
                spec=specs[index],
                baseline_state=baseline_state,
                baseline_result=baseline,
                keep_state=keep_states,
            )
            for index in misses
        }
        with tracer.span("parallel.dispatch", points=len(misses), workers=workers):
            _dispatch_with_retry(
                tasks, workers, record, policy, backoff_rng, metrics
            )
    else:
        for index in misses:

            def run_one(spec=specs[index]):
                get_injector().fire("parallel.point")
                started = time.perf_counter()
                result = sweep.run_precision(spec)
                return PointOutcome(
                    result=result,
                    worker=0,
                    elapsed_s=time.perf_counter() - started,
                )

            outcome = retry_call(
                run_one,
                policy=policy,
                retry_on=(FaultInjectedError,),
                rng=backoff_rng,
                on_retry=note_retry,
            )
            record(index, outcome)

    narrator.close(cache_hits=store.hits if store else 0)
    return [result for result in results if result is not None]


def _dispatch_with_retry(
    tasks: Dict[int, SweepPointTask],
    workers: int,
    record,
    policy: RetryPolicy,
    backoff_rng: random.Random,
    metrics,
) -> None:
    """Dispatch tasks to a process pool, surviving worker deaths.

    A :class:`BrokenProcessPool` poisons the whole executor, so the
    pool is torn down and rebuilt and only the still-unfinished points
    are resubmitted; each resubmission counts one attempt against every
    pending point.  An injected ``parallel.point`` fault (fired in the
    parent as each point completes) fails just that point, which stays
    pending for the next round.  Points exhaust after
    ``policy.max_attempts`` rounds.
    """
    pending = dict(tasks)
    attempts = {index: 0 for index in tasks}
    while pending:
        pool_broke = False
        # The workers are the sweep's parallelism: each computes on one
        # BLAS thread, so N workers use N cores, not N x cores threads.
        with ProcessPoolExecutor(max_workers=min(workers, len(pending)),
                                 initializer=set_blas_threads,
                                 initargs=(1,)) as pool:
            futures = {
                pool.submit(run_sweep_point, task): index
                for index, task in pending.items()
            }
            for future in as_completed(futures):
                index = futures[future]
                try:
                    outcome = future.result()
                    get_injector().fire("parallel.point")
                except BrokenProcessPool:
                    pool_broke = True
                    break
                except FaultInjectedError as error:
                    attempts[index] += 1
                    if attempts[index] >= policy.max_attempts:
                        raise
                    metrics.counter("parallel.retries").inc()
                    warnings.warn(
                        f"sweep point {index} failed transiently ({error}); "
                        "will resubmit",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                record(index, outcome)
                pending.pop(index)
        if not pending:
            return
        if pool_broke:
            metrics.counter("parallel.pool_rebuilds").inc()
            for index in pending:
                attempts[index] += 1
            exhausted = sorted(
                index for index in pending
                if attempts[index] >= policy.max_attempts
            )
            if exhausted:
                raise TrainingError(
                    f"sweep points {exhausted} still failing after "
                    f"{policy.max_attempts} attempts: worker processes "
                    "keep dying (BrokenProcessPool)"
                )
            warnings.warn(
                f"worker process died; rebuilding pool and resubmitting "
                f"{len(pending)} unfinished point(s)",
                RuntimeWarning,
                stacklevel=2,
            )
        round_attempt = max(attempts[index] for index in pending) - 1
        time.sleep(policy.backoff_s(max(round_attempt, 0), backoff_rng))
