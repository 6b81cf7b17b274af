"""Process-parallel precision sweeps with a resumable result cache.

The paper's evaluation grid — every network x every precision point,
each trained quantization-aware — is embarrassingly parallel across
precision points.  This package makes that structure executable:

:mod:`repro.parallel.seeding`
    Deterministic per-point seed derivation from a single root seed,
    independent of global RNG state, process identity and dispatch
    order.  The foundation of the determinism contract: a K-worker run
    is bitwise identical to the sequential run.

:mod:`repro.parallel.cache`
    Content-addressed on-disk cache under ``~/.cache/repro-sweeps``
    (``$REPRO_SWEEP_CACHE`` overrides).  Keys digest the network's
    initial-weight state, the precision spec, the exact data split,
    the training hyperparameters and a code-version salt; interrupted
    or repeated sweeps resume instead of retraining.  Corrupt entries
    degrade to misses with a warning.

:mod:`repro.parallel.tasks`
    Pickle-able sweep-point task + the worker entry point that
    rebuilds sweep state locally and returns a ``PrecisionResult``.

:mod:`repro.parallel.executor`
    Cache-aware scheduling over a ``ProcessPoolExecutor``, wired
    through :mod:`repro.obs` (per-point spans tagged with worker ids,
    cache hit/miss counters, a progress narrator).

:mod:`repro.parallel.blas`
    Reads and sets the thread count of the OpenBLAS numpy computes
    on.  Sweep pool workers and fleet replicas each compute on one
    thread: the worker processes are the parallelism.

Typical use goes through the high-level surfaces rather than this
package directly::

    results = sweep.run(specs, workers=4, cache=True)   # library
    python -m repro sweep --workers 4                   # CLI
    python -m repro.experiments table4 --workers 4      # experiments
"""

from repro.parallel.cache import (
    SweepCache,
    config_fingerprint,
    default_cache_dir,
    split_fingerprint,
)
from repro.parallel.executor import resolve_cache, run_sweep
from repro.parallel.seeding import derive_seed, generator_for
from repro.parallel.tasks import PointOutcome, SweepPointTask, run_sweep_point

__all__ = [
    "SweepCache",
    "config_fingerprint",
    "default_cache_dir",
    "derive_seed",
    "generator_for",
    "resolve_cache",
    "run_sweep",
    "PointOutcome",
    "SweepPointTask",
    "run_sweep_point",
    "split_fingerprint",
]
