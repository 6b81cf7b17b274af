"""Robustness layer: deadlines, retries, fault injection.

The ROADMAP's north star is a production-scale serving system; this
subpackage supplies the failure-handling vocabulary the serving engine
(:mod:`repro.serve`) and the parallel sweep executor
(:mod:`repro.parallel`) share:

``RetryPolicy`` / ``retry_call``
    Exponential backoff with full jitter.  Applied to servable builds
    in the :class:`~repro.serve.ModelStore` and to sweep points whose
    worker process dies (the executor rebuilds its pool and resubmits
    unfinished points).

``FaultInjector`` / ``chaos_preset``
    Seeded raise/delay/corrupt faults at named sites
    (:data:`~repro.resilience.faults.SITES`), off by default, armed in
    tests and ``repro serve-bench --chaos`` to prove every recovery
    path actually recovers.

Per-request deadlines (``InferenceServer.submit(..., deadline_ms=...)``
raising :class:`~repro.errors.DeadlineExceededError`) live in
:mod:`repro.serve`; this package documents and tests them alongside the
pieces above.  Shedding load by dropping precision is the tier knob
of the closed-loop autotuner in :mod:`repro.control`
(``docs/control.md``).  See ``docs/resilience.md``.
"""

from repro.resilience.faults import (
    SITES,
    FaultInjector,
    chaos_preset,
    get_injector,
    set_injector,
    use_injector,
)
from repro.resilience.retry import RetryPolicy, retry_call

__all__ = [
    "FaultInjector",
    "RetryPolicy",
    "SITES",
    "chaos_preset",
    "get_injector",
    "retry_call",
    "set_injector",
    "use_injector",
]
