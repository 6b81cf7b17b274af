"""Pluggable compute backends for quantized inference.

A backend executes the fake-quant pipeline of a
:class:`~repro.core.quantized.QuantizedNetwork` through the uniform
:class:`~repro.backends.base.Backend` interface (``dense`` / ``conv`` /
``pool`` / ``act`` entry points plus whole-pipeline ``run`` /
``predict``).  ``run`` is the one loop over a pipeline's units; each
backend brings only its per-unit step (a :class:`Walk`), and
``run(..., observe=...)`` reports every unit's wall time.  Two backends
ship:

``reference``
    Layer-by-layer numpy ``forward`` calls — the historical execution
    path and the parity ground truth.

``fused``
    The same layer ``forward`` calls, with each ReLU and activation
    quantize run in place (:mod:`repro.kernels`) on arrays the walk
    made itself; bitwise-equal to ``reference`` for every Table III
    precision, and the backend of every forward whose call names none.

A call names its backend with ``backend=`` (``qnet.infer(x,
backend="reference")``, ``qnet.freeze(backend=...)``), with
:func:`get` / :func:`resolve`, or on the command line with ``repro
profile --backend``; nothing process-wide picks one.  See
``docs/kernels.md`` for the design and how to add a backend.
"""

from repro.backends.base import Backend, Unit, Walk, compile_units
from repro.backends.fused import FusedBackend
from repro.backends.reference import ReferenceBackend
from repro.backends.registry import (
    DEFAULT_BACKEND,
    available,
    get,
    register,
    resolve,
)

__all__ = [
    "Backend",
    "DEFAULT_BACKEND",
    "FusedBackend",
    "ReferenceBackend",
    "Unit",
    "Walk",
    "available",
    "compile_units",
    "get",
    "register",
    "resolve",
]
