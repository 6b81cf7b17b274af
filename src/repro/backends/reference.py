"""The reference backend: layer-by-layer numpy forwards.

This is the execution strategy the repo has always used — every layer's
own ``forward`` in pipeline order, which is exactly the base
:class:`~repro.backends.base.Walk` step — packaged behind the
:class:`~repro.backends.base.Backend` interface so it can be selected,
compared against and benchmarked like any other backend.  It is the
ground truth the fused backend's bitwise-parity property tests compare
against.
"""

from __future__ import annotations

from repro.backends.base import Backend

__all__ = ["ReferenceBackend"]


class ReferenceBackend(Backend):
    """Executes every unit through the layer's own ``forward``."""

    name = "reference"

    # The base walk, bound here so the class owns a ``run`` of its own:
    # perfbench/layers.py traces ``ReferenceBackend.__dict__["run"]``.
    run = Backend.run
