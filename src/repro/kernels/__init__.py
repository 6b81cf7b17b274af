"""The fused backend's in-place tails.

:func:`fused_relu_quantize` and :func:`fused_quantize` rectify and
quantize an array the fused walk in :mod:`repro.backends` made itself,
where it sits, bitwise-equal to the reference ``ReLU`` and
``FakeQuantLayer`` forwards; :func:`fusable_quantizer` says which
quantizers they reproduce.  Every other operation of the fused walk is
the layer's own ``forward``.  A :class:`~repro.kernels.workspace.Workspace`
can hold :func:`fused_quantize`'s result for a caller that times the
kernel on one buffer.  See ``docs/kernels.md`` for the design and the
rules for adding a new backend.
"""

from repro.kernels.fused import fusable_quantizer, fused_quantize, fused_relu_quantize
from repro.kernels.workspace import Workspace

__all__ = [
    "Workspace",
    "fusable_quantizer",
    "fused_quantize",
    "fused_relu_quantize",
]
