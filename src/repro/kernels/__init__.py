"""Fused quantized-inference kernels.

The kernels here are the compute substrate of the ``fused`` backend in
:mod:`repro.backends`: single-pass quantize / matmul / im2col-conv /
pool / ReLU routines that allocate what they produce, or update in
place an array their caller owns, and keep nothing between calls,
while staying bitwise-equal to the reference layer-by-layer path for
every paper precision.  A :class:`~repro.kernels.workspace.Workspace`
can hold :func:`fused_quantize`'s result for a caller that times the
kernel on one buffer.  See ``docs/kernels.md`` for the design and the
rules for adding a new backend on top of them.
"""

from repro.kernels.fused import (
    fusable_quantizer,
    fused_avgpool,
    fused_conv2d,
    fused_dense,
    fused_maxpool,
    fused_quantize,
    fused_relu_quantize,
    to_nchw,
)
from repro.kernels.workspace import Workspace

__all__ = [
    "Workspace",
    "fusable_quantizer",
    "fused_avgpool",
    "fused_conv2d",
    "fused_dense",
    "fused_maxpool",
    "fused_quantize",
    "fused_relu_quantize",
    "to_nchw",
]
