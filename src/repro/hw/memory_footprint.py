"""Memory-footprint accounting (Section V-B).

The paper reports parameter memory of ~1650 KB (LeNet), ~2150 KB
(ConvNet), ~350 KB (ALEX), ~1250 KB (ALEX+) and ~9400 KB (ALEX++) at
full precision, and notes the footprint scales linearly with parameter
precision (2x to 32x reduction).  This module computes those numbers
for any network/precision pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.precision import PrecisionSpec
from repro.nn.network import Sequential


@dataclass(frozen=True)
class MemoryFootprint:
    """Storage requirements of one (network, precision) pair."""

    network_name: str
    precision_label: str
    parameter_count: int
    parameter_kb: float
    input_kb: float
    peak_feature_map_kb: float

    @property
    def total_kb(self) -> float:
        return self.parameter_kb + self.input_kb + self.peak_feature_map_kb

    def reduction_vs(self, baseline: "MemoryFootprint") -> float:
        """Parameter-memory shrink factor relative to ``baseline``."""
        return baseline.parameter_kb / self.parameter_kb


def network_memory_footprint(
    network: Sequential,
    input_shape: tuple,
    spec: PrecisionSpec,
) -> MemoryFootprint:
    """Compute parameter / activation storage at a precision point.

    A weight layer's parameters are stored at its width
    (:meth:`~repro.core.precision.PrecisionSpec.weight_layer_specs`),
    any others at ``spec.weight_bits``; the input image and feature
    maps at ``spec.input_bits``.
    """
    widths = {
        id(layer): layer_spec.weight_bits
        for layer, layer_spec in spec.weight_layer_specs(network)
    }
    param_bits = sum(
        layer.parameter_count() * widths.get(id(layer), spec.weight_bits)
        for layer in network.layers
    )
    input_values = 1
    for dim in input_shape:
        input_values *= int(dim)
    input_bits = input_values * spec.input_bits

    peak_values = input_values
    shape = input_shape
    for layer in network.layers:
        shape = layer.output_shape(shape)
        values = 1
        for dim in shape:
            values *= int(dim)
        peak_values = max(peak_values, values)

    return MemoryFootprint(
        network_name=network.name,
        precision_label=spec.label,
        parameter_count=network.parameter_count(),
        parameter_kb=param_bits / 8192.0,
        input_kb=input_bits / 8192.0,
        peak_feature_map_kb=peak_values * spec.input_bits / 8192.0,
    )
