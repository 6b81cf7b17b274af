"""Memory footprint tests against Section V-B numbers."""

import pytest

from repro import core
from repro.core.precision import PAPER_PRECISIONS
from repro.hw.memory_footprint import network_memory_footprint
from repro.zoo.registry import build_network, network_info

#: Paper Section V-B parameter memory at full precision (KB).
PAPER_KB = {
    "lenet": 1650.0,
    "convnet": 2150.0,
    "alex": 350.0,
    "alex+": 1250.0,
    "alex++": 9400.0,
}


@pytest.mark.parametrize("name", sorted(PAPER_KB))
def test_float32_parameter_memory_matches_paper(name):
    info = network_info(name)
    footprint = network_memory_footprint(
        build_network(name), info.input_shape, core.get_precision("float32")
    )
    assert footprint.parameter_kb == pytest.approx(PAPER_KB[name], rel=0.05)


def test_footprint_scales_linearly_with_weight_bits():
    info = network_info("lenet")
    net = build_network("lenet")
    full = network_memory_footprint(net, info.input_shape, core.get_precision("float32"))
    half = network_memory_footprint(net, info.input_shape, core.get_precision("fixed16"))
    binary = network_memory_footprint(net, info.input_shape, core.get_precision("binary"))
    assert half.reduction_vs(full) == pytest.approx(2.0)
    assert binary.reduction_vs(full) == pytest.approx(32.0)


def test_reduction_window_is_2x_to_32x():
    """Paper: footprint reduces 'from 2x to 32x for different bit
    precisions'."""
    info = network_info("alex")
    net = build_network("alex")
    full = network_memory_footprint(net, info.input_shape, core.get_precision("float32"))
    reductions = [
        network_memory_footprint(net, info.input_shape, spec).reduction_vs(full)
        for spec in PAPER_PRECISIONS
        if not spec.is_float
    ]
    assert min(reductions) == pytest.approx(1.0)   # fixed32 keeps 32 bits
    assert max(reductions) == pytest.approx(32.0)  # binary


def test_input_memory_uses_input_bits():
    info = network_info("alex")
    net = build_network("alex")
    pow2 = network_memory_footprint(net, info.input_shape, core.get_precision("pow2"))
    # 3*32*32 values at 16 bits
    assert pow2.input_kb == pytest.approx(3 * 32 * 32 * 16 / 8192)


def test_peak_feature_map_at_least_input():
    info = network_info("lenet")
    net = build_network("lenet")
    fp = network_memory_footprint(net, info.input_shape, core.get_precision("float32"))
    assert fp.peak_feature_map_kb >= fp.input_kb
    assert fp.total_kb > fp.parameter_kb


def test_per_layer_spec_stores_each_layer_at_its_width():
    """A weight layer's parameters (weights and biases) take its own
    width: lenet_small at fixed:2,4,8,8:8 is 13.62 KB, not fixed8's
    14.62 KB."""
    info = network_info("lenet_small")
    net = build_network("lenet_small")
    layered = network_memory_footprint(
        net, info.input_shape, core.PrecisionSpec.parse("fixed:2,4,8,8:8")
    )
    fixed8 = network_memory_footprint(
        net, info.input_shape, core.get_precision("fixed8")
    )
    expected_bits = sum(
        layer.parameter_count() * bits
        for layer, bits in zip(net.weight_layers(), (2, 4, 8, 8))
    )
    assert layered.parameter_kb == expected_bits / 8192.0
    assert round(layered.parameter_kb, 2) == 13.62
    assert round(fixed8.parameter_kb, 2) == 14.62
    # activations are unaffected: one input width for both
    assert layered.input_kb == fixed8.input_kb
    assert layered.peak_feature_map_kb == fixed8.peak_feature_map_kb
