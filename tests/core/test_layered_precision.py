"""Per-layer precision specs: one constructor runs each layer at its width."""

import numpy as np
import pytest

from repro.core.fixed_point import FixedPointQuantizer
from repro.core.precision import (
    LayeredPrecisionSpec,
    PrecisionKind,
    PrecisionSpec,
    layered_spec,
)
from repro.core.quantized import QuantizedNetwork
from repro.errors import ConfigError, ConfigurationError
from repro.hw.energy import EnergyModel
from repro.hw.memory_footprint import network_memory_footprint
from repro.zoo import build_network, network_info


def test_parse_comma_form_builds_layered_spec():
    spec = PrecisionSpec.parse("fixed:2,4,8:8")
    assert isinstance(spec, LayeredPrecisionSpec)
    assert spec.weight_bits_per_layer == (2, 4, 8)
    assert spec.weight_bits == 8            # headline = widest layer
    assert spec.input_bits == 8
    assert spec.kind is PrecisionKind.FIXED


def test_layered_key_round_trips():
    spec = layered_spec(PrecisionKind.FIXED, [2, 4, 8], 8)
    assert spec.key == "fixed:2,4,8:8"
    again = PrecisionSpec.parse(spec.key)
    assert again == spec and again.key == spec.key


def test_layered_validation():
    with pytest.raises(ConfigurationError):
        layered_spec(PrecisionKind.FIXED, [], 8)
    with pytest.raises(ConfigurationError):
        layered_spec(PrecisionKind.FIXED, [0, 4], 8)
    with pytest.raises(ConfigurationError):
        PrecisionSpec.parse("fixed:2,x:8")


def test_per_layer_specs_are_uniform_points():
    spec = PrecisionSpec.parse("fixed:2,4,8:8")
    keys = [s.key for s in spec.per_layer_specs()]
    assert keys == ["fixed:2:8", "fixed:4:8", "fixed8"]
    assert not any(
        isinstance(s, LayeredPrecisionSpec) for s in spec.per_layer_specs()
    )


def test_quantized_network_runs_each_layer_at_its_width():
    """Every tensor is quantized exactly as its layer's uniform spec
    would quantize it, not at the spec's widest width."""
    network = build_network("lenet_small", seed=0)
    spec = PrecisionSpec.parse("fixed:2,4,8,8:8")
    qnet = QuantizedNetwork(network, spec)
    originals = {p.name: p.data.copy() for p in network.weight_parameters()}
    quantized = qnet.quantized_state()
    for param, layer_spec in zip(
        network.weight_parameters(), spec.per_layer_specs()
    ):
        uniform = QuantizedNetwork(build_network("lenet_small", seed=0),
                                   layer_spec)
        np.testing.assert_array_equal(
            quantized[param.name], uniform.quantized_state()[param.name]
        )
        np.testing.assert_array_equal(param.data, originals[param.name])
    # conv1 at 2 bits really is coarser than fixed8 would make it
    conv1 = network.weight_parameters()[0]
    assert len(np.unique(quantized[conv1.name])) <= 4
    assert not np.array_equal(
        quantized[conv1.name],
        QuantizedNetwork(network, "fixed8").quantized_state()[conv1.name],
    )


@pytest.mark.parametrize("build", [
    lambda net, spec: QuantizedNetwork(net, spec),
    lambda net, spec: EnergyModel().evaluate(
        net, network_info("lenet_small").input_shape, spec),
    lambda net, spec: network_memory_footprint(
        net, network_info("lenet_small").input_shape, spec),
], ids=["quantized_network", "energy", "memory_footprint"])
def test_width_count_mismatch_raises_one_config_error(build):
    network = build_network("lenet_small", seed=0)
    bad = layered_spec(PrecisionKind.FIXED, [4, 8], 8)  # too few layers
    with pytest.raises(ConfigError, match="weight_bits_per_layer") as info:
        build(network, bad)
    assert info.value.field == "weight_bits_per_layer"
    assert "has 4 weight layers" in str(info.value)


def test_layered_spec_rejects_a_weight_quantizer_override():
    network = build_network("lenet_small", seed=0)
    with pytest.raises(ConfigError, match="weight_quantizer"):
        QuantizedNetwork(network, "fixed:2,4,8,8:8",
                         weight_quantizer=FixedPointQuantizer(8))
    # activations share one width, so their factory may still be swapped
    QuantizedNetwork(network, "fixed:2,4,8,8:8",
                     activation_factory=lambda: FixedPointQuantizer(8))


def test_layered_inference_matches_all_equal_uniform():
    network = build_network("lenet_small", seed=0)
    n_weight = len(network.weight_parameters())
    layered = layered_spec(PrecisionKind.FIXED, [8] * n_weight, 8)
    mixed = QuantizedNetwork(network, layered)
    uniform = QuantizedNetwork(
        build_network("lenet_small", seed=0), PrecisionSpec.parse("fixed8")
    )
    x = np.random.default_rng(0).normal(
        size=(4,) + network_info("lenet_small").input_shape
    )
    mixed.calibrate(x)
    uniform.calibrate(x)
    np.testing.assert_allclose(mixed.infer(x), uniform.infer(x))


class TestLayeredEnergy:
    def setup_method(self):
        self.model = EnergyModel()
        self.network = build_network("lenet_small", seed=0)
        self.shape = network_info("lenet_small").input_shape
        self.n_weight = len(self.network.weight_parameters())

    def evaluate(self, spec_key):
        return self.model.evaluate(
            self.network, self.shape, PrecisionSpec.parse(spec_key)
        )

    def test_all_equal_layered_matches_uniform(self):
        bits = ",".join(["8"] * self.n_weight)
        layered = self.evaluate(f"fixed:{bits}:8")
        uniform = self.evaluate("fixed8")
        assert layered.energy_uj == pytest.approx(uniform.energy_uj)
        assert layered.total_cycles == uniform.total_cycles

    def test_mixed_widths_price_between_their_extremes(self):
        bits = ["4"] * self.n_weight
        bits[-1] = "8"
        mixed = self.evaluate("fixed:" + ",".join(bits) + ":8")
        low = self.evaluate("fixed:4:8")
        high = self.evaluate("fixed8")
        assert low.energy_uj < mixed.energy_uj < high.energy_uj

    def test_layer_count_mismatch_raises_config_error(self):
        with pytest.raises(ConfigError, match="weight layers"):
            self.evaluate("fixed:4,8:8")

    def test_layered_reports_compose_per_layer(self):
        bits = ["4"] * self.n_weight
        bits[0] = "2"
        report = self.evaluate("fixed:" + ",".join(bits) + ":8")
        assert len(report.layers) == len(self.evaluate("fixed8").layers)
        assert report.energy_uj == pytest.approx(
            sum(layer.energy_uj for layer in report.layers)
        )
