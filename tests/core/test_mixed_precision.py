"""Mixed-precision extension tests."""

import numpy as np
import pytest

from repro import core, nn
from repro.core.mixed_precision import (
    MixedPrecisionNetwork,
    assignment_weight_kb,
    greedy_bit_allocation,
)
from repro.errors import ConfigurationError
from tests.conftest import make_tiny_cnn


@pytest.fixture(scope="module")
def trained_setup():
    from repro.data import load_dataset

    split = load_dataset("digits", n_train=300, n_test=150, seed=0)
    net = make_tiny_cnn(seed=2)
    trainer = nn.Trainer(
        net, nn.SGD(net.parameters(), lr=0.02, momentum=0.9),
        batch_size=32, rng=np.random.default_rng(0),
    )
    trainer.fit(split.train.images, split.train.labels, epochs=3)
    return split, net


def uniform_assignment(net, key):
    spec = core.get_precision(key)
    return {p.name: spec for p in net.weight_parameters()}


def test_requires_complete_assignment(trained_setup):
    _, net = trained_setup
    partial = uniform_assignment(net, "fixed8")
    partial.pop(net.weight_parameters()[0].name)
    with pytest.raises(ConfigurationError):
        MixedPrecisionNetwork(net, partial)


def test_rejects_unknown_tensor_names(trained_setup):
    _, net = trained_setup
    assignment = uniform_assignment(net, "fixed8")
    assignment["ghost.weight"] = core.get_precision("fixed8")
    with pytest.raises(ConfigurationError):
        MixedPrecisionNetwork(net, assignment)


def test_uniform_mixed_matches_uniform_quantized(trained_setup):
    """A uniform assignment must behave like the plain wrapper."""
    split, net = trained_setup
    spec = core.get_precision("fixed8")
    plain = core.QuantizedNetwork(
        net, core.PrecisionSpec(spec.kind, 8, 16, "fixed8_16")
    )
    mixed = MixedPrecisionNetwork(net, uniform_assignment(net, "fixed8"),
                                  input_bits=16)
    x = split.test.images[:32]
    plain.calibrate(x)
    mixed.calibrate(x)
    assert np.allclose(plain.predict(x), mixed.predict(x), atol=1e-5)


def test_per_layer_quantizers_differ(trained_setup):
    _, net = trained_setup
    names = [p.name for p in net.weight_parameters()]
    assignment = uniform_assignment(net, "fixed16")
    assignment[names[0]] = core.get_precision("binary")
    mixed = MixedPrecisionNetwork(net, assignment)
    with mixed.quantized_weights():
        first = net.weight_parameters()[0].data
        assert len(np.unique(np.abs(first))) == 1  # binary
        second = net.weight_parameters()[1].data
        assert len(np.unique(np.abs(second))) > 2  # 16-bit


def test_describe_lists_every_tensor(trained_setup):
    _, net = trained_setup
    mixed = MixedPrecisionNetwork(net, uniform_assignment(net, "fixed8"))
    text = mixed.describe()
    for param in net.weight_parameters():
        assert param.name in text


def test_assignment_weight_kb_monotone(trained_setup):
    _, net = trained_setup
    wide = assignment_weight_kb(net, uniform_assignment(net, "fixed16"))
    narrow = assignment_weight_kb(net, uniform_assignment(net, "fixed4"))
    assert wide > narrow
    # halving all weights roughly halves memory (biases perturb slightly)
    assert wide / narrow == pytest.approx(4.0, rel=0.05)


def test_assignment_weight_kb_matches_the_memory_footprint():
    """The per-tensor twin of a per-layer spec stores the same bytes:
    each bias at its own layer's weight width, not the widest one."""
    from repro.hw.memory_footprint import network_memory_footprint
    from repro.zoo import build_network, network_info

    net = build_network("lenet_small", seed=0)
    spec = core.PrecisionSpec.parse("fixed:2,4,8,8:8")
    assignment = {
        param.name: layer_spec
        for layer, layer_spec in spec.weight_layer_specs(net)
        for param in layer.weight_parameters()
    }
    footprint = network_memory_footprint(
        net, network_info("lenet_small").input_shape, spec
    )
    assert assignment_weight_kb(net, assignment) == footprint.parameter_kb


def test_greedy_allocation_respects_budget(trained_setup):
    split, net = trained_setup
    baseline = nn.accuracy(net.predict(split.test.images), split.test.labels)
    assignment, trace = greedy_bit_allocation(
        net,
        split.test.images[:100],
        split.test.labels[:100],
        candidates=[core.get_precision("fixed16"), core.get_precision("fixed8")],
        max_accuracy_drop=0.05,
        calibration_images=split.train.images[:64],
    )
    assert set(assignment) == {p.name for p in net.weight_parameters()}
    # the final evaluated accuracy stays within the budget
    assert trace[-1]["accuracy"] >= baseline - 0.05 - 1e-9
    # memory never increases along the trace
    kbs = [step["weight_kb"] for step in trace]
    assert kbs == sorted(kbs, reverse=True)


def test_greedy_allocation_lowers_at_least_one_layer(trained_setup):
    """On the easy digits task, 8 bits is safe, so the search must find
    narrowing opportunities."""
    split, net = trained_setup
    assignment, trace = greedy_bit_allocation(
        net,
        split.test.images[:100],
        split.test.labels[:100],
        candidates=[core.get_precision("fixed16"), core.get_precision("fixed8")],
        max_accuracy_drop=0.10,
        calibration_images=split.train.images[:64],
    )
    narrowed = [n for n, spec in assignment.items() if spec.weight_bits == 8]
    assert narrowed, "expected the greedy search to narrow some layer"
    assert len(trace) >= 2
