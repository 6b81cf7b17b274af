"""Backend registry, selection, and entry-point contracts."""

import numpy as np
import pytest

from repro import backends, core, nn
from repro.errors import ConfigurationError
from tests.conftest import make_tiny_cnn


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_builtin_backends_registered():
    assert backends.available() == ["fused", "reference"]
    assert backends.get("reference").name == "reference"
    assert backends.get("fused").name == "fused"
    # instances are shared singletons
    assert backends.get("fused") is backends.get("fused")


def test_unknown_backend_raises_with_choices():
    with pytest.raises(ConfigurationError, match="unknown backend 'nope'"):
        backends.get("nope")
    with pytest.raises(ConfigurationError, match="available"):
        backends.resolve("nope")


def test_register_custom_backend():
    class EchoBackend(backends.ReferenceBackend):
        name = "echo"

    backends.register("echo", EchoBackend)
    try:
        assert "echo" in backends.available()
        assert isinstance(backends.resolve("echo"), EchoBackend)
    finally:
        # drop it again to keep the registry canonical for other tests
        from repro.backends import registry as backend_registry

        backend_registry._factories.pop("echo", None)
        backend_registry._instances.pop("echo", None)


# ----------------------------------------------------------------------
# Selection: the backend the call names, else fused
# ----------------------------------------------------------------------
def test_default_is_fused(tiny_digits):
    assert backends.DEFAULT_BACKEND == "fused"
    assert backends.resolve(None).name == "fused"
    qnet = core.QuantizedNetwork(make_tiny_cnn(), "fixed8")
    qnet.calibrate(tiny_digits.train.images[:16])
    images = tiny_digits.test.images[:3]
    # a call that names a backend runs on it; one that names none, fused
    reference = qnet.infer(images, backend="reference")
    assert reference.shape == (3, 10)
    np.testing.assert_array_equal(qnet.infer(images), reference)
    frozen = qnet.freeze()
    try:
        assert frozen.backend is backends.get("fused")
    finally:
        frozen.thaw()


def test_resolve_accepts_instances_and_rejects_junk():
    instance = backends.FusedBackend()
    assert backends.resolve(instance) is instance
    with pytest.raises(ConfigurationError, match="name or Backend"):
        backends.resolve(42)


# ----------------------------------------------------------------------
# Per-operation entry points
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["reference", "fused"])
def test_entry_points_match_layer_forward(name, rng):
    impl = backends.get(name)
    dense = nn.Dense(12, 5, name="d", rng=rng)
    dense.eval_mode()
    x2 = rng.standard_normal((3, 12)).astype(np.float32)
    np.testing.assert_array_equal(impl.dense(dense, x2), dense.forward(x2))

    conv = nn.Conv2D(2, 3, kernel_size=3, padding=1, name="c", rng=rng)
    conv.eval_mode()
    x4 = rng.standard_normal((2, 2, 8, 8)).astype(np.float32)
    np.testing.assert_array_equal(impl.conv(conv, x4), conv.forward(x4))

    for pool in (nn.MaxPool2D(2, name="mp"), nn.AvgPool2D(2, name="ap")):
        pool.eval_mode()
        np.testing.assert_array_equal(impl.pool(pool, x4), pool.forward(x4))

    relu = nn.ReLU(name="r")
    relu.eval_mode()
    np.testing.assert_array_equal(impl.act(relu, x4), relu.forward(x4))


def test_entry_points_return_caller_owned_arrays(rng):
    impl = backends.get("fused")
    dense = nn.Dense(6, 4, name="d", rng=rng)
    dense.eval_mode()
    x = rng.standard_normal((2, 6)).astype(np.float32)
    first = impl.dense(dense, x)
    snapshot = first.copy()
    impl.dense(dense, rng.standard_normal((2, 6)).astype(np.float32))
    np.testing.assert_array_equal(first, snapshot)
    assert first.base is None, "entry points must not return scratch views"


def test_compile_units_absorbs_trailing_quant():
    qnet = core.QuantizedNetwork(make_tiny_cnn(), "fixed8")
    units = backends.compile_units(qnet.pipeline)
    # quant_in leads as its own unit; every conv/dense unit carries its
    # trailing FakeQuantLayer; pools/flatten have none
    assert units[0].kind == "quant"
    by_kind = {}
    for unit in units:
        by_kind.setdefault(unit.kind, []).append(unit)
    assert all(u.quant is not None for u in by_kind["conv"])
    assert all(u.quant is not None for u in by_kind["dense"])
    assert all(u.quant is None for u in by_kind["maxpool"])
    assert all(u.quant is None for u in by_kind["reshape"])
    total_layers = sum(
        2 if unit.quant is not None else 1 for unit in units
    )
    assert total_layers == len(qnet.pipeline.layers)


def test_frozen_view_uses_selected_backend(tiny_digits):
    qnet = core.QuantizedNetwork(make_tiny_cnn(), "fixed8")
    qnet.calibrate(tiny_digits.train.images[:16])
    frozen = qnet.freeze(backend="fused")
    try:
        assert frozen.backend is backends.get("fused")
        out = frozen.forward(tiny_digits.test.images[:2])
        assert out.shape == (2, 10)
    finally:
        frozen.thaw()
