"""Public API surface checks: every exported name resolves."""

import importlib

import pytest

import repro

PACKAGES = ["repro", "repro.nn", "repro.core", "repro.data", "repro.hw",
            "repro.zoo", "repro.experiments", "repro.serve", "repro.obs",
            "repro.parallel", "repro.resilience", "repro.registry",
            "repro.kernels", "repro.backends", "repro.control"]


def test_version_exposed():
    assert repro.__version__ == "1.0.0"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} must declare __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_docstrings(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__ and len(package.__doc__) > 80, (
        f"{package_name} needs real documentation"
    )


def test_backend_surface_locked():
    """The backend-dispatch API the redesign introduced stays put."""
    from repro import backends, kernels
    from repro.core import QuantizedNetwork

    for name in ("Backend", "DEFAULT_BACKEND", "available", "get",
                 "register", "resolve", "compile_units"):
        assert name in backends.__all__, f"repro.backends.{name} unlisted"
    # a call names its backend or runs on fused: no process-wide choice
    assert not {"ENV_VAR", "get_default", "set_default", "using_backend"} & set(
        dir(backends))
    for name in ("Workspace", "fused_quantize", "fused_relu_quantize"):
        assert name in kernels.__all__, f"repro.kernels.{name} unlisted"
    assert set(backends.available()) >= {"reference", "fused"}
    # the single public inference entry point with per-call backend choice
    assert callable(QuantizedNetwork.infer)
    import inspect

    parameters = inspect.signature(QuantizedNetwork.infer).parameters
    assert "backend" in parameters and "batch_size" in parameters
    assert "backend" in inspect.signature(QuantizedNetwork.freeze).parameters


def test_no_accidental_private_exports():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        for name in package.__all__:
            if name == "__version__":
                continue  # the one intentional dunder export
            assert not name.startswith("_"), f"{package_name} exports {name}"
