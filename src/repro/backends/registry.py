"""Backend registry: name -> backend instance.

A quantized forward runs on the backend its call names — a name or a
:class:`Backend` instance passed as ``backend=`` to
``QuantizedNetwork.infer`` or ``freeze``, or looked up here with
:func:`get` / :func:`resolve` — and otherwise on
:data:`DEFAULT_BACKEND`, ``"fused"`` (bitwise-equal to the reference
path for every paper precision).  Nothing process-wide picks one.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Union

from repro.backends.base import Backend
from repro.backends.fused import FusedBackend
from repro.backends.reference import ReferenceBackend
from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_BACKEND",
    "available",
    "get",
    "register",
    "resolve",
]

#: The backend a forward runs on when its call names none.
DEFAULT_BACKEND = "fused"

_lock = threading.Lock()
_factories: Dict[str, Callable[[], Backend]] = {
    "reference": ReferenceBackend,
    "fused": FusedBackend,
}
_instances: Dict[str, Backend] = {}


def register(name: str, factory: Callable[[], Backend]) -> None:
    """Add (or replace) a backend under ``name``.

    ``factory`` is called once, lazily, on the first :func:`get`;
    re-registering drops any existing instance so the next ``get``
    builds from the new factory.
    """
    if not name:
        raise ConfigurationError("backend name must be non-empty")
    with _lock:
        _factories[name] = factory
        _instances.pop(name, None)


def available() -> List[str]:
    """Registered backend names, sorted."""
    with _lock:
        return sorted(_factories)


def get(name: str) -> Backend:
    """The (lazily constructed, shared) backend registered as ``name``."""
    with _lock:
        if name not in _factories:
            raise ConfigurationError(
                f"unknown backend {name!r}; available: "
                f"{', '.join(sorted(_factories))}"
            )
        instance = _instances.get(name)
        if instance is None:
            instance = _instances[name] = _factories[name]()
            if not instance.name:
                instance.name = name
        return instance


def resolve(backend: Union[Backend, str, None] = None) -> Backend:
    """Normalize an optional backend argument to a :class:`Backend`
    (``None`` is :data:`DEFAULT_BACKEND`)."""
    if backend is None:
        return get(DEFAULT_BACKEND)
    if isinstance(backend, str):
        return get(backend)
    if isinstance(backend, Backend):
        return backend
    raise ConfigurationError(
        f"backend must be a name or Backend instance, got {type(backend).__name__}"
    )
