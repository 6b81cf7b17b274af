"""Quantized-inference emulation: wrap a float network in a precision spec.

The wrapper reproduces Ristretto's emulation strategy: values are
quantized onto the target format's representable grid but computation
runs in float32, which is exact because every representable fixed-point
/ power-of-two / binary value (and every product/sum the accelerator's
datapath produces at these widths) is itself a float32-representable
number.

Weight quantization is applied by temporarily swapping quantized values
into the shared :class:`~repro.nn.tensor.Parameter` objects; feature
maps are quantized by :class:`~repro.core.fake_quant.FakeQuantLayer`
modules interleaved into the pipeline, mirroring the accelerator's
buffer writes (NFU results are stored to the 16-/8-/4-bit output buffer
before feeding the next layer).
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backends import Backend

from repro.core.factory import make_quantizers
from repro.core.fake_quant import FakeQuantLayer
from repro.core.fixed_point import FixedPointQuantizer
from repro.core.precision import LayeredPrecisionSpec, PrecisionSpec
from repro.core.quantizers import IdentityQuantizer, Quantizer
from repro.errors import ConfigError, ConfigurationError
from repro.nn.dense import Flatten
from repro.nn.evaluation import EvalResult
from repro.nn.metrics import accuracy
from repro.nn.module import Module
from repro.nn.network import Sequential
from repro.nn.pooling import MaxPool2D
from repro.nn.tensor import Parameter


def _resolve_backend(backend: Union["Backend", str, None]) -> "Backend":
    """Late-bound backend resolution (``repro.backends`` imports core)."""
    from repro import backends

    return backends.resolve(backend)


def _needs_activation_quant(layer: Module) -> bool:
    """Layers whose outputs are new values that the hardware would store
    at limited precision.  MaxPool and Flatten only move existing
    (already-quantized) values, so re-quantizing them is a no-op."""
    return not isinstance(layer, (MaxPool2D, Flatten, FakeQuantLayer))


class QuantizedNetwork:
    """A float network executed under a precision specification.

    The one constructor for every precision spec: each weight tensor
    gets the quantizer of the uniform spec
    :meth:`PrecisionSpec.weight_layer_specs` assigns its layer, so a
    per-layer spec (``"fixed:2,4,8,8:8"``) runs every layer at its own
    width and a uniform spec runs all of them at one.

    Args:
        network: the underlying :class:`Sequential`; its parameters are
            shared (the wrapper never copies weights — the shadow
            full-precision values live in the network itself).
        spec: the precision point to emulate — a :class:`PrecisionSpec`
            or any string :meth:`PrecisionSpec.parse` accepts
            (``"fixed8"``, ``"fixed:4:8"``, ``"fixed:2,4,8,8:8"``, ...).
        quantize_bias: quantize bias vectors at the *input* precision
            (the accumulator width); the paper keeps biases at the wider
            input precision rather than the weight precision.
        weight_quantizer / activation_factory: override the quantizers
            the spec would select (used by the radix-placement ablation
            benchmarks); ``None`` uses
            :func:`repro.core.make_quantizers`.  A weight quantizer
            override applies to every tensor, so a per-layer spec
            rejects it with :class:`~repro.errors.ConfigError`.
        backend: the :mod:`repro.backends` compute backend used by
            :meth:`infer` / :meth:`predict` / :meth:`evaluate` when no
            per-call backend is given — a name, a ``Backend`` instance,
            or ``None`` for the process default.
    """

    def __init__(
        self,
        network: Sequential,
        spec: Union[PrecisionSpec, str],
        quantize_bias: bool = True,
        weight_quantizer: Optional[Quantizer] = None,
        activation_factory: Optional[Callable[[], Quantizer]] = None,
        backend: Union["Backend", str, None] = None,
    ):
        spec = PrecisionSpec.parse(spec)
        if weight_quantizer is not None and isinstance(spec, LayeredPrecisionSpec):
            raise ConfigError(
                "weight_quantizer", f"spec {spec.key!r} sets a width per layer"
            )
        self.network = network
        self.spec = spec
        self.backend = backend
        self._weight_quantizers: Dict[int, Quantizer] = {
            id(param): weight_quantizer or make_quantizers(layer_spec)[0]
            for layer, layer_spec in spec.weight_layer_specs(network)
            for param in layer.weight_parameters()
        }
        activation_factory = activation_factory or make_quantizers(spec)[1]
        self.bias_quantizer: Quantizer = (
            IdentityQuantizer(32)
            if spec.is_float or not quantize_bias
            else FixedPointQuantizer(spec.input_bits)
        )

        layers: List[Module] = [FakeQuantLayer(activation_factory(), name="quant_in")]
        for layer in network.layers:
            layers.append(layer)
            if _needs_activation_quant(layer):
                layers.append(
                    FakeQuantLayer(activation_factory(), name=f"quant_{layer.name}")
                )
        self.pipeline = Sequential(layers, name=f"{network.name}[{spec.key}]")

        self._weight_params: List[Parameter] = network.weight_parameters()
        weight_ids = {id(p) for p in self._weight_params}
        self._bias_params: List[Parameter] = [
            p for p in network.parameters() if id(p) not in weight_ids
        ]
        self._shadow: Optional[Dict[int, np.ndarray]] = None
        self._swap_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Weight swapping
    # ------------------------------------------------------------------
    def weight_quantizer_for(self, param: Parameter) -> Quantizer:
        """Quantizer applied to one weight tensor (its layer's width)."""
        return self._weight_quantizers[id(param)]

    def quantized_parameter_data(self) -> Dict[int, np.ndarray]:
        """Precomputed quantized copies of every parameter, keyed by id.

        The shared :class:`Parameter` objects are read but never written,
        so this is safe to call from any thread at any time.
        """
        quantized: Dict[int, np.ndarray] = {}
        for param in self._weight_params:
            quantized[id(param)] = self.weight_quantizer_for(param).quantize(
                param.data
            )
        for param in self._bias_params:
            quantized[id(param)] = self.bias_quantizer.quantize(param.data)
        return quantized

    def _swap_in_quantized(self) -> None:
        """Replace parameter data with quantized values (shadow saved).

        Swapping mutates the ``Parameter`` objects *shared with the float
        network*, so at most one swap may be active at a time; a second
        concurrent swap raises :class:`ConfigurationError` (the check-and-
        set is atomic under an internal lock).  For lock-free concurrent
        inference use :meth:`freeze` instead.
        """
        quantized = self.quantized_parameter_data()
        with self._swap_lock:
            if self._shadow is not None:
                raise ConfigurationError("quantized weights already swapped in")
            self._shadow = {}
            for param in self._weight_params + self._bias_params:
                self._shadow[id(param)] = param.data.copy()
                param.data[...] = quantized[id(param)]

    def _restore_shadow(self) -> None:
        """Restore the full-precision shadow values saved by swap-in."""
        with self._swap_lock:
            if self._shadow is None:
                raise ConfigurationError("no shadow weights to restore")
            for param in self._weight_params + self._bias_params:
                param.data[...] = self._shadow[id(param)]
            self._shadow = None

    @contextlib.contextmanager
    def quantized_weights(self):
        """Context manager: quantized values in, shadow restored on exit.

        NOT thread-safe: the swap mutates shared parameters, so two
        threads entering this context on the same underlying network race
        on the weight values.  The second concurrent entry raises
        :class:`ConfigurationError`; concurrent serving should go through
        :meth:`freeze` / :class:`FrozenQuantizedNetwork`.
        """
        self._swap_in_quantized()
        try:
            yield self
        finally:
            self._restore_shadow()

    def freeze(
        self, backend: Union["Backend", str, None] = None
    ) -> "FrozenQuantizedNetwork":
        """Bake quantized weights in and return a thread-safe view.

        See :class:`FrozenQuantizedNetwork`; while frozen, the underlying
        float network holds the quantized values and further swaps are
        rejected.  Call :meth:`FrozenQuantizedNetwork.thaw` to restore the
        full-precision weights.  ``backend`` pins the compute backend the
        frozen view runs on (``None`` follows this network's backend).
        """
        return FrozenQuantizedNetwork(self, backend=backend)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def calibrate(self, images: np.ndarray, batch_size: int = 64) -> None:
        """Run calibration batches so activation trackers learn ranges."""
        self.pipeline.train_mode()
        try:
            with self.quantized_weights():
                for start in range(0, images.shape[0], batch_size):
                    self.pipeline.forward(images[start : start + batch_size])
        finally:
            self.pipeline.eval_mode()

    def infer(
        self,
        images: np.ndarray,
        batch_size: int = 128,
        backend: Union["Backend", str, None] = None,
    ) -> np.ndarray:
        """Quantized inference logits — the single public entry point.

        Quantized weights are swapped in for the duration of the call and
        the batch loop runs on a :mod:`repro.backends` compute backend.
        ``backend`` overrides, per call, the backend chosen at
        construction (which in turn defaults to the process-wide
        selection — see :func:`repro.backends.get_default`).
        """
        impl = _resolve_backend(backend if backend is not None else self.backend)
        with self.quantized_weights():
            return impl.predict(self.pipeline, images, batch_size=batch_size)

    def predict(self, images: np.ndarray, batch_size: int = 128) -> np.ndarray:
        """Quantized inference logits (alias of :meth:`infer`)."""
        return self.infer(images, batch_size=batch_size)

    def evaluate(self, images: np.ndarray, labels: np.ndarray) -> EvalResult:
        """Quantized test accuracy as an :class:`EvalResult`.

        The result compares and formats like the accuracy float this
        method used to return, and carries ``n_samples``/``elapsed_s``.
        """
        start = time.perf_counter()
        acc = accuracy(self.predict(images), labels)
        return EvalResult(
            acc,
            n_samples=int(len(labels)),
            elapsed_s=time.perf_counter() - start,
        )

    def weight_quantization_errors(self) -> Dict[str, float]:
        """Per-weight-tensor RMS quantization error at this precision.

        Keys are parameter names (``"conv1.weight"``).  Must be called
        while the full-precision values are resident (i.e. not inside
        ``quantized_weights()`` and not while frozen), otherwise the
        error is measured against already-quantized values and reads
        as ~0.
        """
        return {
            param.name: float(
                self.weight_quantizer_for(param).quantization_error(param.data)
            )
            for param in self._weight_params
        }

    # ------------------------------------------------------------------
    def quantized_state(self) -> Dict[str, np.ndarray]:
        """Name -> quantized weight arrays (for inspection/memory tests)."""
        state = {}
        with self.quantized_weights():
            for param in self.network.parameters():
                state[param.name] = param.data.copy()
        return state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"QuantizedNetwork({self.network.name!r}, {self.spec.label})"


class FrozenQuantizedNetwork:
    """Read-only quantized-inference view, safe for concurrent forwards.

    The weight-swap context manager of :class:`QuantizedNetwork` mutates
    the ``Parameter`` objects shared with the float network, so two
    threads running ``predict`` on the same wrapper race on the weight
    values.  Freezing removes the mutation from the inference path:
    quantized parameter copies are precomputed once and installed for the
    lifetime of the frozen view, the pipeline is put in eval mode, and
    ``forward`` runs the (now read-only) pipeline on the backend resolved
    at freeze time (``freeze(backend=...)``).  Every layer caches
    backward state only in training mode, and the fused backend keeps its
    plan and workspaces thread-local, so concurrent forwards do not
    interfere — this is what lets a serving engine share one calibrated
    network across a pool of worker threads.

    While frozen, the underlying float network holds the quantized
    values; :meth:`thaw` restores the full-precision shadow and
    invalidates the view.  Entering ``quantized_weights()`` on the
    wrapped :class:`QuantizedNetwork` while frozen raises
    :class:`ConfigurationError` (the swap slot is occupied).
    """

    def __init__(
        self,
        qnet: QuantizedNetwork,
        backend: Union["Backend", str, None] = None,
    ):
        self.qnet = qnet
        self.spec = qnet.spec
        self.pipeline = qnet.pipeline
        # Resolved once at freeze time so every serving thread runs the
        # same backend for the lifetime of this view.
        self.backend = _resolve_backend(
            backend if backend is not None else qnet.backend
        )
        qnet._swap_in_quantized()
        self.pipeline.eval_mode()
        self._active = True

    @property
    def active(self) -> bool:
        return self._active

    def _check_active(self) -> None:
        if not self._active:
            raise ConfigurationError("frozen network has been thawed")

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """Quantized logits for one NCHW batch (thread-safe)."""
        self._check_active()
        return self.backend.run(self.pipeline, batch)

    def predict(self, images: np.ndarray, batch_size: int = 128) -> np.ndarray:
        """Batched quantized inference logits (thread-safe)."""
        self._check_active()
        # an empty input still runs one (empty) batch
        return np.concatenate(
            [
                self.forward(images[start : start + batch_size])
                for start in range(0, max(images.shape[0], 1), batch_size)
            ],
            axis=0,
        )

    def evaluate(self, images: np.ndarray, labels: np.ndarray) -> EvalResult:
        """Quantized test accuracy as an :class:`EvalResult` (thread-safe)."""
        start = time.perf_counter()
        acc = accuracy(self.predict(images), labels)
        return EvalResult(
            acc,
            n_samples=int(len(labels)),
            elapsed_s=time.perf_counter() - start,
        )

    def thaw(self) -> QuantizedNetwork:
        """Restore full-precision weights and invalidate this view."""
        self._check_active()
        self._active = False
        self.qnet._restore_shadow()
        return self.qnet

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self._active else "thawed"
        return f"FrozenQuantizedNetwork({self.pipeline.name!r}, {state})"
