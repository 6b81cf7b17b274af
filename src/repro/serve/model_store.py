"""Servable cache: load, calibrate, freeze and evict quantized models.

A *servable* is a fully prepared inference artifact for one
``(network, precision)`` pair: weights loaded (via
``repro.nn.serialization``), activation ranges calibrated, quantized
parameter copies baked in via
:meth:`repro.core.QuantizedNetwork.freeze`, and the per-image modeled
energy pre-resolved from :class:`repro.hw.energy.EnergyModel`.  Each
servable owns a private network instance, so freezing never disturbs a
network the caller is training elsewhere, and worker threads can share
the frozen pipeline without synchronization.

The store keeps servables in an LRU map under a memory budget derived
from :func:`repro.hw.memory_footprint.network_memory_footprint` — the
same accounting the paper uses in Section V-B, so an int8 model costs
the cache ~4x less than its float32 twin, exactly as it would on the
accelerator's buffers.
"""

from __future__ import annotations

import functools
import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from repro.core.precision import PrecisionSpec
from repro.core.quantized import FrozenQuantizedNetwork, QuantizedNetwork
from repro.data.registry import load_dataset
from repro.errors import FaultInjectedError
from repro.hw.energy import EnergyModel
from repro.hw.memory_footprint import network_memory_footprint
from repro.nn.serialization import load_network_state, load_network_weights, state_digest
from repro.obs.metrics import get_metrics
from repro.resilience.faults import get_injector
from repro.resilience.retry import RetryPolicy, retry_call
from repro.serve.request import ModelKey
from repro.zoo.registry import build_network, network_info

logger = logging.getLogger(__name__)

#: Errors worth a rebuilt attempt: injected chaos and transient I/O
#: (e.g. a checkpoint read hiccup).  Real configuration mistakes
#: (unknown network, bad spec) propagate on the first try.
RETRYABLE_BUILD_ERRORS: Tuple[Type[BaseException], ...] = (
    FaultInjectedError,
    OSError,
)


@dataclass
class Servable:
    """One ready-to-serve frozen model plus its accounting metadata."""

    key: ModelKey
    frozen: FrozenQuantizedNetwork
    input_shape: Tuple[int, ...]
    memory_kb: float             # paper-style footprint at this precision
    energy_uj_per_image: float   # modeled accelerator energy per inference
    weights_digest: str          # SHA-256 of the loaded float parameters
    registry_digest: Optional[str] = None   # artifact digest when deployed
    registry_version: Optional[int] = None  # channel version when deployed

    def forward(self, batch: np.ndarray) -> np.ndarray:
        return self.frozen.forward(batch)


class ModelStore:
    """LRU cache of calibrated, frozen quantized networks.

    Args:
        memory_budget_kb: evict least-recently-used servables once the
            summed footprint exceeds this (the most recent entry is
            always kept, so one oversized model still serves).
        weight_paths: optional ``network name -> .npz path`` map; names
            without an entry serve freshly initialized weights (useful
            for load testing without a training run).
        calibration_images: how many task images calibrate each model's
            activation ranges.
        calibration_data: optional ``dataset name -> images`` override;
            when absent the registry's synthetic task data is used.
        seed: build seed for networks served without trained weights.
        retry_policy: backoff policy for servable builds that fail with
            a :data:`RETRYABLE_BUILD_ERRORS` type (injected faults,
            transient I/O); other errors propagate immediately.

    Eviction only drops the cache's reference — workers holding a
    servable for an in-flight batch keep it alive until they finish.
    """

    def __init__(
        self,
        memory_budget_kb: float = 16384.0,
        weight_paths: Optional[Dict[str, str]] = None,
        calibration_images: int = 128,
        calibration_data: Optional[Dict[str, np.ndarray]] = None,
        seed: int = 0,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.memory_budget_kb = memory_budget_kb
        self.weight_paths = dict(weight_paths or {})
        self.calibration_images = calibration_images
        #: the store's own energy model; its reports are cached per
        #: (network, shape, precision)
        self.energy_model = EnergyModel()
        self.seed = seed
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay_s=0.01, max_delay_s=0.25
        )
        self._calibration: Dict[str, np.ndarray] = dict(calibration_data or {})
        self._entries: "OrderedDict[ModelKey, Servable]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def calibration_for(self, dataset: str) -> np.ndarray:
        """Calibration images for ``dataset`` (loaded once, then cached)."""
        if dataset not in self._calibration:
            split = load_dataset(
                dataset,
                n_train=max(self.calibration_images, 32),
                n_test=32,
                seed=self.seed,
            )
            self._calibration[dataset] = split.train.images[: self.calibration_images]
        return self._calibration[dataset]

    def build_servable(
        self,
        key: ModelKey,
        state: Optional[Dict[str, np.ndarray]] = None,
        artifact: Optional[Tuple[str, int]] = None,
    ) -> Servable:
        """Load, calibrate and freeze one servable, uncached.

        Its weights are ``state`` when given (a registry artifact's, with
        ``artifact`` its ``(digest, version)``), else the ``weight_paths``
        checkpoint, else a fresh initialization.  The registry builds
        rolled-out artifacts here, then :meth:`install` s them.
        """
        info = network_info(key.network)
        spec = PrecisionSpec.parse(key.precision)
        network = build_network(key.network, seed=self.seed)
        if state is not None:
            load_network_state(network, state)
        elif key.network in self.weight_paths:
            load_network_weights(network, self.weight_paths[key.network])
        digest = state_digest(network)
        qnet = QuantizedNetwork(network, spec)
        if not spec.is_float:
            qnet.calibrate(self.calibration_for(info.dataset))
        energy = self.energy_model.evaluate_cached(network, info.input_shape, spec)
        footprint = network_memory_footprint(network, info.input_shape, spec)
        registry_digest, registry_version = artifact or (None, None)
        return Servable(
            key=key,
            frozen=qnet.freeze(),
            input_shape=info.input_shape,
            memory_kb=footprint.total_kb,
            energy_uj_per_image=energy.energy_uj,
            weights_digest=digest,
            registry_digest=registry_digest,
            registry_version=registry_version,
        )

    def _build_on_miss(self, key: ModelKey) -> Servable:
        get_injector().fire("store.build")
        return self.build_servable(key)

    def _evict_over_budget(self) -> None:
        while len(self._entries) > 1 and self.total_memory_kb > self.memory_budget_kb:
            evicted_key, _ = self._entries.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    def get(self, network: str, precision: str) -> Servable:
        """Fetch (building and calibrating on miss) one servable.

        Misses build under the store's retry policy, so a transient
        failure (an injected fault, a flaky checkpoint read) costs a
        backoff sleep rather than failing every request in the batch
        that needed the model.
        """
        key = ModelKey(network=network, precision=precision)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            servable = retry_call(
                functools.partial(self._build_on_miss, key),
                policy=self.retry_policy,
                retry_on=RETRYABLE_BUILD_ERRORS,
                on_retry=self._note_build_retry,
            )
            self._entries[key] = servable
            self._evict_over_budget()
            return servable

    def install(self, servable: Servable) -> Optional[Servable]:
        """Atomically (re)place the cache entry for ``servable.key``.

        This is the zero-downtime swap slot used by
        :class:`repro.registry.Deployer`: the new servable is built and
        calibrated entirely outside the lock, then swapped in here in
        one locked assignment.  Workers that grabbed the previous
        servable for an in-flight batch keep their reference and finish
        on the old weights; every later :meth:`get` returns the new
        one.  Returns the replaced servable (``None`` on first
        install), which the caller keeps for rollback.
        """
        with self._lock:
            previous = self._entries.pop(servable.key, None)
            self._entries[servable.key] = servable
            self._evict_over_budget()
            return previous

    @staticmethod
    def _note_build_retry(attempt: int, error: BaseException) -> None:
        logger.warning(
            "model store: servable build attempt %d failed (%s); retrying",
            attempt + 1, error,
        )
        get_metrics().counter("serve.store_build_retries").inc()

    def warm(self, network: str, precision: str) -> Servable:
        """Alias for :meth:`get`, named for pre-loading before traffic."""
        return self.get(network, precision)

    # ------------------------------------------------------------------
    @property
    def total_memory_kb(self) -> float:
        return sum(entry.memory_kb for entry in self._entries.values())

    def cached_keys(self) -> List[ModelKey]:
        """LRU -> MRU order of currently cached servables."""
        with self._lock:
            return list(self._entries.keys())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ModelStore({len(self._entries)} cached, "
            f"{self.total_memory_kb:.0f}/{self.memory_budget_kb:.0f} KB)"
        )
