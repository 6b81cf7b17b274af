"""Content-addressed on-disk cache of sweep-point results.

Every (network, data, precision, training-budget) point is addressed by
a SHA-256 digest over everything that determines its outcome:

* ``init_digest`` — :func:`repro.nn.serialization.state_digest` of the
  freshly built network's initial weights (covers architecture, layer
  names, shapes *and* the init seed),
* the precision spec key (``"fixed8"``, ``"fixed:4:8"``, ...),
* a fingerprint of the train/val/test split (shapes + exact bytes),
* the :class:`~repro.core.sweep.SweepConfig` hyperparameters,
* a code-version salt (package version + cache schema), so results
  trained by incompatible code never alias.

Entries are JSON files under ``~/.cache/repro-sweeps`` (override with
the ``REPRO_SWEEP_CACHE`` environment variable or the ``root``
argument), sharded by the first two hex digits of the key.  Trained
weights are stored next to a result as an ``.npz``: the float
baseline's, so resumed or parallel sweeps warm-start without
retraining, and every point's of a keep-states (publishing) sweep.
Writes are atomic (temp file + ``os.replace``); a corrupted or
unreadable entry is treated as a miss, removed, and re-trained — a
warning is logged, the sweep never fails because of a bad cache file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.precision import PrecisionSpec
from repro.core.sweep import PrecisionResult, SweepConfig
from repro.data.dataset import DataSplit
from repro.data.registry import is_memoized
from repro.errors import FaultInjectedError
from repro.ioutil import atomic_write
from repro.resilience.faults import get_injector
from repro.version import __version__

__all__ = [
    "SweepCache",
    "default_cache_dir",
    "split_fingerprint",
    "config_fingerprint",
    "result_to_payload",
    "payload_to_result",
]

logger = logging.getLogger(__name__)

#: Bump when the stored payload layout or training semantics change in
#: a way that makes old entries wrong (part of every cache key).
CACHE_SCHEMA = 1

_ENV_VAR = "REPRO_SWEEP_CACHE"


def default_cache_dir() -> str:
    """``$REPRO_SWEEP_CACHE`` or ``~/.cache/repro-sweeps``."""
    env = os.environ.get(_ENV_VAR, "").strip()
    if env:
        return os.path.expanduser(env)
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-sweeps")


#: ids of a frozen split's six arrays -> (weak references to them, digest)
_split_digests: Dict[Tuple[int, ...], Tuple[Tuple[weakref.ref, ...], str]] = {}


def split_fingerprint(split: DataSplit) -> str:
    """SHA-256 over the exact contents of all three split parts.

    Covers shapes, dtypes and raw bytes of images and labels, so any
    change to dataset size, seed, normalization or augmentation yields
    a different fingerprint (and therefore different cache keys).

    A split whose six arrays all come from
    :func:`repro.data.load_dataset`'s memo
    (:func:`~repro.data.registry.is_memoized`) cannot change, so its
    digest is computed once per process and returned for those same
    array objects afterwards (checked through weak references; the
    digest is dropped when an array is freed).  Any other split is
    hashed on every call.
    """
    arrays = tuple(
        array
        for part in (split.train, split.val, split.test)
        for array in (part.images, part.labels)
    )
    if not all(map(is_memoized, arrays)):
        return _hash_split(split)
    key = tuple(map(id, arrays))
    stored = _split_digests.get(key)
    if stored is not None and all(
        ref() is array for ref, array in zip(stored[0], arrays)
    ):
        return stored[1]
    digest = _hash_split(split)

    def forget(_ref: weakref.ref) -> None:
        _split_digests.pop(key, None)

    _split_digests[key] = (tuple(weakref.ref(a, forget) for a in arrays), digest)
    return digest


def _hash_split(split: DataSplit) -> str:
    """One SHA-256 pass over every byte of the split."""
    digest = hashlib.sha256()
    for part_name in ("train", "val", "test"):
        part = getattr(split, part_name)
        for array in (part.images, part.labels):
            array = np.ascontiguousarray(array)
            digest.update(part_name.encode("ascii"))
            digest.update(str(array.dtype).encode("ascii"))
            digest.update(str(array.shape).encode("ascii"))
            digest.update(array.tobytes())
    return digest.hexdigest()


def config_fingerprint(config: SweepConfig) -> str:
    """SHA-256 over the sweep's training hyperparameters."""
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def result_to_payload(result: PrecisionResult) -> Dict[str, object]:
    """JSON-serializable form of a :class:`PrecisionResult`.

    Floats survive the round trip exactly (``json`` emits shortest
    round-trip reprs), which is what lets cached results stay bitwise
    identical to freshly trained ones.
    """
    return {
        "schema": CACHE_SCHEMA,
        "version": __version__,
        "spec": result.spec.key,
        "accuracy": float(result.accuracy),
        "converged": bool(result.converged),
        "history": {
            name: [float(v) for v in values]
            for name, values in result.history.items()
        },
    }


def payload_to_result(payload: Dict[str, object]) -> PrecisionResult:
    """Inverse of :func:`result_to_payload` (raises on malformed input)."""
    return PrecisionResult(
        spec=PrecisionSpec.parse(payload["spec"]),
        accuracy=float(payload["accuracy"]),
        converged=bool(payload["converged"]),
        history={
            str(name): [float(v) for v in values]
            for name, values in dict(payload["history"]).items()
        },
    )


class SweepCache:
    """Directory-backed result cache with hit/miss accounting.

    Args:
        root: cache directory; defaults to :func:`default_cache_dir`.
        salt: extra component mixed into every :meth:`point_key`.
            The search passes its search-space fingerprint here, so a
            resumed search only ever reads entries produced by an
            identical space definition — the property that makes
            ``--resume`` bitwise-reproducible at any worker count.
            The default empty salt leaves plain-sweep keys unchanged.

    The instance counts ``hits`` / ``misses`` for reporting; the
    executor additionally feeds the shared metrics registry.
    """

    def __init__(self, root: Optional[str] = None, salt: str = ""):
        self.root = os.path.abspath(os.path.expanduser(root or default_cache_dir()))
        self.salt = salt
        self.hits = 0
        self.misses = 0

    # -- keys ----------------------------------------------------------
    def point_key(
        self,
        init_digest: str,
        spec_key: str,
        split_fp: str,
        config_fp: str,
    ) -> str:
        """Content address of one sweep point (see module docstring)."""
        digest = hashlib.sha256()
        components = [
            f"repro-sweep-cache-v{CACHE_SCHEMA}",
            __version__,
            init_digest,
            spec_key,
            split_fp,
            config_fp,
        ]
        if self.salt:
            # appended (not inserted) so the empty-salt keys are byte-
            # identical to pre-salt caches
            components.append(f"salt:{self.salt}")
        for component in components:
            digest.update(str(component).encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()

    def _path(self, key: str, suffix: str) -> str:
        return os.path.join(self.root, key[:2], key + suffix)

    # -- results -------------------------------------------------------
    def get(
        self, key: str, require_state: bool = False
    ) -> Optional[PrecisionResult]:
        """Cached result for ``key``, or None (corrupt entries -> miss).

        ``require_state`` makes a result-only entry — one whose weights
        ``.npz`` is absent — a miss, counted once as such: callers that
        need the trained weights retrain the point.  Only the file's
        existence is checked; :meth:`get_state` reads it.

        The ``cache.read`` fault-injection site lives here: an injected
        raise is treated as a transient miss (the entry survives on
        disk), an injected corruption flows through the normal
        corrupt-entry recovery below.
        """
        path = self._path(key, ".json")
        try:
            get_injector().fire("cache.read")
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            payload = get_injector().corrupt("cache.read", payload)
            if payload.get("schema") != CACHE_SCHEMA:
                raise ValueError(f"schema {payload.get('schema')!r}")
            result = payload_to_result(payload)
        except FileNotFoundError:
            self.misses += 1
            return None
        except FaultInjectedError:
            logger.warning(
                "sweep cache: injected fault reading %s; treating as a miss",
                path,
            )
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError) as exc:
            logger.warning(
                "sweep cache: dropping corrupt entry %s (%s); re-running point",
                path, exc,
            )
            self._remove(path)
            self.misses += 1
            return None
        if require_state and not os.path.exists(self._path(key, ".npz")):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: PrecisionResult) -> str:
        """Atomically store ``result``; returns the entry path."""
        path = self._path(key, ".json")
        payload = json.dumps(result_to_payload(result), indent=1, sort_keys=True)
        atomic_write(path, payload.encode("utf-8"))
        return path

    # -- weight states (baseline warm-starts, publishable points) ------
    def get_state(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        """Cached parameter arrays for ``key``, or None."""
        path = self._path(key, ".npz")
        try:
            with np.load(path) as archive:
                return {name: archive[name] for name in archive.files}
        except FileNotFoundError:
            return None
        except (ValueError, OSError, EOFError) as exc:
            logger.warning(
                "sweep cache: dropping corrupt weights %s (%s)", path, exc
            )
            self._remove(path)
            return None

    def put_state(self, key: str, state: Dict[str, np.ndarray]) -> str:
        """Atomically store a name -> array mapping as ``.npz``."""
        path = self._path(key, ".npz")
        atomic_write(path, lambda handle: np.savez_compressed(handle, **state))
        return path

    # -- maintenance ---------------------------------------------------
    def clear(self) -> int:
        """Delete every entry; returns the number of files removed."""
        removed = 0
        if not os.path.isdir(self.root):
            return removed
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for filename in filenames:
                if filename.endswith((".json", ".npz")):
                    self._remove(os.path.join(dirpath, filename))
                    removed += 1
        return removed

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0

    @staticmethod
    def _remove(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SweepCache({self.root!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )
