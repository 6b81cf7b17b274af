"""Zero-copy tensor handoff between the fleet front-end and replicas.

Batches cross the process boundary through
:mod:`multiprocessing.shared_memory`: the front-end writes the stacked
input images into a preallocated segment, sends only a tiny descriptor
(slot index, batch size, shape) over the control pipe, and the replica
maps the same bytes as a numpy view — no pickling, no per-batch
allocation, one memcpy on each side of the forward pass.

Each replica owns a small :class:`TensorRing` of fixed-size *slots*.
A slot is one shared-memory segment laid out as ``[input region |
output region]``; the replica writes the logits into the output region
of the very slot the inputs arrived in, so a round trip touches exactly
one segment.  Slot ownership is tracked front-end-side with an
explicit state per slot:

``FREE``
    nobody may touch the bytes; acquirable by the dispatcher.
``LOADED``
    the front-end wrote inputs and is about to dispatch; the replica
    must not read yet.
``INFLIGHT``
    the replica owns the bytes (reading inputs, writing outputs); the
    front-end must not write.

Transitions are one-way per cycle (FREE -> LOADED -> INFLIGHT -> FREE)
and violations raise :class:`~repro.errors.ConfigurationError` instead
of silently racing.

The *front-end* is the single owner of segment lifetime: it creates
every segment and it alone unlinks them (on ``stop``, on replica
respawn the same segments are reused, and a SIGTERM/atexit emergency
path unlinks without taking locks).  Replicas only attach, and
explicitly unregister the attachment from their ``resource_tracker``
so a dying replica can never unlink segments the front-end still
serves from — the classic double-unlink wart of pre-3.13 CPython.

:func:`scan_segments` lists live segments under this module's naming
prefix; the shared-memory lifecycle regression tests scan before and
after fleet runs to prove nothing leaks in ``/dev/shm``.
"""

from __future__ import annotations

import os
import secrets
import threading
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ServingError

__all__ = [
    "SEGMENT_PREFIX",
    "SlotState",
    "SlotDescriptor",
    "TensorRing",
    "ReplicaRing",
    "scan_segments",
]

#: Every fleet segment name starts with this, so a ``/dev/shm`` scan can
#: attribute leaks to us (and to nothing else).
SEGMENT_PREFIX = "reprofleet"

#: Bytes reserved per image for the replica's logits (any dtype).
OUTPUT_BYTES_PER_IMAGE = 512


class SlotState:
    """Ownership states of one ring slot (front-end bookkeeping)."""

    FREE = "free"
    LOADED = "loaded"          # front-end wrote inputs, not yet dispatched
    INFLIGHT = "inflight"      # replica owns the bytes


@dataclass(frozen=True)
class SlotDescriptor:
    """What crosses the control pipe instead of the tensors themselves."""

    slot: int
    n: int                         # batch size
    shape: Tuple[int, ...]         # per-image CHW shape
    dtype: str                     # input dtype string, e.g. "float32"


def _segment_name(token: str, replica: int, slot: int) -> str:
    return f"{SEGMENT_PREFIX}_{token}_r{replica}_s{slot}"


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker tracking.

    On CPython < 3.13 (no ``track=False``), attaching registers the
    segment with the resource tracker — and spawned children share the
    parent's tracker process, so a replica's registration (or a later
    unregister) clobbers the front-end's own bookkeeping: the classic
    double-unlink wart.  Only the front-end may own segment lifetime,
    so replicas attach with registration suppressed entirely.
    """
    try:  # pragma: no cover - 3.13+
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original  # type: ignore[assignment]


class _Slot:
    """Front-end view of one segment plus its ownership state."""

    __slots__ = ("index", "shm", "state")

    def __init__(self, index: int, shm: shared_memory.SharedMemory):
        self.index = index
        self.shm = shm
        self.state = SlotState.FREE


class TensorRing:
    """Front-end side: a ring of owned shared-memory slots for one replica.

    Args:
        replica: replica index (segment naming only).
        slots: ring depth — how many batches may be in flight to this
            replica at once; acquisition blocks when all are taken,
            which is the fleet's natural per-replica backpressure.
        input_bytes: capacity of the input region per slot.
        token: run-unique segment-name component (shared by the whole
            fleet so one scan finds every segment of a run).
    """

    def __init__(
        self,
        replica: int,
        slots: int,
        input_bytes: int,
        token: Optional[str] = None,
    ):
        if slots < 1:
            raise ConfigurationError("ring must have at least one slot")
        if input_bytes < 1:
            raise ConfigurationError("input_bytes must be positive")
        self.replica = replica
        self.token = token or secrets.token_hex(4)
        self.input_bytes = int(input_bytes)
        self.output_bytes = 0  # filled per slot below
        self._cond = threading.Condition()
        self._slots: List[_Slot] = []
        self._closed = False
        slot_bytes = self.input_bytes  # + output region, sized by caller
        self.slot_bytes = slot_bytes
        for index in range(slots):
            shm = shared_memory.SharedMemory(
                name=_segment_name(self.token, replica, index),
                create=True,
                size=slot_bytes,
            )
            self._slots.append(_Slot(index, shm))

    # -- layout ---------------------------------------------------------
    @classmethod
    def for_batches(
        cls,
        replica: int,
        slots: int,
        max_batch: int,
        image_floats: int,
        token: Optional[str] = None,
    ) -> "TensorRing":
        """Size a ring so one slot holds ``max_batch`` images + logits."""
        input_bytes = max_batch * image_floats * 4          # float32 inputs
        output_bytes = max_batch * OUTPUT_BYTES_PER_IMAGE   # any-dtype logits
        ring = cls(replica, slots, input_bytes + output_bytes, token=token)
        ring.input_bytes = input_bytes
        ring.output_bytes = output_bytes
        return ring

    def segment_names(self) -> List[str]:
        return [slot.shm.name for slot in self._slots]

    # -- ownership ------------------------------------------------------
    def acquire(self, timeout: Optional[float] = None) -> Optional[int]:
        """Claim a FREE slot (-> LOADED); ``None`` on timeout or close."""
        with self._cond:
            deadline = None if timeout is None else time.monotonic() + timeout
            while True:
                if self._closed:
                    return None
                for slot in self._slots:
                    if slot.state == SlotState.FREE:
                        slot.state = SlotState.LOADED
                        return slot.index
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)
                else:
                    self._cond.wait()

    def _expect(self, index: int, state: str) -> _Slot:
        slot = self._slots[index]
        if slot.state != state:
            raise ConfigurationError(
                f"ring slot {index} is {slot.state}, expected {state}"
            )
        return slot

    def write_batch(self, index: int, batch: np.ndarray) -> SlotDescriptor:
        """Copy ``batch`` (N, C, H, W) into a LOADED slot's input region."""
        slot = self._expect(index, SlotState.LOADED)
        flat = np.ascontiguousarray(batch, dtype=np.float32)
        nbytes = flat.nbytes
        if nbytes > self.input_bytes:
            raise ConfigurationError(
                f"batch needs {nbytes} B, slot input region has "
                f"{self.input_bytes} B"
            )
        view = np.frombuffer(slot.shm.buf, dtype=np.float32,
                             count=flat.size)
        view[:] = flat.reshape(-1)
        del view
        return SlotDescriptor(
            slot=index,
            n=int(batch.shape[0]),
            shape=tuple(int(d) for d in batch.shape[1:]),
            dtype="float32",
        )

    def mark_inflight(self, index: int) -> None:
        """LOADED -> INFLIGHT: the descriptor was sent to the replica."""
        with self._cond:
            self._expect(index, SlotState.LOADED).state = SlotState.INFLIGHT

    def read_output(
        self, index: int, n: int, n_out: int, dtype: str
    ) -> np.ndarray:
        """Copy the replica's logits out of an INFLIGHT slot."""
        slot = self._expect(index, SlotState.INFLIGHT)
        out_dtype = np.dtype(dtype)
        nbytes = n * n_out * out_dtype.itemsize
        if nbytes > self.output_bytes:
            raise ServingError(
                f"replica wrote {nbytes} B of logits, output region has "
                f"{self.output_bytes} B"
            )
        view = np.frombuffer(slot.shm.buf, dtype=out_dtype,
                             count=n * n_out, offset=self.input_bytes)
        logits = view.reshape(n, n_out).copy()
        del view
        return logits

    def release(self, index: int) -> None:
        """INFLIGHT/LOADED -> FREE (crash recovery may skip INFLIGHT)."""
        with self._cond:
            slot = self._slots[index]
            if slot.state == SlotState.FREE:
                raise ConfigurationError(f"ring slot {index} already free")
            slot.state = SlotState.FREE
            self._cond.notify_all()

    def reset(self) -> None:
        """Force every slot FREE — only safe once the replica is dead."""
        with self._cond:
            for slot in self._slots:
                slot.state = SlotState.FREE
            self._cond.notify_all()

    def states(self) -> Dict[int, str]:
        with self._cond:
            return {slot.index: slot.state for slot in self._slots}

    # -- lifetime -------------------------------------------------------
    def close(self) -> None:
        """Wake waiters; further acquires return ``None``."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def unlink(self) -> None:
        """Destroy every segment.  Idempotent; lock-free by design so the
        SIGTERM emergency path can call it from a signal handler."""
        self._closed = True
        for slot in self._slots:
            try:
                slot.shm.close()
            except Exception:
                pass
            try:
                slot.shm.unlink()
            except FileNotFoundError:
                pass
            except Exception:
                pass


class ReplicaRing:
    """Replica side: attach to the front-end's segments by name."""

    def __init__(self, names: List[str], input_bytes: int):
        self.input_bytes = int(input_bytes)
        self._segments: List[shared_memory.SharedMemory] = []
        for name in names:
            self._segments.append(_attach_untracked(name))

    def read_batch(self, desc: SlotDescriptor) -> np.ndarray:
        """Copy the dispatched batch out of the slot's input region."""
        shm = self._segments[desc.slot]
        count = desc.n * int(np.prod(desc.shape))
        view = np.frombuffer(shm.buf, dtype=np.dtype(desc.dtype), count=count)
        batch = view.reshape((desc.n,) + tuple(desc.shape)).copy()
        del view
        return batch

    def write_output(self, desc: SlotDescriptor, logits: np.ndarray) -> Tuple[int, str]:
        """Write logits into the slot's output region; returns (n_out, dtype)."""
        shm = self._segments[desc.slot]
        flat = np.ascontiguousarray(logits)
        view = np.frombuffer(shm.buf, dtype=flat.dtype, count=flat.size,
                             offset=self.input_bytes)
        view[:] = flat.reshape(-1)
        del view
        return int(logits.shape[1]), str(flat.dtype)

    def close(self) -> None:
        """Detach (never unlink — the front-end owns segment lifetime)."""
        for shm in self._segments:
            try:
                shm.close()
            except Exception:
                pass


def scan_segments(token: Optional[str] = None) -> List[str]:
    """Live fleet segments visible in ``/dev/shm`` (POSIX only).

    With ``token`` the scan is narrowed to one fleet run.  Returns an
    empty list on platforms without a scannable shm mount; the
    lifecycle tests skip there.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return []
    needle = SEGMENT_PREFIX if token is None else f"{SEGMENT_PREFIX}_{token}"
    try:
        entries = os.listdir(shm_dir)
    except OSError:
        return []
    return sorted(name for name in entries if name.startswith(needle))
