"""Named, reusable kernel buffers.

:func:`~repro.kernels.fused.fused_quantize` writes into a buffer owned
by a :class:`Workspace` when its caller hands it one, e.g. to time the
kernel on one buffer; the fused backend itself keeps no scratch memory.
Buffers are keyed by ``(name, tuple(shape), dtype)``: re-running the
same shape reuses the existing buffer (``hits`` grows, ``allocations``
does not), while a new shape gets a freshly sized buffer.

A workspace is **not** thread-safe: give each thread its own.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Named scratch buffers reused across kernel invocations."""

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[Hashable, Tuple[int, ...], np.dtype], np.ndarray] = {}
        self.allocations = 0
        self.hits = 0

    def get(
        self,
        key: Hashable,
        shape: Tuple[int, ...],
        dtype: "np.typing.DTypeLike" = np.float32,
    ) -> np.ndarray:
        """Fetch (allocating on first use) the buffer for ``key``/``shape``.

        Contents are unspecified on return — kernels must fully
        overwrite the region they read back.  Distinct shapes under the
        same key coexist, so a trailing partial batch does not thrash
        the full-batch buffers.  ``shape`` holds ints (numpy or Python
        ones hash alike), so it is keyed as plain ``tuple(shape)``.
        """
        full_key = (key, tuple(shape), np.dtype(dtype))
        buffer = self._buffers.get(full_key)
        if buffer is None:
            buffer = np.empty(full_key[1], dtype=full_key[2])
            self._buffers[full_key] = buffer
            self.allocations += 1
        else:
            self.hits += 1
        return buffer

    def __len__(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Total bytes held by live buffers."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def clear(self) -> None:
        """Drop every buffer (counters keep their history)."""
        self._buffers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Workspace({len(self._buffers)} buffers, {self.nbytes / 1024:.0f} KB, "
            f"{self.allocations} allocs / {self.hits} hits)"
        )
