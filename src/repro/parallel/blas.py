"""Read and set the thread count of the OpenBLAS that numpy computes on.

A fleet replica or a sweep pool worker is itself the unit of
parallelism, so each computes on one BLAS thread: N worker processes
then use N cores instead of starting N × cores threads.  Both calls
reach every OpenBLAS library mapped into the calling process (numpy's
wheel ships one as ``numpy.libs/libscipy_openblas64_-*.so``) through
``ctypes``.  Where none is reachable (no ``/proc/self/maps``, an MKL
or BLIS build) both return ``None`` and change nothing.
"""

from __future__ import annotations

import ctypes
from typing import Callable, List, Optional, Tuple

__all__ = ["blas_threads", "set_blas_threads"]

#: (getter, setter) spellings: numpy's wheel, then a system OpenBLAS
#: with 32- and with 64-bit integers; a library uses the first it has.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


def _openblas_paths() -> List[str]:
    """The distinct mapped files whose path names OpenBLAS."""
    import numpy  # noqa: F401 - maps numpy's BLAS before the scan

    try:
        with open("/proc/self/maps") as maps:
            fields = (line.split(None, 5) for line in maps)
            return sorted({f[5].strip() for f in fields
                           if len(f) == 6 and "openblas" in f[5]})
    except OSError:
        return []


def _libraries() -> List[Tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) of every OpenBLAS library ``ctypes`` can open."""
    found = []
    for path in _openblas_paths():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _SYMBOLS:
            if hasattr(library, get) and hasattr(library, set_):
                found.append((getattr(library, get), getattr(library, set_)))
                break
    return found


def blas_threads() -> Optional[int]:
    """The largest thread count in force, or ``None`` without OpenBLAS."""
    return max((get() for get, _ in _libraries()), default=None)


def set_blas_threads(n: int) -> Optional[int]:
    """Set every OpenBLAS to ``n`` threads; returns the count before."""
    libraries = _libraries()
    previous = max((get() for get, _ in libraries), default=None)
    for _, set_ in libraries:
        set_(int(n))
    return previous
