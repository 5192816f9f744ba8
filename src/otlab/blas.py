"""The thread count of numpy's bundled OpenBLAS, read and set in-process.

numpy's wheels bundle OpenBLAS as ``numpy.libs/libscipy_openblas64_*.so``,
which exports ``scipy_openblas_get_num_threads64_`` and
``scipy_openblas_set_num_threads64_``. ctypes opens the library numpy has
already loaded, so a count set there is numpy's. Where no such library or
symbol exists (a numpy built against another BLAS), :func:`threads` returns
None and :func:`pinned` does nothing.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np


@cache
def _openblas():
    """The (get, set) thread-count functions of the bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def threads() -> int | None:
    """The BLAS thread count, or None where it cannot be read."""
    found = _openblas()
    return None if found is None else found[0]()


@contextmanager
def pinned(count: int):
    """Run the ``with`` body at ``count`` BLAS threads, then restore the previous count."""
    found = _openblas()
    if found is None:
        yield
        return
    get, put = found
    previous = get()
    put(count)
    try:
        yield
    finally:
        put(previous)
