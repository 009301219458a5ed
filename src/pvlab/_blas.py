"""The BLAS thread count, read and set in-process.

numpy's wheels bundle OpenBLAS in a `numpy.libs` directory next to the
package; its exported `scipy_openblas_{get,set}_num_threads64_` are called
through ctypes.  The count is process-global, so `one_blas_thread` restores
the caller's count on exit.  Under any other BLAS the count is left alone
and one warning is logged.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
from pathlib import Path

import numpy as np

log = logging.getLogger("pvlab")


@functools.cache
def _thread_functions():
    """(get, set) for the bundled OpenBLAS, or None (warned once) if not found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
            get = handle.scipy_openblas_get_num_threads64_
            set_ = handle.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes = []
        get.restype = ctypes.c_int
        set_.argtypes = [ctypes.c_int]
        set_.restype = None
        return get, set_
    log.warning(
        "BLAS thread count cannot be set in-process (no bundled OpenBLAS in %s); "
        "results may vary with the BLAS thread count", libdir,
    )
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block under one BLAS thread and restore the previous count."""
    functions = _thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
