"""The BLAS thread count, read and set in-process.

numpy's wheels bundle OpenBLAS in a `numpy.libs` directory next to the
package; its exported `scipy_openblas_{get,set}_num_threads64_` are called
through ctypes.  The count is process-global, so `one_blas_thread` restores
the caller's count on exit.  Under any other BLAS the count is left alone
and one warning is logged.

Under one BLAS thread, `on_two_threads` runs the two pieces of a large
product on the calling thread and on one worker thread, and
`blocks_on_two_threads` splits a product's blocks into those two pieces.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import logging
import os
import threading
from concurrent import futures
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


# numpy's bundled OpenBLAS multiplies a call of at most ~1e6 multiply-adds
# with a small-matrix kernel whose bits differ from a large call's, so a
# product split into pieces keeps the bits of one call only when every piece
# does at least this many multiply-adds.
MIN_PIECE = 2**22

_worker: futures.ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()
_this_thread = threading.local()


def _forget_worker() -> None:
    global _worker
    _worker = None  # a forked child inherits the executor but not its thread


os.register_at_fork(after_in_child=_forget_worker)


def _worker_pool() -> futures.ThreadPoolExecutor:
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="pvlab-blas")
        return _worker


def keep_pieces_on_this_thread() -> None:
    """Make every later `on_two_threads` call of this thread run both pieces
    here: for threads that already fill the cores, such as a sweep's cell
    threads."""
    _this_thread.in_order = True


def on_two_threads(first, second, parallel: bool = True):
    """(first(), second()) for two pieces of one product.

    When `parallel` is true, the BLAS count is 1 and this thread is not kept
    in order, `second` runs on one lazily created worker thread, in a copy
    of this thread's context (numpy's error state goes with it), while
    `first` runs here.  Otherwise both run here, in order.  The pieces are
    the same either way, and so is the result.  An exception from either
    piece is raised here once both have finished.  A piece must not call
    this function: the one worker would wait on itself.
    """
    functions = _thread_functions()
    if (
        not parallel
        or getattr(_this_thread, "in_order", False)
        or functions is None
        or functions[0]() != 1
    ):
        return first(), second()
    pending = _worker_pool().submit(contextvars.copy_context().run, second)
    try:
        done = first()
    except BaseException:
        futures.wait([pending])
        raise
    return done, pending.result()


def blocks_on_two_threads(block, edges: list[int]) -> None:
    """block(a, b) for each pair of consecutive edges from 0, in order, as
    two pieces of `on_two_threads` split at the inner edge nearest the
    middle.  Every block must do at least MIN_PIECE multiply-adds, so any
    two blocks may run on two threads; a single block runs here."""
    middle = min(range(1, len(edges) - 1), key=lambda i: abs(2 * edges[i] - edges[-1]), default=0)

    def blocks(lo: int, hi: int) -> None:
        for a, b in zip(edges[lo:hi], edges[lo + 1 : hi + 1]):
            block(a, b)

    on_two_threads(
        functools.partial(blocks, 0, middle),
        functools.partial(blocks, middle, len(edges) - 1),
        parallel=middle > 0,
    )
