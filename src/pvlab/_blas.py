"""A trial's O(N n^2) products on two threads, and the BLAS thread count.

`times` (Y @ R), `gram` (Y^T Y) and `weighted_gram` (`build_statistic`'s
sum of w_i y_i y_i^T) are cut into blocks fixed by the shape, and
`_on_two_threads` runs the blocks as two pieces, on the calling thread and on
one worker thread, under one BLAS thread.  Where a piece runs never moves a
bit.  Every block of `times` does at least MIN_PIECE multiply-adds, so it
keeps the bits of one full product; `gram` is the sum of two row halves, and
`weighted_gram` the sum of its two pieces' sums over `times`' row blocks.

numpy's wheels bundle OpenBLAS in a `numpy.libs` directory next to the
package; its exported `scipy_openblas_{get,set}_num_threads64_` are called
through ctypes.  The count is process-global, so `one_blas_thread` restores
the caller's count on exit.  Under any other BLAS the count is left alone,
one warning is logged, and every product runs on the calling thread.
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
    """Make every later product of this thread run both pieces here: for
    threads that already fill the cores, such as a sweep's cell threads."""
    _this_thread.in_order = True


def _middle(edges: list[int]) -> int:
    """Index of the inner edge nearest the middle, where _on_two_threads
    splits the blocks into its two pieces; 0 for a single block."""
    return min(range(1, len(edges) - 1), key=lambda i: abs(2 * edges[i] - edges[-1]), default=0)


def _on_two_threads(block, edges: list[int], parallel: bool = True) -> list:
    """[block(a, b) for each pair of consecutive edges], as two pieces split
    at the inner edge nearest the middle.

    When `parallel` is true, there are two blocks or more, the BLAS count is
    1 and this thread is not kept in order, the second piece runs on one
    lazily created worker thread, in a copy of this thread's context
    (numpy's error state goes with it), while the first runs here.
    Otherwise both run here, in order.  The blocks are the same either way,
    and so is the result.  An exception from either piece is raised here
    once both have finished.  A block must not call this function: the one
    worker would wait on itself.
    """
    pairs = list(zip(edges, edges[1:]))
    middle = _middle(edges)

    def blocks(lo: int, hi: int) -> list:
        return [block(a, b) for a, b in pairs[lo:hi]]

    functions = _thread_functions()
    if (
        not parallel
        or middle == 0
        or getattr(_this_thread, "in_order", False)
        or functions is None
        or functions[0]() != 1
    ):
        return blocks(0, len(pairs))
    pending = _worker_pool().submit(contextvars.copy_context().run, blocks, middle, len(pairs))
    try:
        done = blocks(0, middle)
    except BaseException:
        futures.wait([pending])
        raise
    return done + pending.result()


def _edges(length: int, size: int) -> list[int]:
    """Edges of blocks of `size` along `length`, a short remainder joining
    the last block; one block when there is room for one only."""
    return [*range(0, length - size + 1, size), length] if length >= 2 * size else [0, length]


def _row_edges(N: int, n: int) -> list[int]:
    """Edges of the row blocks of `times` and `weighted_gram`."""
    return _edges(N, -(-MIN_PIECE // (1024 * n * n)) * 1024)


def times(Y: np.ndarray, R: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Y @ R for an n x n matrix R, written to `out` (a fresh array when
    None).  out may be Y: each row block is multiplied before it is
    overwritten, so the product takes one block's temporary, not a second
    N x n array.  A block is a multiple of 1024 rows (bar the remainder it
    takes in) with at least MIN_PIECE multiply-adds."""
    if out is None:
        out = np.empty(Y.shape, dtype=np.result_type(Y, R))
    _on_two_threads(lambda a, b: np.matmul(Y[a:b], R, out=out[a:b]), _row_edges(*Y.shape))
    return out


def gram(Y: np.ndarray) -> np.ndarray:
    """Y^T Y as the upper row half's Gram plus the lower half's.  The halves
    are fixed by the shape, so this is the same sum on one thread or two.
    Overflow gives inf silently."""
    N, n = Y.shape
    h = N // 2
    with np.errstate(over="ignore", invalid="ignore"):
        upper, lower = _on_two_threads(
            lambda a, b: Y[a:b].T @ Y[a:b], [0, h, N], parallel=h * n * n >= MIN_PIECE
        )
        return upper + lower


def weighted_gram(Y: np.ndarray, weights) -> np.ndarray:
    """sum_i w_i y_i y_i^T over Y's rows, where weights(rows) gives the w_i
    of a block of rows, summed over the row blocks of `times`: Y is read
    once, and no N x n weighted copy of it is made.  The weights are made a
    block at a time: at 200000 x 10 an N-vector of them took an `orth`
    trial's usual peak from 1.68-1.75 to 1.79-1.83 N x n.  Each piece sums
    its own blocks in order, and the result is the first piece's sum plus
    the second's, on one thread or two."""
    N, n = Y.shape
    edges = _row_edges(N, n)
    split = edges[_middle(edges)]
    sums = np.zeros((2, n, n))

    def block(a: int, b: int) -> None:
        rows = Y[a:b]
        sums[int(a >= split)] += (rows * weights(rows)[:, None]).T @ rows

    _on_two_threads(block, edges)
    return sums[0] + sums[1]
