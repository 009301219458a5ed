"""A trial's O(N n^2) products on two threads, and the BLAS thread count.

One primitive places work on two threads: `side_by_side(first, second)`
runs `second` on one worker thread while `first` runs on the calling
thread, or both on the calling thread in order.  One rule chooses: a call
hands `second` to the worker only under one BLAS thread and only when it
takes the module lock `taken` without waiting, and it holds `taken` until
both pieces are done.  So at most one piece is out on the worker at a
time, and no call ever waits for it: a call made inside a piece, another
thread's call, and the calls of a sweep's cell threads (`run_sweep` holds
`taken` for its pool) run their pieces in order on their own thread.
Where a piece runs never moves a bit.

`times` (Y @ R) and `gram` (Y^T Y, or `build_statistic`'s sum of
w_i y_i y_i^T) are cut into the same row blocks, fixed by the shape, and
`_on_two_threads` runs the blocks before and after the middle side by
side.  Every block of `times` does at least MIN_PIECE multiply-adds, so it
keeps the bits of one full product; `gram` is the sum of its two halves'
sums over the blocks.

A sweep trial (`detection.estimate_instance`) also draws behind its
products: inside `draw_behind`, a sampler's Gaussian draw (`fill`) of an
array of two row blocks or more is left to the next `gram` of the array,
which runs the draw and the products side by side (`_behind`): the draw
here and, on the worker, each row block's products as soon as its rows are
drawn.  The blocks, their order and the two half sums are the same, so no
bit moves, and no second N x n array is made.  A sweep unit may sample and
estimate its two instances side by side (`detection.estimator`); each
instance's products then run in order on its own thread.

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
import queue
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
taken = threading.Lock()  # held while a piece is out on the worker
_this_thread = threading.local()


def _forget_worker() -> None:
    """In a forked child: drop the executor, whose thread the child does not
    have, and free `taken`, which the child inherits as it was at the fork."""
    global _worker, taken
    _worker = None
    taken = threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


def _worker_pool() -> futures.ThreadPoolExecutor:
    """The worker, made on first use; only the holder of `taken` calls this."""
    global _worker
    if _worker is None:
        _worker = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="pvlab-blas")
    return _worker


def side_by_side(first, second) -> list:
    """[first(), second()]: `second` on the worker, in a copy of this
    thread's context (numpy's error state goes with it), while `first` runs
    here, when the BLAS count is 1 and `taken` is free; otherwise both here,
    in order.  `taken` is held until both are done, so a call made inside
    either, or on another thread meanwhile, runs in order and never waits
    on the worker.  An exception from either is raised here once both have
    finished."""
    functions = _thread_functions()
    if functions is None or functions[0]() != 1 or not taken.acquire(blocking=False):
        return [first(), second()]
    try:
        pending = _worker_pool().submit(contextvars.copy_context().run, second)
        try:
            done = first()
        except BaseException:
            futures.wait([pending])
            raise
        return [done, pending.result()]
    finally:
        taken.release()


def _middle(edges: list[int]) -> int:
    """Index of the inner edge nearest the middle, where _on_two_threads
    splits the blocks into its two pieces; 0 for a single block."""
    return min(range(1, len(edges) - 1), key=lambda i: abs(2 * edges[i] - edges[-1]), default=0)


def _on_two_threads(block, edges: list[int]) -> None:
    """Run block(a, b) for each pair of consecutive edges: the blocks before
    the inner edge nearest the middle and those after it as `side_by_side`'s
    two pieces, or a single block here."""
    pairs = list(zip(edges, edges[1:]))
    middle = _middle(edges)

    def blocks(lo: int, hi: int) -> None:
        for a, b in pairs[lo:hi]:
            block(a, b)

    if middle:
        side_by_side(lambda: blocks(0, middle), lambda: blocks(middle, len(pairs)))
    else:
        blocks(0, len(pairs))


def _row_edges(N: int, n: int) -> list[int]:
    """Edges of the row blocks of `times` and `gram`: the fewest multiples of
    1024 rows with at least MIN_PIECE multiply-adds, a short remainder
    joining the last block; one block when there is room for one only."""
    size = -(-MIN_PIECE // (1024 * max(n, 1) ** 2)) * 1024
    return [*range(0, N - size + 1, size), N] if N >= 2 * size else [0, N]


def times(Y: np.ndarray, R: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Y @ R for an n x n matrix R, written to `out` (a fresh array when
    None).  out may be Y: each row block is multiplied before it is
    overwritten, so the product takes one block's temporary, not a second
    N x n array."""
    if out is None:
        out = np.empty(Y.shape, dtype=np.result_type(Y, R))
    _on_two_threads(lambda a, b: np.matmul(Y[a:b], R, out=out[a:b]), _row_edges(*Y.shape))
    return out


def gram(Y: np.ndarray, weights=None) -> np.ndarray:
    """sum_i w_i y_i y_i^T over Y's rows, where weights(rows) gives the w_i
    of a block of rows, or Y^T Y when weights is None, summed over the row
    blocks of `times`: Y is read once, and no N x n copy of it is made.  The
    weights are made a block at a time: at 200000 x 10 an N-vector of them
    took an `orth` trial's usual peak from 1.68-1.75 to 1.79-1.83 N x n.
    Each half of the blocks is summed in order, and the result is the first
    half's sum plus the second's, on one thread or two.  When Y's rows are
    still to be drawn (`fill`), both halves' blocks are summed behind the
    draw, each as soon as its rows are drawn (`_behind`)."""
    N, n = Y.shape
    edges = _row_edges(N, n)
    split = edges[_middle(edges)]
    sums = np.zeros((2, n, n))

    def block(a: int, b: int) -> None:
        rows = Y[a:b]
        scaled = rows if weights is None else rows * weights(rows)[:, None]
        sums[int(a >= split)] += scaled.T @ rows

    draw = getattr(_this_thread, "draw", None)
    if isinstance(draw, tuple) and draw[0] is Y:
        _this_thread.draw = None
        _behind(*draw, block, edges)
    else:
        _on_two_threads(block, edges)
    return sums[0] + sums[1]


def _behind(Y: np.ndarray, rows, R: np.ndarray | None, block, edges: list[int]) -> None:
    """Run `rows`, the iterator that writes Y's rows (see `fill`), and
    block(a, b) for each row block in order, each once its rows are drawn
    and multiplied by R, as `side_by_side`'s two pieces: the draw here and
    the products on the worker, or the draw first and the products after
    when the worker is taken.  The draw hands its row counts to the products
    through a queue, and an end mark once it stops, so a draw that raises
    ends the products too."""
    drawn = queue.SimpleQueue()

    def draw() -> None:
        try:
            for count in rows:
                drawn.put(count)
        finally:
            drawn.put(None)

    def products() -> None:
        final = 0
        for a, b in zip(edges, edges[1:]):
            while final < b:
                final = drawn.get()
                if final is None:
                    return
            if R is not None:
                np.matmul(Y[a:b], R, out=Y[a:b])
            block(a, b)

    side_by_side(draw, products)


@contextlib.contextmanager
def draw_behind():
    """Let this thread's next `fill` leave its draw to the next `gram` of
    its array, within the block.  A sampler called in the block may return
    an array whose rows are not drawn yet; that gram must be the first to
    read them."""
    _this_thread.draw = True  # until a fill leaves its (Y, rows, R) here for gram to take
    try:
        yield
    finally:
        _this_thread.draw = None


def fill(Y: np.ndarray, rows, R: np.ndarray | None = None) -> None:
    """Draw Y's rows by running `rows`, an iterator that writes them in
    order and yields the count of rows written after each step, then write
    Y @ R over Y (`times`) if R is given.

    Inside `draw_behind`, when Y has two row blocks or more, this returns
    at once, and the next `gram` of Y draws the rows and, behind the draw,
    writes each block's Y @ R and sums it (`_behind`)."""
    if getattr(_this_thread, "draw", None) is True and len(_row_edges(*Y.shape)) > 2:
        _this_thread.draw = (Y, rows, R)
        return
    for _ in rows:
        pass
    if R is not None:
        times(Y, R, out=Y)
