"""A trial's O(N n^2) products on two threads, and the BLAS thread count.

`times` (Y @ R) and `gram` (Y^T Y, or `build_statistic`'s sum of
w_i y_i y_i^T) are cut into the same row blocks, fixed by the shape, and
`_on_two_threads` runs the blocks as two pieces, on the calling thread and on
one worker thread, under one BLAS thread.  Where a piece runs never moves a
bit.  Every block of `times` does at least MIN_PIECE multiply-adds, so it
keeps the bits of one full product; `gram` is the sum of its two pieces'
sums over the blocks.

A sweep trial (`detection.estimate_instance`) also draws behind its
products: inside `draw_behind`, a sampler's Gaussian draw (`fill`) is left
to the next `gram` of its array, which runs the draw and the products as
_on_two_threads' two pieces: the draw on the calling thread and, on the
worker, each row block's products as soon as the block's rows are drawn.
The blocks, their order and the two piece sums are the same, so no bit
moves, and no second N x n array is made.

A piece may itself call `times`, `gram` or `fill`: the worker keeps its
pieces on itself (it is made under `keep_pieces_on_this_thread`), and the
calling thread does too while the worker runs its sibling, so a nested
call runs in order and never waits on the busy worker.  A sweep unit that
asks for two instances samples and estimates them so (`side_by_side`, from
`detection.estimator`), when its thread's sample buffer has room for both;
each instance's products then run in order on its own thread.

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
            _worker = futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="pvlab-blas", initializer=keep_pieces_on_this_thread
            )
        return _worker


def keep_pieces_on_this_thread() -> None:
    """Make every later product of this thread run both pieces here: for
    threads that already fill the cores, such as a sweep's cell threads,
    and for the worker itself."""
    _this_thread.in_order = True


def _middle(edges: list[int]) -> int:
    """Index of the inner edge nearest the middle, where _on_two_threads
    splits the blocks into its two pieces; 0 for a single block."""
    return min(range(1, len(edges) - 1), key=lambda i: abs(2 * edges[i] - edges[-1]), default=0)


def _uses_worker(edges: list[int]) -> bool:
    """Whether _on_two_threads runs its second piece on the worker: there
    are two blocks or more, this thread is not kept in order, and the BLAS
    count is 1."""
    functions = _thread_functions()
    return (
        len(edges) > 2
        and not getattr(_this_thread, "in_order", False)
        and functions is not None
        and functions[0]() == 1
    )


def _on_two_threads(block, edges: list[int]) -> list:
    """[block(a, b) for each pair of consecutive edges], as two pieces split
    at the inner edge nearest the middle.

    When `_uses_worker(edges)`, the second piece runs on one lazily created
    worker thread, in a copy of this thread's context (numpy's error state
    goes with it), while the first runs here.  Otherwise both run here, in
    order.  The blocks are the same either way, and so is the result.  An
    exception from either piece is raised here once both have finished.  A
    block may call this function again: the worker keeps its pieces on
    itself (`keep_pieces_on_this_thread`), and so does this thread while the
    worker runs the second piece, so a nested call runs in order and never
    waits on the busy worker.
    """
    pairs = list(zip(edges, edges[1:]))
    middle = _middle(edges)

    def blocks(lo: int, hi: int) -> list:
        return [block(a, b) for a, b in pairs[lo:hi]]

    if not _uses_worker(edges):
        return blocks(0, len(pairs))
    pending = _worker_pool().submit(contextvars.copy_context().run, blocks, middle, len(pairs))
    _this_thread.in_order = True
    try:
        done = blocks(0, middle)
    except BaseException:
        futures.wait([pending])
        raise
    finally:
        _this_thread.in_order = False  # _uses_worker held, so it was False
    return done + pending.result()


def side_by_side(first, second) -> list:
    """[first(), second()], run as _on_two_threads' two pieces: `second` on
    the worker while `first` runs here, or both here in order."""
    pieces = (first, second)
    return _on_two_threads(lambda a, b: pieces[a](), [0, 1, 2])


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
    Each piece sums its own blocks in order, and the result is the first
    piece's sum plus the second's, on one thread or two.  When Y's rows are
    still to be drawn (`fill`), both pieces' blocks are summed on the
    worker, each as soon as its rows are drawn, while this thread draws
    (`_behind`)."""
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
    and multiplied by R, as _on_two_threads' two pieces: the draw here, the
    products on the worker, or the draw first and the products after when
    they run in order.  The draw hands its row counts to the products
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

    Inside `draw_behind`, when Y has two row blocks or more and the worker
    would run a piece (`_uses_worker`), this returns at once, and the next
    `gram` of Y draws the rows on the calling thread while the worker
    writes each block's Y @ R and sums it (`_behind`)."""
    if getattr(_this_thread, "draw", None) is True and _uses_worker(_row_edges(*Y.shape)):
        _this_thread.draw = (Y, rows, R)
        return
    for _ in rows:
        pass
    if R is not None:
        times(Y, R, out=Y)
