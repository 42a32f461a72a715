"""Skyline kernels over rank-encoded integer matrices.

Input is an ``n x d`` matrix of integer codes (rows = distinct
projections, columns = "bigger is better" axes) in which **rows are
pairwise distinct** — the axis extraction in :mod:`repro.engine.columnar`
encodes every Pareto arm injectively on its attribute (one rank code for a
chain, a ``(score, +-id)`` code pair for a weak order), so distinct
projections yield distinct vectors and vector dominance

    ``a`` dominates ``b``  iff  ``a >= b`` componentwise (and ``a != b``)

is *exactly* the Pareto order of the preference.  That is the only
dominance predicate here: what a term means is decided by its encoding,
never by a kernel.  Distinctness lets the NumPy kernels drop the
"somewhere strictly greater" term: componentwise ``>=`` against a
*different* row already implies strict dominance.  Callers feeding these
kernels directly must uphold it.  Codes need not be dense — the kernels
only compare and add them.

One kernel and its two-dimensional special case, each with a NumPy leg
and a pure-Python leg that return the same indices:

* :func:`skyline_sfs` — sort-filter-skyline: presort descending by the code
  sum (a dominance-compatible key: dominance strictly increases the sum),
  then sweep candidates against a grow-only window whose members are
  final.  The NumPy leg sweeps candidate *blocks*, one broadcasted
  ``window x block`` comparison each; only candidates that survive it are
  cross-checked among themselves (sound by transitivity: a candidate
  dominated by a window victim is dominated by the window too).
* :func:`skyline_2d` — the O(n log n) sweep for two code axes.

In front of both, on the NumPy leg and before deduplication,
:func:`pivot_filter` drops every row that one of two pivot rows strictly
dominates (LESS's elimination filter with SaLSa's stop point as the
second pivot); its rows need not be distinct.  Only what survives is
deduplicated, presorted and swept.

Which leg runs is the ``np`` argument: the NumPy module, ``None`` for pure
Python, or (the default) whatever :func:`~repro.engine.backend.get_numpy`
says at the call.  :func:`repro.engine.columnar.columnar_winnow` decides
once per winnow and passes its decision to every stage.

Both return the indices of maximal rows in ascending order, making results
deterministic and directly comparable across legs and backends.  A caller
that re-sorts anyway (the columnar winnow maps kernel output through a
membership test) can pass ``ordered=False`` to skip the final sort and
take the indices in kernel order.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.engine.backend import DETECT, get_numpy

#: Candidates in the first broadcasted batch; later batches double up
#: to :data:`MAX_BLOCK`.  The ``block x block`` check of a first block
#: meets an empty window, so it is the whole cost of inputs of a few
#: hundred rows (what pivot elimination leaves of most inputs): 64 rows
#: cost it a sixteenth of the comparisons 256 do.
DEFAULT_BLOCK = 64

#: The largest batch.  The ``window x block`` and ``block x block``
#: boolean temporaries stay small enough to live in cache while each
#: NumPy call stays large enough to amortize dispatch.
MAX_BLOCK = 8192

#: Window rows per broadcasted window-vs-block comparison.  The window can
#: grow to the full skyline (every row, on fully anti-correlated data), so
#: the window axis must be chunked too or the boolean temporaries scale as
#: ``skyline x block`` — gigabytes at 50k+ rows.
WINDOW_CHUNK = 1024

Matrix = Sequence[Sequence[int]]


def _dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """Pareto dominance on code vectors (componentwise >=, somewhere >)."""
    strict = False
    for av, bv in zip(a, b):
        if av < bv:
            return False
        if av > bv:
            strict = True
    return strict


# -- sort-filter-skyline ------------------------------------------------------------


def skyline_sfs(
    matrix: Matrix,
    block_size: int = DEFAULT_BLOCK,
    ordered: bool = True,
    np: Any = DETECT,
) -> list[int]:
    """Indices of Pareto-maximal rows via SFS, on the ``np`` leg."""
    if np is DETECT:
        np = get_numpy()
    if np is not None:
        return _sfs_numpy(np, matrix, block_size, ordered)
    return _sfs_python(matrix, ordered)


def _ge_all(a: Any, b: Any) -> Any:
    """``out[i, j]``: row ``a[i]`` is ``>=`` row ``b[j]`` on every axis.

    One 2-d comparison per axis, and-ed together: with 2-5 axes this is
    an order of magnitude faster than reducing a 3-d broadcast over its
    short trailing axis.
    """
    out = a[:, 0, None] >= b[None, :, 0]
    for k in range(1, a.shape[1]):
        out &= a[:, k, None] >= b[None, :, k]
    return out


def _dominated_by_window(np: Any, window: Any, block: Any) -> Any:
    """Mask of block rows dominated by some window row, window-chunked.

    Chunking bounds peak memory at ``WINDOW_CHUNK x block`` booleans
    regardless of skyline size; already-dominated block rows are dropped
    from later chunks, so the common case (most of a block dies against
    the first chunks) exits early.
    """
    dominated = np.zeros(len(block), dtype=bool)
    for start in range(0, len(window), WINDOW_CHUNK):
        chunk = window[start : start + WINDOW_CHUNK]
        remaining = np.flatnonzero(~dominated)
        if not len(remaining):
            break
        contenders = block[remaining]
        hit = _ge_all(chunk, contenders).any(axis=0)
        dominated[remaining[hit]] = True
    return dominated


def _survivors(np: Any, window: Any, block: Any) -> Any:
    """Mask of block rows not dominated by the window nor by block peers."""
    if len(window):
        dominated = _dominated_by_window(np, window, block)
        if dominated.all():
            return ~dominated
        candidates = block[~dominated]
    else:
        dominated = np.zeros(len(block), dtype=bool)
        candidates = block
    ge = _ge_all(candidates, candidates)
    np.fill_diagonal(ge, False)
    alive = np.flatnonzero(~dominated)
    dominated[alive[ge.any(axis=0)]] = True
    return ~dominated


def _sfs_numpy(
    np: Any, matrix: Matrix, block_size: int, ordered: bool = True
) -> list[int]:
    m = np.ascontiguousarray(matrix, dtype=np.int64)
    n = len(m)
    if n == 0:
        return []
    # Dominance strictly increases the sum, so the order among ties is free.
    order = np.argsort(-m.sum(axis=1))
    s = m[order]
    window = np.empty((0, m.shape[1]), dtype=np.int64)
    kept: list[Any] = []
    # Blocks grow geometrically: early blocks stay small while the window
    # is being seeded (bounding the quadratic intra-block check), later
    # blocks are large so the window sweep runs in few broadcasted calls.
    start, size = 0, block_size
    while start < n:
        block = s[start : start + size]
        alive = _survivors(np, window, block)
        if alive.any():
            window = np.concatenate([window, block[alive]])
            kept.append(order[start : start + len(block)][alive])
        start += len(block)
        size = max(size, min(size * 2, MAX_BLOCK))
    if not kept:
        return []
    out = np.concatenate(kept).tolist()
    return sorted(out) if ordered else out


def _sfs_python(matrix: Matrix, ordered: bool = True) -> list[int]:
    n = len(matrix)
    if n == 0:
        return []
    order = sorted(range(n), key=lambda i: -sum(matrix[i]))
    window: list[Sequence[int]] = []
    kept: list[int] = []
    for i in order:
        candidate = matrix[i]
        if not any(_dominates(w, candidate) for w in window):
            window.append(candidate)
            kept.append(i)
    return sorted(kept) if ordered else kept


# -- the two-dimensional sweep ------------------------------------------------------


def skyline_2d(
    matrix: Matrix, ordered: bool = True, np: Any = DETECT
) -> list[int]:
    """Maxima of *distinct* 2-d code vectors by the classic [KLP75] sweep.

    Sort lex-descending; within one axis-0 group only the max-axis-1 row
    (the group's first, and unique since rows are distinct) can be
    maximal, and it is iff its axis-1 value beats every strictly-greater
    axis-0 group — one running maximum.  O(n log n), no pairwise matrix:
    this is what makes all-maximal inputs (perfect anti-correlation)
    cheap where the generic kernel degrades to O(n * skyline).
    """
    if np is DETECT:
        np = get_numpy()
    if np is not None:
        return _sweep_2d_numpy(np, matrix, ordered)
    return _sweep_2d_python(matrix, ordered)


def _sweep_2d_numpy(np: Any, matrix: Matrix, ordered: bool = True) -> list[int]:
    m = np.ascontiguousarray(matrix, dtype=np.int64)
    if len(m) == 0:
        return []
    order = np.lexsort((-m[:, 1], -m[:, 0]))
    s0 = m[order, 0]
    s1 = m[order, 1]
    group_starts = np.flatnonzero(np.r_[True, s0[1:] != s0[:-1]])
    running_max = np.maximum.accumulate(s1)
    # A group's first row is maximal iff its axis-1 value exceeds the max
    # over all previous (strictly axis-0-greater) groups.
    best_before = running_max[group_starts - 1]
    maximal = s1[group_starts] > best_before
    maximal[0] = True  # nothing precedes the first group
    out = order[group_starts[maximal]].tolist()
    return sorted(out) if ordered else out


def _sweep_2d_python(matrix: Matrix, ordered: bool = True) -> list[int]:
    n = len(matrix)
    if n == 0:
        return []
    order = sorted(range(n), key=lambda i: (-matrix[i][0], -matrix[i][1]))
    kept: list[int] = []
    best1: int | None = None
    position = 0
    while position < n:
        index = order[position]
        group0, candidate1 = matrix[index][0], matrix[index][1]
        if best1 is None or candidate1 > best1:
            kept.append(index)
            best1 = candidate1
        while position < n and matrix[order[position]][0] == group0:
            position += 1
    return sorted(kept) if ordered else kept


# -- pivot elimination --------------------------------------------------------------


def pivot_filter(np: Any, codes: Sequence[Any]) -> Any:
    """Ascending positions of the rows that no pivot dominates.

    ``codes`` holds one "bigger is better" int64 code vector per axis,
    *with* duplicate rows: this runs before deduplication, so rows need
    not be distinct.  Two pivots are taken — the row with the largest sum
    of per-axis min-max-normalized codes (the presort's "entropy" key of
    Chomicki et al.) and the row with the largest normalized *minimum*
    coordinate (SaLSa's stop point) — and every row that is ``<=`` a
    pivot on every axis and ``!=`` it somewhere is dropped (LESS's
    elimination filter, without its sort).

    Sound because the encoding is injective per arm (see the module
    docstring): "``>=`` everywhere, ``!=`` somewhere" between code
    vectors is strict Pareto dominance of the projections.  Dominance is
    a strict partial order, so a dropped row is never maximal, and every
    kept row dominated by a dropped one is dominated by that row's pivot
    too: the maximal rows of the survivors are the maximal rows of the
    input.  Rows equal to a pivot survive with it, as its duplicates.
    Which rows serve as pivots decides only how many rows go, never the
    answer.

    NumPy only: the interpreted SFS leg already meets the largest-sum row
    first, and a Python pass over every row costs more than it saves.
    """
    total = low = None
    for c in codes:
        lo, hi = c.min(), c.max()
        if lo == hi:
            continue  # a constant axis separates nothing
        x = (c - lo) * (1.0 / (hi - lo))
        total = x if total is None else total + x
        low = x if low is None else np.minimum(low, x)
    if total is None:
        return np.arange(len(codes[0]))  # every row has the same codes
    # Among rows <= a pivot everywhere, equality is an equal code sum.
    # Never in place: a code vector may be a column store's cached array.
    sums = codes[0]
    for c in codes[1:]:
        sums = sums + c
    dropped = None
    for p in {int(total.argmax()), int(low.argmax())}:
        below = sums < sums[p]
        for c in codes:
            below &= c <= c[p]
        dropped = below if dropped is None else dropped | below
    return np.flatnonzero(~dropped)


#: Kernel registry keyed by the planner's strategy names.
KERNELS = {"sfs": skyline_sfs}
