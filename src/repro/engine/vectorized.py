"""Skyline kernels over rank-encoded integer codes.

The SFS kernel's input is an ``n x d`` matrix of integer codes (rows =
distinct projections, columns = "bigger is better" axes) in which **rows
are pairwise distinct** — the axis extraction in :mod:`repro.engine.columnar`
encodes every Pareto arm injectively on its attribute (one rank code for a
chain, a ``(score, +-id)`` code pair for a weak order), so distinct
projections yield distinct vectors and vector dominance

    ``a`` dominates ``b``  iff  ``a >= b`` componentwise (and ``a != b``)

is *exactly* the Pareto order of the preference.  What a term means is
decided by its encoding, never by a kernel.  Distinctness lets the NumPy
kernel drop the "somewhere strictly greater" term: componentwise ``>=``
against a *different* row already implies strict dominance.  Callers
feeding it directly must uphold it.  Codes need not be dense — the
kernels only compare and add them.

Two kernels, each with a NumPy leg and a pure-Python leg that return
the same indices:

* :func:`skyline_sfs` — sort-filter-skyline: presort descending by the code
  sum (a dominance-compatible key: dominance strictly increases the sum),
  then sweep candidates against a grow-only window whose members are
  final.  The NumPy leg sweeps candidate *blocks*, one broadcasted
  ``window x block`` comparison each; only candidates that survive it are
  cross-checked among themselves (sound by transitivity: a candidate
  dominated by a window victim is dominated by the window too).
* :func:`skyline_two_arm` — the Pareto order of two arms, at least one a
  chain, in one linear pass over the rows: a scatter-max and a suffix
  maximum over the chain's codes, and a scatter-max per value of the
  other arm.  It reads one arm's codes, the other's ranks and value
  identities, not a code matrix, and its rows need not be distinct.

In front of the SFS kernel, on the NumPy leg and before deduplication,
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
of :func:`skyline_sfs` that re-sorts anyway (the columnar winnow maps
kernel output through a membership test) can pass ``ordered=False`` to
skip the final sort and take the indices in kernel order.
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


# -- two arms ----------------------------------------------------------------------


def skyline_two_arm(
    chain: Sequence[int],
    rank: Sequence[Any],
    identity: Sequence[int],
    np: Any = DETECT,
) -> list[int]:
    """Indices of the rows no other row dominates, ascending, where ``x``
    dominates ``y`` iff

    1. ``chain[x] >= chain[y]`` and ``rank[x] > rank[y]``, or
    2. ``identity[x] == identity[y]`` and ``chain[x] > chain[y]``:

    Definition 8's Pareto order of a chain (int codes, bigger is better)
    and an arm whose value is ``identity`` (int codes spanning no more
    than a column's values, as the engine's do; equal identities, equal
    ranks) and whose score is ``rank`` — better there is a strictly
    better score or the same value.  A rank not equal to itself (NaN)
    takes no part in test 1, as dominator or as dominated.  A second
    chain is such an arm, its codes both rank and identity.  Equal rows
    never dominate each other, so duplicates stay together.

    Test 1 is one scatter-max of the ranks per chain code and a suffix
    maximum, test 2 one scatter-max of the chain codes per identity: no
    sort and no pairwise comparison on the NumPy leg, unless codes range
    far wider than the rows (:data:`SPREAD`).  A chain of
    :data:`COARSE_MIN` codes or more first runs test 1 between blocks of
    codes, and both tests on the rows that leaves.
    """
    if np is DETECT:
        np = get_numpy()
    if not len(chain):
        return []
    if np is not None:
        return _two_arm_numpy(np, chain, rank, identity)
    return _two_arm_python(chain, rank, identity)


#: Chains with at least this many codes take a coarse round first: test 1
#: between blocks of ``2**BLOCK_BITS`` consecutive codes, which drops all
#: but the rows near the answer on most inputs, then both tests on what
#: it leaves.
COARSE_MIN = 4096
BLOCK_BITS = 6

#: Codes ranging over :data:`COARSE_MIN` values and more than this many
#: times the row count are re-ranked densely before they index an array:
#: one sort beats passes over a mostly empty range (a small index into a
#: column of many values, or the few rows a coarse round leaves).
SPREAD = 8


def _indices(np: Any, codes: Any) -> Any:
    """Int ``codes`` as indices into an array of O(len(codes)) entries
    (or fewer than :data:`COARSE_MIN`), in the same order."""
    codes = np.asarray(codes, dtype=np.int64)
    low = codes.min()
    if codes.max() - low < max(SPREAD * len(codes), COARSE_MIN):
        return codes - low if low else codes
    return np.unique(codes, return_inverse=True)[1]


def _outranked(np: Any, c: Any, r: Any, above: bool) -> Any:
    """Mask of the rows that a ranked row with a chain code ``>=`` theirs
    (``>`` when ``above``) outranks: a scatter-max of the ranks per code
    and a suffix maximum."""
    ranked_c, ranked_r = c, r
    if r.dtype.kind == "f":
        ranked = r == r
        if not ranked.all():
            ranked_c, ranked_r = c[ranked], r[ranked]
    if not len(ranked_r):
        return np.zeros(len(c), dtype=bool)
    # Codes no ranked row holds keep the lowest rank: it beats none.
    low = np.iinfo(r.dtype).min if r.dtype.kind in "iu" else -np.inf
    best = np.full(int(c.max()) + 2, low, dtype=r.dtype)
    np.maximum.at(best, ranked_c, ranked_r)
    best = np.maximum.accumulate(best[::-1])[::-1]
    return (best[1:] if above else best).take(c) > r


def _two_arm_numpy(np: Any, chain: Any, rank: Any, identity: Any) -> list[int]:
    c = _indices(np, chain)
    r = np.asarray(rank)
    v = np.asarray(identity, dtype=np.int64)
    kept = None
    if c.max() >= COARSE_MIN:
        # Sound on its own (a row a higher block outranks is dominated),
        # and what it drops cannot matter: every dominated row is
        # dominated by a maximal one, which survives.
        kept = np.flatnonzero(~_outranked(np, c >> BLOCK_BITS, r, True))
        c, r, v = _indices(np, c[kept]), r[kept], v[kept]
    dominated = _outranked(np, c, r, False)
    # Identity codes range over a column's values at most: no re-ranking.
    v = v - v.min()
    top = np.zeros(int(v.max()) + 1, dtype=np.int64)
    np.maximum.at(top, v, c)
    dominated |= c < top.take(v)
    out = np.flatnonzero(~dominated)
    return (out if kept is None else kept[out]).tolist()


def _two_arm_python(
    chain: Sequence[int], rank: Sequence[Any], identity: Sequence[int]
) -> list[int]:
    best: dict[int, Any] = {}
    top: dict[int, int] = {}
    for c, r, v in zip(chain, rank, identity):
        if r == r and (c not in best or r > best[c]):
            best[c] = r
        if v not in top or c > top[v]:
            top[v] = c
    running: Any = None
    for c in sorted(best, reverse=True):
        if running is None or best[c] > running:
            running = best[c]
        best[c] = running
    return [
        i
        for i, (c, r, v) in enumerate(zip(chain, rank, identity))
        if not ((r == r and best[c] > r) or c < top[v])
    ]


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
