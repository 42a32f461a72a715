"""The columnar winnow: BMO evaluation over per-attribute code vectors.

This is the evaluator of every term that lowers to integer code axes
(:func:`columnar_axes`) — in plans, in view seeds and rebuilds, and per
group in grouped winnows, with NumPy or without.  The pipeline for
``sigma[P](sigma[cond](R))``:

1. **Select** — a plan hands the kernel its input as ``(R, index)``: the
   positions of ``R``'s rows that pass the WHERE conjuncts below it
   (:func:`select_index`), each a NumPy mask over ``R``'s cached exact
   columns (:func:`repro.psql.translate.where_mask`) or, outside that
   fragment or without NumPy, its row closure over the rows at the index
   so far.  No row dict is touched until the survivors are known.  Any
   other input is a relation or a row list, read whole.
2. **Extract axes** — one :class:`ColumnAxis` per Pareto child
   (:func:`columnar_axes`).  A child qualifies when it is a chain with an
   injective score on its attribute (LOWEST, HIGHEST, ...: one "bigger is
   better" code) or a *weak order* over one attribute (AROUND, BETWEEN,
   single-attribute SCORE, POS, NEG, POS/NEG, POS/POS, their duals: a
   score ranks, value identity decides equality).  A weak order lowers to
   **two** codes — the ranks of ``(score, id)`` and of ``(score, -id)`` —
   because ``>=`` on both holds iff the score is better or the value is
   the same, which is Definition 8's clause for that arm: equidistant
   AROUND values stay unranked (Example 2), and distinct projections
   stay distinct vectors.  Either way vector dominance *is* the Pareto
   order and vector equality *is* projection equality.
3. **Encode** from the input's :class:`ColumnStore`, whose entries are
   cached per attribute for the relation's lifetime: a plain chain
   gathers the column's dense rank codes at the index (restricted to a
   subset they stay order-isomorphic), a weak arm gathers the column's
   identity codes and scores only the distinct values present
   (:func:`~repro.engine.columns.weak_codes`), and a keyed or composite
   chain encodes what its key makes of the gathered values.
4. **Deduplicate** — distinct projections over ``P``'s attributes, with
   the inverse needed to fan maximal projections back out to tuples (BMO
   keeps every tuple whose projection is maximal) — and run the SFS
   kernel, or the 2-d sweep for two code axes, of
   :mod:`repro.engine.vectorized`.  Dict rows are gathered for the
   survivors only.

Every stage has a NumPy leg and a pure-Python leg with identical results,
picked from NumPy's presence and the input size (:data:`NUMPY_MIN_ROWS`):
the relation's size for selection and cached codes, the index's for the
kernel.

A bare weak order — HIGHEST, LOWEST, ``ChainPreference``, the SCORE family
and the layered POS / NEG / POS-NEG / POS-POS, and their duals — takes a
short cut: :func:`~repro.query.algorithms.weak_score` says how it
scores a column's values, and its maxima are the best-scored rows plus
the unranked ones, one argmax pass (:func:`sort_based_maxima`) with no
dominance matrix.

Both evaluators are registered in the algorithm registry — the argmax as
``"sort"``, the code kernels as ``"vsfs"`` — which is how plans, cascade
stages, grouped winnows and ``PreferenceQuery.using(...)`` name them.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.constructors import (
    DualPreference,
    ParetoPreference,
    PrioritizedPreference,
)
from repro.core.preference import Preference
from repro.engine.backend import get_numpy
from repro.engine.columns import ColumnStore, encode_axis, take, weak_codes
from repro.engine.vectorized import (
    DEFAULT_BLOCK,
    KERNELS,
    skyline_2d,
    skyline_sfs,
)
from repro.query.algorithms import (
    ALGORITHMS,
    ColumnAxis,
    chain_axis,
    weak_score,
)
from repro.relations.relation import Relation

Row = dict[str, Any]

#: Inputs with fewer rows take the interpreted leg even with NumPy
#: installed: a NumPy winnow pays ~60 us of array construction and dispatch
#: up front, the interpreted leg pays per row.  Measured crossing: ~48 rows
#: for 3-5 code axes, ~80 for two (docs/performance.md, "The leg switch").
NUMPY_MIN_ROWS = 48


class NotColumnarError(ValueError):
    """The preference has no columnar evaluation (see :func:`columnar_axes`)."""


def _leg(rows: int) -> Any:
    """The leg for ``rows`` inputs: the NumPy module when it is importable
    and ``rows`` reaches :data:`NUMPY_MIN_ROWS`, else None (interpreted)."""
    return get_numpy() if rows >= NUMPY_MIN_ROWS else None


# -- axis extraction ----------------------------------------------------------------


def _value_axis(child: Preference) -> ColumnAxis | None:
    """The :class:`ColumnAxis` of one Pareto child, or None: a
    single-attribute :func:`weak_score` (weak orders are pair-encoded
    later, so the distinct values a score ties stay apart: Example 2 of
    the paper), or a prioritization of disjoint chains, or a dual of
    either.  Multi-attribute SCORE arms have no code-axis form.
    """
    if isinstance(child, DualPreference):
        inner = _value_axis(child.base)
        return None if inner is None else inner._replace(sign=-inner.sign)
    if isinstance(child, PrioritizedPreference) and child.is_chain() is True:
        # Proposition 3h: a prioritization of chains over disjoint
        # attributes is a chain under the lexicographic order — encode the
        # whole arm as one composite axis whose value is the tuple of
        # per-stage row-axis values (injective, so tuple equality is
        # projection equality).  The row engine's chain_axis builds the
        # per-stage values, directions included.
        arm_axis = chain_axis(child)
        if arm_axis is None:
            return None
        attributes = child.attributes

        def composite(values: tuple) -> Any:
            return arm_axis(dict(zip(attributes, values)))

        return ColumnAxis(attributes, composite, 1)
    axis = weak_score(child)
    return None if axis is None or isinstance(axis.attribute, tuple) else axis


def columnar_axes(pref: Preference) -> list[ColumnAxis] | None:
    """Per-arm column transforms when winnow = vector skyline.

    Pareto accumulations of chains and weak orders yield one axis per
    child; a bare injective chain is a one-dimensional skyline.  A bare
    weak order is not: its maxima are one linear argmax or level pass,
    which no dominance kernel beats.  ``None`` means the term has no
    columnar dominance evaluation (the argmax path of
    :func:`columnar_winnow` may still apply).
    """
    if isinstance(pref, ParetoPreference):
        axes = []
        for child in pref.children:
            axis = _value_axis(child)
            if axis is None:
                return None
            axes.append(axis)
        return axes
    single = _value_axis(pref)
    return None if single is None or single.weak else [single]


def columnar_profile(pref: Preference) -> str | None:
    """How the columnar engine would evaluate ``pref``.

    ``"score"`` — a weak order (:func:`weak_score`), one argmax pass;
    ``"skyline"`` — rank-encoded vector dominance (the case where the
    columnar backend beats the row engine asymptotically); ``None`` — not
    columnar-evaluable.  Score is checked first, as ``choose_algorithm``
    does: a bare HIGHEST or ChainPreference is a 1-d skyline too, and the
    argmax is the cheaper evaluation.
    """
    if weak_score(pref) is not None:
        return "score"
    if columnar_axes(pref) is not None:
        return "skyline"
    return None


# -- selection ----------------------------------------------------------------------


def select_index(
    relation: Relation,
    conjuncts: Sequence[tuple[Callable[[Row], bool], Any]],
) -> Any:
    """Positions of ``relation``'s rows that pass every conjunct, ascending.

    ``conjuncts`` are ``(predicate, ast)`` pairs, innermost first, as a
    plan's ``HardSelect`` chain holds them.  On the NumPy leg a conjunct
    whose AST :func:`~repro.psql.translate.where_mask` covers is a mask
    over the relation's cached exact columns at the index so far; any
    other conjunct, and every conjunct on the interpreted leg, calls its
    predicate on the rows at that index.  Either way the next conjunct
    reads only the survivors and no row is copied: the index composes.
    An int64 array on the NumPy leg, a list otherwise; None (every row)
    when there are no conjuncts.
    """
    from repro.psql.translate import where_mask

    store = relation.column_store()
    np = _leg(store.length)
    rows = store.rows
    index: Any = None

    def array(attribute: str) -> Any:
        column = store.array(attribute, np)
        return column if column is None or index is None else column[index]

    for predicate, ast in conjuncts:
        mask = None
        if np is not None and ast is not None:
            mask = where_mask(ast, array, np)
        if mask is not None:
            index = np.flatnonzero(mask) if index is None else index[mask]
            continue
        if index is None:
            positions: Any = range(store.length)
        else:
            positions = index if np is None else index.tolist()
        kept = [i for i in positions if predicate(rows[i])]
        index = kept if np is None else np.asarray(kept, dtype=np.int64)
    return index


def masks_every(relation: Relation, asts: Sequence[Any]) -> bool:
    """Whether :func:`select_index` runs every one of ``asts`` over
    ``relation`` as a NumPy mask: the relation takes the NumPy leg and
    :func:`~repro.psql.translate.where_mask` covers each AST over its
    whole cached columns (then it covers them over any index too)."""
    from repro.psql.translate import where_mask

    store = relation.column_store()
    np = _leg(store.length)
    if np is None:
        return False

    def array(attribute: str) -> Any:
        return store.array(attribute, np)

    return all(
        ast is not None and where_mask(ast, array, np) is not None
        for ast in asts
    )


# -- the winnow ---------------------------------------------------------------------


def columnar_winnow(
    pref: Preference,
    data: Relation | Sequence[Row],
    strategy: str = "sfs",
    block_size: int = DEFAULT_BLOCK,
    *,
    index: Any = None,
) -> Any:
    """``sigma[P](R)`` over column vectors; same results as the row winnow.

    Weak orders (:func:`weak_score`) take the argmax path; everything else
    must lower to code axes (:func:`columnar_axes`) or :class:`NotColumnarError`
    is raised — callers wanting automatic fallback go through the planner,
    which only picks this evaluator when it applies.  ``strategy`` names
    the kernel, and :data:`repro.engine.vectorized.KERNELS` has one.
    ``index`` restricts ``data`` to the rows at those ascending positions
    (:func:`select_index`) without building them.  NumPy or interpreted is
    chosen once per winnow and handed to every stage: NumPy when
    importable and the input has :data:`NUMPY_MIN_ROWS` rows.
    """
    if strategy not in KERNELS:
        raise ValueError(
            f"unknown columnar strategy {strategy!r}; known: {sorted(KERNELS)}"
        )
    return lowered_winnow(pref)(data, block_size, index)


def lowered_winnow(pref: Preference) -> Callable[..., Any]:
    """Lower ``pref`` once; the returned ``run(data, block_size, index)``
    is :func:`columnar_winnow` for that term — a grouped winnow calls it
    per group instead of lowering per group.
    """
    # Score first (same precedence as columnar_profile / choose_algorithm):
    # for terms that are both — a bare HIGHEST is a 1-d skyline too — the
    # single argmax pass beats the dominance kernel.
    score = weak_score(pref)
    axes = columnar_axes(pref) if score is None else None
    if score is None and axes is None:
        raise NotColumnarError(
            f"{pref!r} is neither a weak order nor a Pareto of chains and "
            "weak orders; use another algorithm"
        )

    def run(
        data: Relation | Sequence[Row],
        block_size: int = DEFAULT_BLOCK,
        index: Any = None,
    ) -> Any:
        if isinstance(data, Relation):
            store = data.column_store()
            template: Relation | None = data
        else:
            # A row list's store builds only the columns the winnow reads:
            # row lists may be heterogeneous on the others, and the row
            # engine tolerates that.
            store = ColumnStore(data)
            template = None
        size = store.length if index is None else len(index)
        if size == 0:
            if template is None:
                return []
            return template if index is None else template._derive([])

        if score is not None:
            picked = _argmax_rows(store, index, score)
        else:
            np = _leg(size)
            if np is None and index is not None and not isinstance(index, list):
                index = index.tolist()
            picked = _skyline_rows(store, index, axes, np, block_size)

        rows = [store.rows[i] for i in picked]
        if template is None:
            # Return the caller's own dict objects, matching the identity
            # semantics of the row algorithms (kernels never mutate rows).
            return rows
        return template._derive(rows)

    return run


def _gather(store: ColumnStore, attribute: Any, index: Any) -> Sequence[Any]:
    """The values of ``attribute`` at ``index`` (None: all) — tuples of
    the zipped columns for a composite arm."""
    if isinstance(attribute, tuple):
        column: Sequence[Any] = list(
            zip(*(store.column(a) for a in attribute))
        )
    else:
        column = store.column(attribute)
    return column if index is None else [column[i] for i in index]


def _present(identity: Any, distinct: list, np: Any) -> tuple[Any, list]:
    """Identity codes re-densified over the values they hold, and those
    values: a subset of a column scores only what it contains."""
    if np is not None:
        held, dense = np.unique(identity, return_inverse=True)
        return dense.reshape(-1), [distinct[i] for i in held.tolist()]
    held = sorted(set(identity))
    dense_of = {code: i for i, code in enumerate(held)}
    return [dense_of[code] for code in identity], [distinct[i] for i in held]


def _encoded_axes(
    store: ColumnStore, index: Any, axes: list[ColumnAxis], np: Any
) -> tuple[list[Any], list[Any], list[bool] | None]:
    """``(code vectors, identity vectors, incomparable row mask)`` over
    the rows at ``index`` (None: all), on the ``np`` leg.

    One int code vector per chain axis and two per weak axis, sign
    applied; and per axis one *identity* vector — equal entries iff equal
    attribute values — which is what deduplication keys on.  The mask
    marks rows with a NaN-like value on a *chain* axis: such values are
    unranked against everything, so those rows can neither dominate nor
    be dominated — they are unconditionally BMO-maximal and must bypass
    the kernels (whose total integer codes cannot express
    incomparability).  ``None`` when no such value exists.  (A weak axis
    encodes its unranked values itself.)  Plain chains and weak arms read
    the store's per-attribute caches, built on the leg of the whole
    store, and gather them at the index.
    """
    cached = _leg(store.length)
    encoded: list[Any] = []
    identities: list[Any] = []
    combined: list[bool] | None = None
    for attribute, fn, sign, weak in axes:
        if weak:
            identity, distinct = store.weak_identity(attribute, cached)
            identity = take(identity, index, np)
            if index is not None:
                identity, distinct = _present(identity, distinct, np)
            upper, lower = weak_codes(identity, distinct, fn, sign, np)
            encoded += [upper, lower]
            identities.append(identity)
            continue
        if fn is None:
            codes, incomparable = store.chain_codes(attribute, cached)
            codes = take(codes, index, np)
            if incomparable is not None:
                incomparable = take(incomparable, index, None)
        else:
            values = [fn(v) for v in _gather(store, attribute, index)]
            codes, incomparable = encode_axis(values, np)
        identities.append(codes)  # dense ranks of an injective key
        if sign < 0:
            codes = [-c for c in codes] if isinstance(codes, list) else -codes
        encoded.append(codes)
        if incomparable is not None:
            if combined is None:
                combined = list(incomparable)
            else:
                combined = [a or b for a, b in zip(combined, incomparable)]
    return encoded, identities, combined


def _packed_key(np: Any, identities: list[Any]) -> Any:
    """One int64 per row, equal iff the rows agree on every identity.

    Identity codes are dense, so the widths multiply into a mixed-radix
    number; when the next digit would overflow, the key so far is
    re-densified (at most ``n`` distinct values) and packing continues.
    """
    key, width = identities[0], int(identities[0].max()) + 1
    for identity in identities[1:]:
        digit = int(identity.max()) + 1
        if width * digit >= 2**62:
            key = np.unique(key, return_inverse=True)[1].reshape(-1)
            width = int(key.max()) + 1
        key = key * digit + identity
        width *= digit
    return key


def _skyline_rows(
    store: ColumnStore,
    index: Any,
    axes: list[ColumnAxis],
    np: Any,
    block_size: int,
) -> list[int]:
    """Positions of the rows at ``index`` (None: all) whose projection is
    Pareto-maximal, ascending.

    Every arm's codes are injective on its attribute, so code-vector
    equality coincides with projection equality — distinct projections
    (the unit BMO reasons about) are exactly the distinct code vectors,
    and fan-out back to duplicate-carrying tuples is a lookup through the
    dedup inverse.  On the NumPy leg (``np`` is the module) the dedup is
    one ``np.unique`` over a packed identity key; the interpreted leg
    (``np`` is None) uses one dict pass.
    """
    # Two code axes take the O(n log n) sweep: same results, and immune
    # to the O(n * skyline) blow-up the pairwise kernel hits on
    # all-maximal (anti-correlated) data.
    two_d = sum(axis.width for axis in axes) == 2

    def run_kernel(matrix: Any) -> list[int]:
        # Kernel output feeds a membership test, so the ascending-order
        # contract is paid for once at the end, not here.
        if two_d:
            return skyline_2d(matrix, ordered=False, np=np)
        return skyline_sfs(matrix, block_size, ordered=False, np=np)

    encoded, identities, incomparable = _encoded_axes(store, index, axes, np)
    if np is not None:
        encoded = [np.asarray(codes, dtype=np.int64) for codes in encoded]
        identities = [np.asarray(i, dtype=np.int64) for i in identities]
        positions = (
            np.arange(store.length) if index is None else np.asarray(index)
        )
        if incomparable is not None:
            # NaN-like rows bypass the kernel: unconditionally maximal,
            # never dominating (their code entries are junk).
            bad = np.asarray(incomparable, dtype=bool)
            clean = np.flatnonzero(~bad)
            if not len(clean):
                return positions.tolist()
            encoded = [codes[clean] for codes in encoded]
            identities = [identity[clean] for identity in identities]
        _, first, inverse = np.unique(
            _packed_key(np, identities),
            return_index=True, return_inverse=True,
        )
        distinct = np.stack([codes[first] for codes in encoded], axis=1)
        kept = np.zeros(len(first), dtype=bool)
        kept[run_kernel(distinct)] = True
        hits = np.flatnonzero(kept[inverse.reshape(-1)])
        if incomparable is not None:
            hits = np.sort(np.concatenate([clean[hits], np.flatnonzero(bad)]))
        return positions[hits].tolist()

    vectors = list(zip(*encoded))
    group_of: dict[tuple, int] = {}
    distinct_vectors: list[tuple] = []
    inverse_of: dict[int, int] = {}
    for i, vector in enumerate(vectors):
        if incomparable is not None and incomparable[i]:
            continue
        gid = group_of.get(vector)
        if gid is None:
            gid = len(distinct_vectors)
            group_of[vector] = gid
            distinct_vectors.append(vector)
        inverse_of[i] = gid
    kept_set = set(run_kernel(distinct_vectors))
    hits = [
        i
        for i in range(len(vectors))
        if (incomparable is not None and incomparable[i])
        or inverse_of.get(i) in kept_set
    ]
    return hits if index is None else [index[i] for i in hits]


def _argmax_rows(
    store: ColumnStore, index: Any, score: ColumnAxis
) -> list[int]:
    """Positions of a weak order's BMO set among the rows at ``index``
    (None: all), ascending.  An identity key makes the column its own
    score vector; any other key scores each distinct value once (distinct
    by dict identity, as in :func:`~repro.engine.columns.weak_codes`)."""
    attribute, key, sign, _ = score
    column = _gather(store, attribute, index)
    values = None if key is None else list(dict.fromkeys(column))
    picked = best_positions(
        column if values is None else [key(v) for v in values], sign
    )
    if values is not None:
        kept = {values[i] for i in picked}
        picked = [i for i, v in enumerate(column) if v in kept]
    return picked if index is None else [int(index[i]) for i in picked]


def best_positions(scores: Sequence[Any], sign: int) -> list[int]:
    """Positions of the best score — ``max`` for ``sign`` 1, ``min`` for
    -1, never a negation, so any ordered domain scores — plus every score
    not equal to itself (NaN: ranked against nothing, so maximal on its
    own), ascending."""
    ranked = [s for s in scores if s == s]
    if not ranked:
        return list(range(len(scores)))
    best = max(ranked) if sign > 0 else min(ranked)
    return [i for i, s in enumerate(scores) if s == best or s != s]


def sort_based_maxima(
    pref: Preference, data: Relation | Sequence[Row]
) -> Any:
    """``sigma[P](R)`` for a weak order ``P`` (:func:`weak_score`) in one
    argmax pass, the ``"sort"`` algorithm: its best-scored rows plus the
    unranked ones.  Takes a relation or a row list, like
    :func:`columnar_winnow`; any other term raises
    :class:`NotColumnarError`."""
    if weak_score(pref) is None:
        raise NotColumnarError(
            f"{pref!r} is not a weak order; use another algorithm"
        )
    return lowered_winnow(pref)(data)


ALGORITHMS["sort"] = sort_based_maxima
ALGORITHMS["vsfs"] = columnar_winnow
