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
   order and vector equality *is* projection equality.  (The two-arm
   pass of step 4 reads a weak arm's score and identity as they are.)
3. **Encode** from the input's :class:`ColumnStore`, whose entries are
   cached per attribute for the relation's lifetime: a plain chain
   gathers the column's dense rank codes at the index (restricted to a
   subset they stay order-isomorphic), a weak arm gathers the column's
   identity codes and scores only the distinct values present
   (:func:`~repro.engine.columns.weak_codes`) — an AROUND or BETWEEN arm
   on the NumPy leg as one array expression over the cached distinct
   values where that is exact
   (:func:`~repro.engine.columns.interval_scores`; the two-arm pass
   scores every cached value that way and skips the renumbering), any
   other arm one call per value — and a keyed or composite chain
   encodes what its key makes of the gathered values.
4. **Eliminate, deduplicate, sweep** — rows with a NaN-like chain value
   are set aside as maximal.  A Pareto of two arms with a chain among
   them (weak order × chain in either order, chain × chain) then takes
   one linear pass, :func:`~repro.engine.vectorized.skyline_two_arm`:
   a row is beaten by a strictly better score at an equal or better
   chain code, or by its own value at a better chain code — a
   scatter-max and a suffix maximum, no dominance matrix, no
   deduplication.  Any other term goes on: on the NumPy leg, from
   :data:`PIVOT_MIN_ROWS` rows, every row that one of two pivot rows
   strictly dominates is dropped
   (:func:`~repro.engine.vectorized.pivot_filter`): a few percent of the
   rows survive on independent and correlated inputs, most of them on
   anti-correlated ones.  The rest is reduced to distinct projections
   over ``P``'s attributes, with the inverse needed to fan maximal
   projections back out to tuples (BMO keeps every tuple whose
   projection is maximal), and the SFS kernel of
   :mod:`repro.engine.vectorized` runs on those.  Dict rows are
   gathered for the survivors only.

Every stage but the pivot filter has a NumPy leg and a pure-Python leg
with identical results, picked from NumPy's presence and the input size
(:data:`NUMPY_MIN_ROWS`): the relation's size for selection and cached
codes, the index's for the kernel.

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
from repro.engine.columns import (
    ColumnStore,
    encode_axis,
    interval_scores,
    scorable_interval,
    take,
    weak_codes,
)
from repro.engine.vectorized import (
    DEFAULT_BLOCK,
    KERNELS,
    pivot_filter,
    skyline_sfs,
    skyline_two_arm,
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

#: Inputs with fewer rows reach the skyline kernel without
#: :func:`~repro.engine.vectorized.pivot_filter`: below it the filter's
#: fixed cost is not repaid (docs/performance.md, "Pivot elimination").
PIVOT_MIN_ROWS = 1000


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

    def codes(attribute: str) -> Any:
        held = store.text_codes(attribute, np)
        if held is None or index is None:
            return held
        return held[0][index], held[1]

    for predicate, ast in conjuncts:
        mask = None
        if np is not None and ast is not None:
            mask = where_mask(ast, array, np, codes)
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


def _present(identity: Any, distinct: Any, np: Any) -> tuple[Any, Any]:
    """Identity codes re-densified over the values they hold, and those
    values (a list, or an array on the NumPy leg): a subset of a column
    scores only what it contains.

    The codes index ``distinct``, so on the NumPy leg a presence mask
    over it finds the values held, in code order, and its running count
    renumbers them — what ``np.unique(identity, return_inverse=True)``
    returns, without its sort."""
    if np is not None:
        present = np.zeros(len(distinct), dtype=bool)
        present[identity] = True
        held = np.flatnonzero(present)
        dense = (np.cumsum(present) - 1)[identity]
        if hasattr(distinct, "dtype"):
            return dense, distinct[held]
        return dense, [distinct[i] for i in held.tolist()]
    held = sorted(set(identity))
    dense_of = {code: i for i, code in enumerate(held)}
    return [dense_of[code] for code in identity], [distinct[i] for i in held]


def _chain_codes(
    store: ColumnStore, index: Any, axis: ColumnAxis, cached: Any, np: Any
) -> tuple[Any, list[bool] | None]:
    """``(codes, incomparable)`` of a chain arm over the rows at ``index``:
    its rank codes, sign not applied (:func:`_signed`), and the mask of rows
    whose value is NaN-like (None when there is none).  A plain chain
    gathers the store's cached rank codes; a keyed or composite chain
    encodes what its key makes of the gathered values."""
    attribute, fn = axis[:2]
    if fn is None:
        codes, incomparable = store.chain_codes(attribute, cached)
        codes = take(codes, index, np)
        if incomparable is not None:
            incomparable = take(incomparable, index, None)
    else:
        values = [fn(v) for v in _gather(store, attribute, index)]
        codes, incomparable = encode_axis(values, np)
    return codes, incomparable


def _signed(codes: Any, sign: int) -> Any:
    """Rank codes made "bigger is better"."""
    if sign > 0:
        return codes
    return [-c for c in codes] if isinstance(codes, list) else -codes


def _weak_scores(
    store: ColumnStore,
    index: Any,
    axis: ColumnAxis,
    cached: Any,
    np: Any,
    whole: bool = False,
) -> tuple[Any, Any]:
    """``(identity, scores)`` of a weak arm over the rows at ``index``:
    each row's identity code and the unsigned score of every distinct
    value the codes index.

    A BETWEEN / AROUND arm scores the distinct values' exact array in one
    expression where every step is exact; any other arm, column or leg
    calls the score per value, of the values the rows hold only
    (:func:`_present`).  ``whole`` keeps the array expression over all of
    the column's distinct values, un-renumbered."""
    attribute, fn, _, _, interval = axis
    identity, distinct = store.weak_identity(attribute, cached)
    values = None
    if np is not None and interval is not None and scorable_interval(*interval):
        values = store.weak_values(attribute, np)
    if values is not None:
        distinct = values
    identity = take(identity, index, np)
    if index is not None and not (whole and values is not None):
        identity, distinct = _present(identity, distinct, np)
    if values is None:
        return identity, [fn(v) for v in distinct]
    return identity, interval_scores(distinct, *interval, np)


def _encoded_axes(
    store: ColumnStore, index: Any, axes: list[ColumnAxis], np: Any
) -> tuple[list[Any], list[Any], list[bool] | None]:
    """``(code vectors, identity vectors, incomparable row mask)`` over
    the rows at ``index`` (None: all), on the ``np`` leg.

    One int code vector per chain axis and two per weak axis
    (:func:`~repro.engine.columns.weak_codes`), sign applied; and per
    axis one *identity* vector — equal entries iff equal attribute
    values — which is what deduplication keys on.  The mask marks rows
    with a NaN-like value on a *chain* axis: such values are unranked
    against everything, so those rows can neither dominate nor be
    dominated — they are unconditionally BMO-maximal and must bypass
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
    for axis in axes:
        if axis.weak:
            identity, scores = _weak_scores(store, index, axis, cached, np)
            encoded += weak_codes(identity, scores, axis.sign, np)
            identities.append(identity)
            continue
        codes, incomparable = _chain_codes(store, index, axis, cached, np)
        identities.append(codes)  # ranks of an injective key
        encoded.append(_signed(codes, axis.sign))
        combined = _either(combined, incomparable)
    return encoded, identities, combined


def _either(
    mask: list[bool] | None, other: list[bool] | None
) -> list[bool] | None:
    """The union of two incomparable-row masks (None: no row)."""
    if mask is None or other is None:
        return other if mask is None else mask
    return [a or b for a, b in zip(mask, other)]


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
            key = _distinct_keys(np, key)[1]
            width = int(key.max()) + 1
        key = key * digit + identity
        width *= digit
    return key


def _distinct_keys(np: Any, key: Any) -> tuple[Any, Any]:
    """``(first, inverse)`` of an int64 ``key``: one position per
    distinct key, in ascending key order, and each row's distinct-key
    number — ``np.unique(key, return_index=True, return_inverse=True)``
    but for which row of a run of equal keys stands for it.

    Rows with equal keys have equal code vectors, so any of them can:
    the default sort finds the runs without the stable sort ``np.unique``
    pays for the first one.
    """
    order = np.argsort(key)
    in_order = key[order]
    starts = np.empty(len(key), dtype=bool)
    starts[0] = True
    np.not_equal(in_order[1:], in_order[:-1], out=starts[1:])
    inverse = np.empty(len(key), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


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
    one sort of a packed identity key (:func:`_distinct_keys`), of the
    rows that :func:`~repro.engine.vectorized.pivot_filter` keeps once
    there are :data:`PIVOT_MIN_ROWS` of them; the interpreted leg (``np``
    is None) uses one dict pass over every row.  A Pareto of two arms with
    a chain among them takes none of that: :func:`_two_arm_rows`.
    """
    if len(axes) == 2 and not (axes[0].weak and axes[1].weak):
        return _two_arm_rows(store, index, axes, np)

    def run_kernel(matrix: Any) -> list[int]:
        # Kernel output feeds a membership test, so the ascending-order
        # contract is paid for once at the end, not here.
        return skyline_sfs(matrix, block_size, ordered=False, np=np)

    encoded, identities, incomparable = _encoded_axes(store, index, axes, np)
    if np is not None:
        encoded = [np.asarray(codes, dtype=np.int64) for codes in encoded]
        identities = [np.asarray(i, dtype=np.int64) for i in identities]
        positions = (
            np.arange(store.length) if index is None else np.asarray(index)
        )
        # ``live``: the rows that reach the kernel (None: all of them).
        live = None
        if incomparable is not None:
            # NaN-like rows bypass the kernel: unconditionally maximal,
            # never dominating (their code entries are junk).
            bad = np.asarray(incomparable, dtype=bool)
            live = np.flatnonzero(~bad)
            if not len(live):
                return positions.tolist()
            encoded = [codes[live] for codes in encoded]
        if len(encoded[0]) >= PIVOT_MIN_ROWS:
            undominated = pivot_filter(np, encoded)
            encoded = [codes[undominated] for codes in encoded]
            live = undominated if live is None else live[undominated]
        if live is not None:
            identities = [identity[live] for identity in identities]
        first, inverse = _distinct_keys(np, _packed_key(np, identities))
        distinct = np.stack([codes[first] for codes in encoded], axis=1)
        kept = np.zeros(len(first), dtype=bool)
        kept[run_kernel(distinct)] = True
        hits = np.flatnonzero(kept[inverse])
        if live is not None:
            hits = live[hits]
        if incomparable is not None:
            hits = np.sort(np.concatenate([hits, np.flatnonzero(bad)]))
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


def _two_arm_rows(
    store: ColumnStore, index: Any, axes: list[ColumnAxis], np: Any
) -> list[int]:
    """:func:`_skyline_rows` of a Pareto of two arms, at least one a
    chain, in one :func:`~repro.engine.vectorized.skyline_two_arm` pass
    over every row: no elimination, deduplication or presort.  It reads
    a chain arm's codes, and the other arm's per-row rank (a weak arm's
    signed score, NaN where it ranks nothing; a chain's codes) and value
    identity; of two chains, the one with the smaller code range is the
    chain.  Rows with a NaN-like chain value are set aside as maximal,
    as there."""
    cached = _leg(store.length)
    first, other = axes if not axes[0].weak else axes[::-1]
    chain, incomparable = _chain_codes(store, index, first, cached, np)
    chain = _signed(chain, first.sign)
    if other.weak:
        identity, scores = _weak_scores(store, index, other, cached, np, True)
        if not hasattr(scores, "dtype"):  # scored per value: rank the scores
            ranks, unranked = encode_axis(scores, np)
            scores = [
                float("nan") if unranked and unranked[i] else code
                for i, code in enumerate(ranks)
            ]
            if np is not None:
                scores = np.asarray(scores, dtype=np.float64)
        rank = _signed(take(scores, identity, np), other.sign)
    else:
        codes, more = _chain_codes(store, index, other, cached, np)
        rank = identity = _signed(codes, other.sign)
        incomparable = _either(incomparable, more)
        if np is not None and np.ptp(rank) < np.ptp(chain):
            chain, rank, identity = rank, chain, chain
    vectors = [chain, rank, identity]
    if incomparable is None:
        hits = skyline_two_arm(*vectors, np=np)
    else:
        live = [i for i, bad in enumerate(incomparable) if not bad]
        kept = skyline_two_arm(*(take(v, live, np) for v in vectors), np=np)
        kept_rows = {live[i] for i in kept}
        hits = [i for i, bad in enumerate(incomparable) if bad or i in kept_rows]
    return hits if index is None else take(index, hits, None)


def _argmax_rows(
    store: ColumnStore, index: Any, score: ColumnAxis
) -> list[int]:
    """Positions of a weak order's BMO set among the rows at ``index``
    (None: all), ascending.  An identity key makes the column its own
    score vector; any other key scores each distinct value once (distinct
    by dict identity, as in :func:`~repro.engine.columns.weak_codes`)."""
    attribute, key, sign = score[:3]
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
