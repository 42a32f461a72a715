"""Decomposition of preference queries (Sections 5.2-5.4, Propositions 8-12).

The paper decomposes complex preference queries into simpler ones — the
ground work for divide & conquer evaluation in a preference query optimizer:

* Prop. 8:  ``sigma[P1+P2](R)   = sigma[P1](R) /\\ sigma[P2](R)``
* Prop. 9:  ``sigma[P1<>P2](R)  = sigma[P1](R) \\/ sigma[P2](R) \\/ YY``
* Prop. 10: ``sigma[P1&P2](R)   = sigma[P1](R) /\\ sigma[P2 groupby A1](R)``
* Prop. 11: ``sigma[P1&P2](R)   = sigma[P2](sigma[P1](R))`` for chain P1
* Prop. 12: the Pareto master theorem combining 5, 9 and 10.

All evaluators work on relations (or dict-row lists) and return results with
*set* semantics on full tuples (the propositions are stated over sets); the
test-suite checks them against the naive BMO evaluation of the composite
preference on randomized inputs.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.constructors import (
    DisjointUnionPreference,
    IntersectionPreference,
    ParetoPreference,
    PrioritizedPreference,
)
from repro.core.preference import Preference, Row
from repro.query.algorithms import block_nested_loop
from repro.query.bmo import _repack, _unpack, winnow, winnow_groupby
from repro.relations.relation import Relation


def _row_key(row: Row) -> tuple:
    return tuple(sorted(row.items(), key=lambda kv: kv[0]))


def _set_intersect(a: list[Row], b: list[Row]) -> list[Row]:
    keys = {_row_key(r) for r in b}
    seen: set[tuple] = set()
    out = []
    for r in a:
        k = _row_key(r)
        if k in keys and k not in seen:
            seen.add(k)
            out.append(r)
    return out


def _set_union(*parts: list[Row]) -> list[Row]:
    seen: set[tuple] = set()
    out = []
    for part in parts:
        for r in part:
            k = _row_key(r)
            if k not in seen:
                seen.add(k)
                out.append(r)
    return out


# -- Definition 17 machinery -----------------------------------------------------

def nmax_projections(pref: Preference, rows: Sequence[Row]) -> set[tuple]:
    """``Nmax(P_R) = R[A] - max(P_R)`` as a set of projection tuples."""
    attrs = pref.attributes
    all_proj = {tuple(r[a] for a in attrs) for r in rows}
    best = block_nested_loop(pref, list(rows))
    max_proj = {tuple(r[a] for a in attrs) for r in best}
    return all_proj - max_proj


def better_than_in(
    pref: Preference, value_row: Row, rows: Sequence[Row]
) -> set[tuple]:
    """``P ^ v`` restricted to the database: ``{w in R[A] : v <_P w}``.

    Definition 17b's 'better-than set' — the up-set of ``v`` — intersected
    with ``R[A]``, which is the form the YY test needs (Example 11 computes
    these up-sets inside R).
    """
    attrs = pref.attributes
    out: set[tuple] = set()
    for row in rows:
        if pref._lt(value_row, row):
            out.add(tuple(row[a] for a in attrs))
    return out


def yy_set(
    p1: Preference, p2: Preference, data: Relation | Sequence[Row]
) -> Any:
    """``YY(P1, P2)_R`` (Definition 17c): the "hidden maxima" of P1 <> P2.

    Tuples non-maximal in *both* component database preferences whose
    better-than sets inside R do not intersect: nothing in R beats them in
    both components simultaneously, so they survive the conjunction.
    """
    rows, template = _unpack(data)
    nmax1 = nmax_projections(p1, rows)
    nmax2 = nmax_projections(p2, rows)
    a1, a2 = p1.attributes, p2.attributes
    # Up-sets may live on different attribute sets; emptiness of their
    # overlap is decided on the union attributes (Example 11 does exactly
    # this with P1&P2 and P2&P1 over the same single attribute).
    union_attrs = tuple(dict.fromkeys((*a1, *a2)))
    out: list[Row] = []
    seen: set[tuple] = set()
    for row in rows:
        k1 = tuple(row[a] for a in a1)
        k2 = tuple(row[a] for a in a2)
        if k1 not in nmax1 or k2 not in nmax2:
            continue
        up1_full = {
            tuple(r[a] for a in union_attrs) for r in rows if p1._lt(row, r)
        }
        up2_full = {
            tuple(r[a] for a in union_attrs) for r in rows if p2._lt(row, r)
        }
        if up1_full & up2_full:
            continue
        k = _row_key(row)
        if k not in seen:
            seen.add(k)
            out.append(row)
    return _repack(out, template)


# -- Propositions 8-12 -----------------------------------------------------------

def eval_union(
    p1: Preference, p2: Preference, data: Relation | Sequence[Row]
) -> Any:
    """Proposition 8: ``sigma[P1+P2](R) = sigma[P1](R) intersect sigma[P2](R)``."""
    rows, template = _unpack(data)
    r1 = winnow(p1, rows)
    r2 = winnow(p2, rows)
    return _repack(_set_intersect(r1, r2), template)


def eval_intersection(
    p1: Preference, p2: Preference, data: Relation | Sequence[Row]
) -> Any:
    """Proposition 9: ``sigma[P1<>P2](R) = sigma[P1](R) u sigma[P2](R) u YY``."""
    rows, template = _unpack(data)
    r1 = winnow(p1, rows)
    r2 = winnow(p2, rows)
    r3 = yy_set(p1, p2, rows)
    return _repack(_set_union(r1, r2, r3), template)


def eval_prioritized_grouping(
    p1: Preference, p2: Preference, data: Relation | Sequence[Row]
) -> Any:
    """Proposition 10 (plus the Prop. 4a degenerate case).

    For disjoint attribute sets:
    ``sigma[P1&P2](R) = sigma[P1](R) intersect sigma[P2 groupby A1](R)``;
    for identical attribute sets Prop. 4a collapses ``P1 & P2`` to ``P1``.
    """
    if p1.attribute_set == p2.attribute_set:
        return winnow(p1, data)
    shared = p1.attribute_set & p2.attribute_set
    if shared:
        raise ValueError(
            f"Proposition 10 needs disjoint attribute sets; shared: {sorted(shared)}"
        )
    rows, template = _unpack(data)
    r1 = winnow(p1, rows)
    r2 = winnow_groupby(p2, p1.attributes, rows)
    return _repack(_set_intersect(r1, r2), template)


def eval_prioritized_cascade(
    p1: Preference, p2: Preference, data: Relation | Sequence[Row]
) -> Any:
    """Proposition 11: ``sigma[P1&P2](R) = sigma[P2](sigma[P1](R))`` when
    ``P1`` is a chain (all survivors of P1 share one A1-value, so the
    grouping of Prop. 10 degenerates to a cascade)."""
    if p1.is_chain() is not True:
        raise ValueError(
            f"Proposition 11 requires a chain as the more important "
            f"preference; {p1!r} is not statically known to be one"
        )
    return winnow(p2, winnow(p1, data))


def eval_pareto_decomposition(
    p1: Preference, p2: Preference, data: Relation | Sequence[Row]
) -> Any:
    """Proposition 12, the Pareto master theorem::

        sigma[P1 (x) P2](R) = (sigma[P1](R) /\\ sigma[P2 groupby A1](R))
                            u (sigma[P2](R) /\\ sigma[P1 groupby A2](R))
                            u YY(P1&P2, P2&P1)_R

    The first two terms are the maxima of the two prioritized orders
    (Prop. 10); the third collects values maximal in neither but beaten in
    both simultaneously by nobody (the compromise reservoir).  Requires
    disjoint attribute sets, like Prop. 10 it builds on; for shared
    attributes use Prop. 6 and :func:`eval_intersection` instead.
    """
    rows, template = _unpack(data)
    term1 = eval_prioritized_grouping(p1, p2, rows)
    term2 = eval_prioritized_grouping(p2, p1, rows)
    term3 = yy_set(
        PrioritizedPreference((p1, p2)),
        PrioritizedPreference((p2, p1)),
        rows,
    )
    return _repack(_set_union(term1, term2, term3), template)


def eval_by_decomposition(pref: Preference, data: Relation | Sequence[Row]) -> Any:
    """Dispatch a binary compound preference to its decomposition theorem.

    The one entry point for comparing decomposed evaluation against the
    direct algorithms.
    """
    if isinstance(pref, DisjointUnionPreference) and len(pref.children) == 2:
        return eval_union(*pref.children, data)
    if isinstance(pref, IntersectionPreference) and len(pref.children) == 2:
        return eval_intersection(*pref.children, data)
    if isinstance(pref, PrioritizedPreference) and len(pref.children) == 2:
        p1, p2 = pref.children
        if p1.is_chain() is True:
            return eval_prioritized_cascade(p1, p2, data)
        return eval_prioritized_grouping(p1, p2, data)
    if isinstance(pref, ParetoPreference) and len(pref.children) == 2:
        p1, p2 = pref.children
        if p1.attribute_set == p2.attribute_set:
            return eval_intersection(p1, p2, data)  # Proposition 6
        return eval_pareto_decomposition(p1, p2, data)
    raise ValueError(
        f"no decomposition theorem applies to {pref!r} "
        "(need a binary +, <>, &, or (x) term)"
    )
