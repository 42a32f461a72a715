"""The BMO ("Best Matches Only") query model (Section 5.1).

``sigma[P](R)`` retrieves every tuple of the database set ``R`` whose
projection is maximal in the database preference ``P_R`` (Definition 15) —
all best matches, and only those.  Query relaxation is implicit: when no
perfect match exists the maxima are the closest available compromises, and
non-maximal tuples are discarded on the fly.

Functions here accept either a :class:`~repro.relations.relation.Relation`
or a plain list of dict rows, and return the same shape they were given.

:func:`winnow` / :func:`winnow_groupby` are the engine-level operators used
by plan nodes; :class:`~repro.query.api.PreferenceQuery` is the planned
entry point on top of them.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Sequence

from repro.core.base_nonnumerical import ExplicitPreference, LayeredPreference
from repro.core.base_numerical import BetweenPreference, ScorePreference
from repro.core.constructors import (
    DualPreference,
    IntersectionPreference,
    ParetoPreference,
    PrioritizedPreference,
)
from repro.core.preference import AntiChain, Preference, Row
from repro.query.algorithms import ALGORITHMS, block_nested_loop, weak_score
from repro.relations.relation import Relation


def _unpack(data: Relation | Sequence[Row]) -> tuple[list[Row], Relation | None]:
    """``(rows to read, relation to :func:`_repack` results into)``.

    A relation's stored rows are read in place: the evaluators never
    mutate a row, and results go back through ``_derive``, which shares
    them under the same never-handed-out rule.  Rows from outside are
    copied, so a caller's later edits cannot reach a result.
    """
    if isinstance(data, Relation):
        return data._rows, data
    return [dict(r) for r in data], None


def _repack(rows: list[Row], template: Relation | None) -> Any:
    if template is None:
        return rows
    return template._derive(rows)


def _resolve_engine(
    algorithm: str | Callable[[Preference, list[Row]], list[Row]],
) -> Callable[[Preference, list[Row]], list[Row]]:
    if callable(algorithm):
        return algorithm
    try:
        return ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; known: {sorted(ALGORITHMS)}"
        ) from None


def _bind_engine(
    algorithm: str | Callable[[Preference, list[Row]], list[Row]],
    pref: Preference,
) -> Callable[[list[Row]], list[Row]]:
    """The evaluator of one term as a function of rows alone — what a
    grouped winnow calls once per group.  The code engine's two evaluators
    (the argmax ``"sort"`` and the kernels ``"vsfs"``) lower the term
    here, once, instead of inside every call; ``"sort"`` over a term that
    is not a weak order binds the adapter, which refuses it."""
    if algorithm == "vsfs" or (
        algorithm == "sort" and weak_score(pref) is not None
    ):
        from repro.engine.columnar import lowered_winnow

        return lowered_winnow(pref)
    return partial(_resolve_engine(algorithm), pref)


def winnow(
    pref: Preference,
    data: Relation | Sequence[Row],
    algorithm: str | Callable[[Preference, list[Row]], list[Row]] = "bnl",
) -> Any:
    """``sigma[P](R)``: all tuples whose projection is maximal in ``P_R``.

    The engine-level winnow operator (Chomicki's name for the paper's BMO
    selection).  ``algorithm`` picks an engine from
    :data:`repro.query.algorithms.ALGORITHMS` ("naive", "bnl", "sfs",
    "sort", plus the code engine's "vsfs") or is a callable; "bnl" is the
    default because it is correct for every strict partial order.  Use
    :class:`~repro.query.api.PreferenceQuery` (or
    :func:`repro.query.optimizer.execute`) for automatic selection.
    """
    rows, template = _unpack(data)
    engine = _resolve_engine(algorithm)
    if template is not None and algorithm in ("sort", "vsfs"):
        # The code engine takes the relation whole, reading its columns.
        return engine(pref, template)
    return _repack(engine(pref, rows), template)


def winnow_groupby(
    pref: Preference,
    by: Sequence[str],
    data: Relation | Sequence[Row],
    algorithm: str | Callable[[Preference, list[Row]], list[Row]] = "bnl",
) -> Any:
    """``sigma[P groupby A](R)  :=  sigma[A<-> & P](R)`` (Definition 16).

    Operationally: partition ``R`` by equal ``A``-values and evaluate
    ``sigma[P]`` inside each group — the paper derives this from the
    interplay of grouping and anti-chains.
    """
    rows, template = _unpack(data)
    names = tuple(by)
    groups: dict[tuple, list[Row]] = {}
    order: list[tuple] = []
    for row in rows:
        key = tuple(row[n] for n in names)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    evaluate = _bind_engine(algorithm, pref)
    out: list[Row] = []
    for key in order:
        out.extend(evaluate(groups[key]))
    return _repack(out, template)


def result_size(
    pref: Preference,
    data: Relation | Sequence[Row],
    attributes: Sequence[str] | None = None,
) -> int:
    """``size(P, R) = card(pi_A(sigma[P](R)))`` (Definition 18).

    Counts *distinct A-values* in the BMO result — the quantity behind the
    filter-effect propositions and the [KFH01] result-size benchmark.

    ``attributes`` overrides the projection set.  Definition 19 compares
    filter strength only between preferences on the *same* attribute set;
    Proposition 13's proof projects every result onto the union attributes,
    so cross-constructor comparisons (e.g. ``size(P1 & P2)`` vs.
    ``size(P1)``) must pass the union of the attribute sets here.
    """
    rows, _ = _unpack(data)
    best = block_nested_loop(pref, rows)
    attrs = tuple(attributes) if attributes else pref.attributes
    return len({tuple(r[a] for a in attrs) for r in best})


# -- perfect matches (Definition 14b) ------------------------------------------------

def is_dream(pref: Preference, value: Any) -> bool | None:
    """Whether ``value`` lies in ``max(P)`` — maximal in the *realm of
    wishes*, not merely in the database.  ``None`` means "statically
    unknown" (e.g. bare SCORE terms, whose supremum the library cannot see).

    Recursive sufficient-and-usually-exact rules:

    * layered / EXPLICIT: level 1,
    * BETWEEN / AROUND: distance 0,
    * Pareto & prioritized: all children dreams (exact when the domain is a
      full product, which holds for disjoint attributes),
    * intersection / disjoint union: a dream in any child cannot be beaten
      in the conjunction/disjunction,
    * anti-chain: everything is maximal.
    """
    from repro.core.preference import as_row

    row = as_row(value, pref.attributes)
    return _is_dream_row(pref, row)


def _is_dream_row(pref: Preference, row: Row) -> bool | None:
    if isinstance(pref, AntiChain):
        return True
    if isinstance(pref, LayeredPreference):
        return pref.level(row[pref.attribute]) == 1
    if isinstance(pref, ExplicitPreference):
        return pref.level(row[pref.attribute]) == 1
    if isinstance(pref, BetweenPreference):
        zero = pref.distance(row[pref.attribute])
        return zero == zero - zero  # type-correct "== 0"
    if isinstance(pref, (ParetoPreference, PrioritizedPreference)):
        verdicts = [_is_dream_row(c, row) for c in pref.children]
        if any(v is False for v in verdicts):
            return False
        if all(v is True for v in verdicts):
            return True
        return None
    if isinstance(pref, IntersectionPreference):
        verdicts = [_is_dream_row(c, row) for c in pref.children]
        if any(v is True for v in verdicts):
            return True
        return None
    if isinstance(pref, DualPreference):
        return None  # maximal in P^d = minimal in P: not tracked
    if isinstance(pref, ScorePreference):
        return None
    return None


def perfect_matches(
    pref: Preference, data: Relation | Sequence[Row]
) -> Any:
    """Tuples that are perfect matches (Definition 14b): in ``R`` *and* in
    ``max(P)``.  Every perfect match is in the BMO result, but not
    conversely — BMO falls back to best compromises when dreams are out of
    stock.  Tuples whose dream status is unknown are excluded.
    """
    rows, template = _unpack(data)
    matches = [r for r in rows if _is_dream_row(pref, r) is True]
    return _repack(matches, template)
