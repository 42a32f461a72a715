"""Maxima algorithms for arbitrary strict partial orders (Sections 5-6).

The paper notes the naive approach needs O(n^2) better-than tests and points
at the skyline literature ([BKS01]) for efficient evaluation.  These are the
evaluators that need nothing of a term but its ``_lt`` — what Chomicki's
"Preference Queries" shows winnow needs in general — plus the one-pass
evaluation of SCORE terms:

* :func:`naive_nested_loop` — the declarative definition, verbatim; the
  reference every other evaluator is tested against,
* :func:`block_nested_loop` — BNL with an elimination window ([BKS01]);
  correct for *any* strict partial order,
* :func:`sort_filter_skyline` — SFS: presort by a dominance-compatible key,
  then a grow-only window,
* :func:`sort_based_maxima` — one-pass evaluation for SCORE preferences.

A term that lowers to integer code axes — every Pareto of chains and
single-attribute weak orders — is not evaluated here but by the code
kernels of :mod:`repro.engine.columnar`, registered below as ``"vsfs"``.

Two correctness subtleties the implementations honour:

1. Pareto equality is *projection* equality, not score equality.  AROUND(0)
   scores -5 and 5 identically, yet (-5) and (5) are unranked — so a Pareto
   preference over AROUND children is **not** a skyline over score vectors
   (Example 2 of the paper depends on this).  The algorithms here only ever
   ask ``pref._lt``, which decides it; the code engine gives a weak-order
   child *two* integer axes, the ranks of ``(score, id)`` and
   ``(score, -id)``, on which ``>=`` holds exactly when the score is better
   or the value is the same — see :mod:`repro.engine.columnar`.
2. All algorithms deduplicate by projection first and fan results back out
   to tuples, because BMO keeps every tuple whose projection is maximal.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.base_nonnumerical import ExplicitPreference, LayeredPreference
from repro.core.base_numerical import (
    HighestPreference,
    LowestPreference,
    ScorePreference,
    score_function_of,
)
from repro.core.constructors import (
    DisjointUnionPreference,
    DualPreference,
    IntersectionPreference,
    LinearSumPreference,
    ParetoPreference,
    PrioritizedPreference,
)
from repro.core.preference import AntiChain, ChainPreference, Preference, Row

#: Registry of maxima algorithms by name (filled at module end).  The
#: code engine (:mod:`repro.engine.columnar`) registers its winnow here
#: too, as ``"vsfs"``.
ALGORITHMS: dict[str, Callable[[Preference, list[Row]], list[Row]]] = {}


class ComparisonCounter:
    """Counts better-than tests — the unit of the paper's O(n^2) claim."""

    def __init__(self) -> None:
        self.comparisons = 0

    def wrap(self, pref: Preference) -> Preference:
        counter = self

        class _Counting(Preference):
            def __init__(self) -> None:
                super().__init__(pref.attributes, pref.domain)

            @property
            def signature(self) -> tuple:
                return ("counting", pref.signature)

            def _lt(self, x: Row, y: Row) -> bool:
                counter.comparisons += 1
                return pref._lt(x, y)

        return _Counting()


def _distinct_projections(
    pref: Preference, rows: Sequence[Row]
) -> tuple[list[Row], dict[tuple, list[int]]]:
    """Distinct projection representatives plus projection -> row indices."""
    attrs = pref.attributes
    reps: list[Row] = []
    members: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        key = tuple(row[a] for a in attrs)
        if key not in members:
            members[key] = []
            reps.append(row)
        members[key].append(i)
    return reps, members


def _fan_out(
    pref: Preference,
    rows: Sequence[Row],
    members: dict[tuple, list[int]],
    maximal_reps: Sequence[Row],
) -> list[Row]:
    """Expand maximal projections back to all carrying tuples, in row order."""
    attrs = pref.attributes
    max_keys = {tuple(r[a] for a in attrs) for r in maximal_reps}
    picked = sorted(i for key in max_keys for i in members[key])
    return [rows[i] for i in picked]


# -- the declarative reference ----------------------------------------------------

def naive_nested_loop(pref: Preference, rows: list[Row]) -> list[Row]:
    """Definition 15 executed literally: all-pairs better-than tests, O(n^2)."""
    reps, members = _distinct_projections(pref, rows)
    maximal = [
        x
        for i, x in enumerate(reps)
        if not any(i != j and pref._lt(x, y) for j, y in enumerate(reps))
    ]
    return _fan_out(pref, rows, members, maximal)


# -- block-nested-loops -------------------------------------------------------------

def block_nested_loop(pref: Preference, rows: list[Row]) -> list[Row]:
    """BNL with an in-memory window ([BKS01], simplified to one block).

    Each candidate is compared against the window; dominated candidates are
    dropped, and window members dominated by the candidate are evicted.
    Works for every strict partial order because only witnessed dominance
    ever removes a value.
    """
    reps, members = _distinct_projections(pref, rows)
    window: list[Row] = []
    for cand in reps:
        dominated = False
        survivors: list[Row] = []
        for w in window:
            if pref._lt(cand, w):
                dominated = True
                survivors = window  # cand dies; window unchanged
                break
            if not pref._lt(w, cand):
                survivors.append(w)
        if dominated:
            continue
        survivors.append(cand)
        window = survivors
    return _fan_out(pref, rows, members, window)


# -- sort-filter skyline ---------------------------------------------------------------

class _Reversed:
    """Order-reversing wrapper so duals of arbitrary ordered keys sort
    (``<`` / ``>`` / ``==``: what ``sorted``, ``max`` and tuple comparison
    ask of a key)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __gt__(self, other: "_Reversed") -> bool:
        return self.value < other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(("_Reversed", self.value))

    def __repr__(self) -> str:
        return f"_Reversed({self.value!r})"


def compatible_sort_key(pref: Preference) -> Callable[[Row], Any] | None:
    """A key with ``x <_P y  =>  key(x) < key(y)``, or None if unknown.

    Such a key is a linear extension generator: sorting descending by it
    guarantees no row is dominated by a later row, which is exactly what
    :func:`sort_filter_skyline` needs.  Built structurally:

    * HIGHEST / LOWEST: the value, order-reversed for LOWEST (its score
      negates, which only numbers support),
    * SCORE family: the score itself,
    * layered / EXPLICIT: negated level (level 1 is best),
    * Pareto / prioritized / intersection: tuple of child keys
      (dominance makes every component <=, some <, hence lex-smaller),
    * dual: order-reversed child key,
    * anti-chain: constant,
    * linear sum: (which-world flag, child key),
    * disjoint union: no general construction -> None.
    """
    if isinstance(pref, (HighestPreference, LowestPreference)):
        return chain_axis(pref)
    if isinstance(pref, ScorePreference):
        return lambda row: pref.score(row)
    if isinstance(pref, LayeredPreference):
        worst = pref.max_level() + 1
        attr = pref.attribute

        def layered_key(row: Row) -> int:
            level = pref.level(row[attr])
            return -(level if level is not None else worst)

        return layered_key
    if isinstance(pref, ExplicitPreference):
        worst = pref.max_level() + 1
        attr = pref.attribute

        def explicit_key(row: Row) -> int:
            level = pref.level(row[attr])
            return -(level if level is not None else worst)

        return explicit_key
    if isinstance(pref, ChainPreference):
        return lambda row: pref.key(row[pref.attribute])
    if isinstance(pref, AntiChain):
        return lambda row: 0
    if isinstance(pref, DualPreference):
        inner = compatible_sort_key(pref.base)
        if inner is None:
            return None
        return lambda row: _Reversed(inner(row))
    if isinstance(
        pref, (ParetoPreference, PrioritizedPreference, IntersectionPreference)
    ):
        child_keys = [compatible_sort_key(c) for c in pref.children]
        if any(k is None for k in child_keys):
            return None
        return lambda row: tuple(k(row) for k in child_keys)  # type: ignore[misc]
    if isinstance(pref, LinearSumPreference):
        k1 = compatible_sort_key(pref.first)
        k2 = compatible_sort_key(pref.second)
        if k1 is None or k2 is None:
            return None
        attr = pref.attribute
        a1 = pref.first.attributes[0]
        a2 = pref.second.attributes[0]

        def ls_key(row: Row) -> tuple:
            v = row[attr]
            if pref.first.domain is not None and pref.first.domain.contains(v):
                return (1, k1({a1: v}))
            return (0, k2({a2: v}))

        return ls_key
    if isinstance(pref, DisjointUnionPreference):
        return None
    return None


def sort_filter_skyline(
    pref: Preference,
    rows: list[Row],
    key: Callable[[Row], Any] | None = None,
) -> list[Row]:
    """SFS: presort by a compatible key, then a grow-only window.

    After the descending presort no later row can dominate an earlier one,
    so accepted window members are final — each candidate needs only
    one-directional tests against the window.  A row whose key holds a
    NaN has no place in that order; such rows skip the presort and meet
    the window in one BNL pass at the end (a sorted row outside the
    window is dominated by a window member, so by transitivity the
    window is all they need to meet).
    """
    if key is None:
        key = compatible_sort_key(pref)
        if key is None:
            raise ValueError(
                f"no dominance-compatible sort key for {pref!r}; "
                "use block_nested_loop instead"
            )
    reps, members = _distinct_projections(pref, rows)
    sortable: list[tuple[Any, Row]] = []
    unplaced: list[Row] = []
    for row in reps:
        k = key(row)
        if _unordered(k):
            unplaced.append(row)
        else:
            sortable.append((k, row))
    sortable.sort(key=lambda pair: pair[0], reverse=True)
    window: list[Row] = []
    for _, cand in sortable:
        if not any(pref._lt(cand, w) for w in window):
            window.append(cand)
    if unplaced:
        window = block_nested_loop(pref, window + unplaced)
    return _fan_out(pref, rows, members, window)


def _unordered(key: Any) -> bool:
    """Whether a sort key holds a NaN, which no sort can place."""
    if isinstance(key, tuple):
        return any(_unordered(part) for part in key)
    if isinstance(key, _Reversed):
        return _unordered(key.value)
    return key != key


# -- injective chain axes -------------------------------------------------------------

def chain_axis(child: Preference) -> Callable[[Row], Any] | None:
    """The "bigger is better" row-axis of one injective chain, or None.

    Only chains with an injective score on their attributes qualify
    (LOWEST, HIGHEST, ChainPreference, their duals, prioritizations of
    those): score equality is then projection equality.  The code
    engine's composite-arm support builds on this
    (:func:`repro.engine.columnar.columnar_axes`).
    """
    if isinstance(child, HighestPreference):
        attr = child.attribute
        return lambda row: row[attr]
    if isinstance(child, LowestPreference):
        attr = child.attribute
        return lambda row: _Reversed(row[attr])
    if isinstance(child, ChainPreference):
        return lambda row: child.key(row[child.attribute])
    if isinstance(child, DualPreference):
        inner = chain_axis(child.base)
        if inner is None:
            return None
        return lambda row: _Reversed(inner(row))
    if isinstance(child, PrioritizedPreference) and child.is_chain() is True:
        # Proposition 3h: prioritization of chains over pairwise disjoint
        # attributes is itself a chain — its order is lexicographic, so a
        # tuple of the per-stage axis values is an injective axis for the
        # whole arm (tuple equality is projection equality because every
        # component axis is injective on its own attribute): one composite
        # code axis per compound Pareto arm.
        stage_axes = [chain_axis(c) for c in child.children]
        if any(axis is None for axis in stage_axes):
            return None
        axes = tuple(stage_axes)
        return lambda row: tuple(axis(row) for axis in axes)  # type: ignore[misc]
    return None


# -- score-based one-pass evaluation --------------------------------------------------

def sort_based_maxima(pref: Preference, rows: list[Row]) -> list[Row]:
    """One-pass maxima for SCORE preferences: keep the argmax score set.

    For a SCORE preference (which includes AROUND, BETWEEN, LOWEST, HIGHEST
    and rank(F)) the maxima are exactly the rows of maximal score (and the
    NaN-scored ones, see :func:`best_positions`).  LOWEST takes its
    minimum value instead of its maximal negation, so it runs on any
    ordered domain.
    """
    score = score_function_of(pref)
    if score is None:
        raise ValueError(f"{pref!r} has no score function; use another algorithm")
    reps, members = _distinct_projections(pref, rows)
    if isinstance(pref, LowestPreference):
        attr = pref.attribute
        picked = best_positions([row[attr] for row in reps], lowest=True)
    else:
        picked = best_positions([score(row) for row in reps])
    return _fan_out(pref, rows, members, [reps[i] for i in picked])


def best_positions(scores: Sequence[Any], lowest: bool = False) -> list[int]:
    """Positions of the best score (the highest, or the lowest) plus every
    NaN score, ascending — the maxima of every one-pass argmax evaluator.

    A score not equal to itself ranks against nothing: its row is neither
    better nor worse than any other, so it is maximal on its own, beside
    the best-scored group.
    """
    ranked = [s for s in scores if s == s]
    if not ranked:
        return list(range(len(scores)))
    best = min(ranked) if lowest else max(ranked)
    return [i for i, s in enumerate(scores) if s == best or s != s]


ALGORITHMS.update(
    {
        "naive": naive_nested_loop,
        "bnl": block_nested_loop,
        "sfs": sort_filter_skyline,
        "sort": sort_based_maxima,
    }
)
