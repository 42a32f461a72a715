"""Maxima algorithms for arbitrary strict partial orders (Sections 5-6).

The paper notes the naive approach needs O(n^2) better-than tests and points
at the skyline literature ([BKS01]) for efficient evaluation.  These are the
evaluators that need nothing of a term but its ``_lt`` — what Chomicki's
"Preference Queries" shows winnow needs in general:

* :func:`naive_nested_loop` — the declarative definition, verbatim; the
  reference every other evaluator is tested against,
* :func:`block_nested_loop` — BNL with an elimination window ([BKS01]);
  correct for *any* strict partial order,
* :func:`sort_filter_skyline` — SFS: presort by a dominance-compatible key,
  then a grow-only window.

Two shapes are not evaluated here but by :mod:`repro.engine.columnar`,
which registers its evaluators in :data:`ALGORITHMS`: a weak order over
one column (HIGHEST, LOWEST, the SCORE family, the layered POS / NEG
family, their duals) is one argmax pass, ``"sort"``; a term that lowers
to integer code axes — every Pareto of chains and single-attribute weak
orders — runs on the code kernels, ``"vsfs"``.

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

from operator import itemgetter
from typing import Any, Callable, NamedTuple, Sequence

from repro.core.base_nonnumerical import ExplicitPreference, LayeredPreference
from repro.core.base_numerical import (
    BetweenPreference,
    HighestPreference,
    LowestPreference,
    ScorePreference,
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
#: code engine (:mod:`repro.engine.columnar`) registers its two evaluators
#: here too: the weak-order argmax as ``"sort"``, the kernels as ``"vsfs"``.
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


# -- weak orders over one column ------------------------------------------------------

class ColumnAxis(NamedTuple):
    """One Pareto arm, or a bare weak order (:func:`weak_score`), lowered
    to column form.

    The arm's value on a row is ``key(row[attribute])`` (``None`` = the raw
    value); ``sign`` +1 means bigger-is-better, -1 the reverse.  Keeping
    direction as a sign on the *integer codes* instead of a wrapper on
    every value keeps rank encoding on native comparisons.

    With ``weak`` false the key is injective on the attribute (a chain) and
    the arm is one code axis.  A *composite* chain — one arm that is itself
    a prioritization of disjoint chains — names a tuple of attributes and a
    key over the zipped value tuple; it is rank-encoded independently like
    any other axis and re-merged with its sibling arms inside the kernel.

    With ``weak`` true the key is a *score*: it ranks values and may tie
    distinct ones, which then stay unranked.  Such an arm becomes two code
    axes (:func:`repro.engine.columns.weak_codes`).  A score that is
    not equal to itself leaves its value ranked against nothing.  A
    multi-attribute SCORE scores the zipped value tuple the same way.

    ``interval`` is ``(low, up)`` when the score is BETWEEN's (AROUND's)
    ``-distance(v, [low, up])``, which the code kernel can evaluate as one
    column expression (:func:`repro.engine.columns.interval_scores`).
    """

    attribute: str | tuple[str, ...]
    key: Callable[[Any], Any] | None
    sign: int
    weak: bool = False
    interval: tuple[Any, Any] | None = None


def weak_score(pref: Preference) -> ColumnAxis | None:
    """How ``pref`` ranks one column's values, when it is a weak order.

    HIGHEST and LOWEST rank by the value (``key`` None), ChainPreference
    by its key, SCORE / AROUND / BETWEEN by their score (a multi-attribute
    SCORE over the projection tuple of its attributes), the layered POS /
    NEG family by layer (NaN — ranked against nothing — outside every
    layer); a dual flips the sign.  ``None`` for every other term, a
    prioritization of chains included: a NaN in a later stage does not
    leave its row unranked.
    """
    if isinstance(pref, HighestPreference):
        return ColumnAxis(pref.attribute, None, 1)
    if isinstance(pref, LowestPreference):
        return ColumnAxis(pref.attribute, None, -1)
    if isinstance(pref, ChainPreference):
        return ColumnAxis(pref.attribute, pref.key, 1)
    if isinstance(pref, BetweenPreference):
        return ColumnAxis(
            pref.attribute, pref.function, 1, weak=True,
            interval=(pref.low, pref.up),
        )
    if isinstance(pref, ScorePreference):
        attributes = pref.attributes
        attribute = attributes[0] if len(attributes) == 1 else attributes
        return ColumnAxis(attribute, pref.function, 1, weak=True)
    if isinstance(pref, LayeredPreference):

        def layer_score(value: Any) -> float:
            index = pref.layer_index(value)
            return float("nan") if index is None else -index

        return ColumnAxis(pref.attribute, layer_score, 1, weak=True)
    if isinstance(pref, DualPreference):
        inner = weak_score(pref.base)
        return None if inner is None else inner._replace(sign=-inner.sign)
    return None


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

    * weak orders over one column (HIGHEST, LOWEST, ChainPreference, the
      SCORE family, layered, their duals): the score :func:`weak_score`
      gives them, order-reversed for sign -1 (so LOWEST keys on any
      ordered domain),
    * EXPLICIT: negated level (level 1 is best),
    * Pareto / prioritized / intersection: tuple of child keys
      (dominance makes every component <=, some <, hence lex-smaller),
    * dual: order-reversed child key,
    * anti-chain: constant,
    * linear sum: (which-world flag, child key),
    * disjoint union: no general construction -> None.
    """
    score = weak_score(pref)
    if score is not None:
        return _weak_key(score)
    if isinstance(pref, ExplicitPreference):
        worst = pref.max_level() + 1
        attr = pref.attribute

        def explicit_key(row: Row) -> int:
            level = pref.level(row[attr])
            return -(level if level is not None else worst)

        return explicit_key
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
    (LOWEST, HIGHEST, ChainPreference — the non-weak answers of
    :func:`weak_score` — their duals, and
    prioritizations of those): score equality is then projection
    equality.  The code engine's composite-arm support builds on this
    (:func:`repro.engine.columnar.columnar_axes`).
    """
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
    score = weak_score(child)
    return None if score is None or score.weak else _weak_key(score)


def _weak_key(score: ColumnAxis) -> Callable[[Row], Any]:
    """The row key of a :func:`weak_score`: its key of the value (of the
    projection tuple, for a multi-attribute SCORE), order-reversed for
    sign -1."""
    attribute, key, sign = score[:3]
    value = (
        itemgetter(*attribute) if isinstance(attribute, tuple)
        else itemgetter(attribute)
    )
    scored = value if key is None else (lambda row: key(value(row)))
    return scored if sign > 0 else (lambda row: _Reversed(scored(row)))


ALGORITHMS.update(
    {
        "naive": naive_nested_loop,
        "bnl": block_nested_loop,
        "sfs": sort_filter_skyline,
    }
)
