"""Complex preference constructors (Definitions 5 and 8-12).

Accumulating constructors combine preferences of possibly different parties:

* Pareto accumulation ``P1 (x) P2`` — equally important (Definition 8),
* prioritized accumulation ``P1 & P2`` — ordered importance (Definition 9),
* numerical accumulation ``rank(F)(P1, P2)`` — combined scores (Definition 10).

Aggregating constructors assemble preferences piecewise:

* intersection ``P1 <> P2`` and disjoint union ``P1 + P2`` (Definition 11),
* linear sum ``P1 (+) P2`` (Definition 12).

Plus the dual ``P^d`` (Definition 3c).  All constructors are closed under
strict-partial-order semantics (Proposition 1); the property-based tests
verify this closure on randomized finite instances.

Python operator sugar (documented, deliberately small):

* ``p1 & p2``  -> prioritized (the paper's own glyph),
* ``p1 * p2``  -> Pareto (``x`` as in the paper's (x)),
* ``p1 + p2``  -> disjoint union.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

from repro.core.base_numerical import ScorePreference
from repro.core.domains import Domain, FiniteDomain
from repro.core.preference import (
    Preference,
    Row,
    attribute_union,
    project,
)


class _CompoundPreference(Preference):
    """Shared plumbing for constructors over n >= 2 sub-preferences."""

    _symbol = "?"
    _tag = "compound"

    def __init__(self, prefs: Sequence[Preference], domain: Domain | None = None):
        if len(prefs) < 2:
            raise ValueError(
                f"{type(self).__name__} needs at least two sub-preferences"
            )
        super().__init__(attribute_union(*prefs), domain)
        self._prefs = tuple(prefs)

    @property
    def children(self) -> tuple[Preference, ...]:
        return self._prefs

    def _projections(self) -> tuple[tuple[Preference, Any], ...]:
        """Each child with what reads its projection off a row: the
        attribute name of a one-attribute child, else an ``itemgetter``
        returning the projection tuple."""
        return tuple(
            (p, p.attributes[0] if len(p.attributes) == 1
             else itemgetter(*p.attributes))
            for p in self._prefs
        )

    @property
    def signature(self) -> tuple:
        return (self._tag, tuple(p.signature for p in self._prefs))

    def __repr__(self) -> str:
        inner = f" {self._symbol} ".join(repr(p) for p in self._prefs)
        return f"({inner})"


def _differ(x: Row, y: Row, key: Any) -> bool:
    """Whether rows ``x`` and ``y`` differ on one child's projection,
    ``key`` as :meth:`_CompoundPreference._projections` gives it.  A lone
    value is compared as its 1-tuple would be: the same object is equal
    to itself (a shared NaN too), anything else by ``==``."""
    if type(key) is str:
        u, v = x[key], y[key]
        return u is not v and not u == v
    return key(x) != key(y)


class ParetoPreference(_CompoundPreference):
    """Pareto accumulation ``P1 (x) P2 (x) ...`` — all equally important.

    Definition 8, in its n-ary form: ``x <_P y`` iff every component is
    better-or-projection-equal and at least one is strictly better.  For two
    preferences this is literally the paper's formula; associativity
    (Proposition 2b) makes the n-ary form unambiguous.  Sub-preferences may
    share attributes (Example 3): each child projects its own columns.
    The maximal values of ``P`` form the Pareto-optimal set.
    """

    _symbol = "(x)"
    _tag = "pareto"

    def __init__(self, prefs: Sequence[Preference], domain: Domain | None = None):
        super().__init__(prefs, domain)
        self._arms = self._projections()

    def _lt(self, x: Row, y: Row) -> bool:
        some_strict = False
        for p, key in self._arms:
            if p._lt(x, y):
                some_strict = True
            elif _differ(x, y, key):
                return False  # worse or unranked in this component: not tolerable
        return some_strict


class PrioritizedPreference(_CompoundPreference):
    """Prioritized accumulation ``P1 & P2 & ...`` — lexicographic importance.

    Definition 9: ``x < y  iff  x1 <_P1 y1  or  (x1 = y1 and x2 <_P2 y2)``,
    the strict variant of the lexicographic order; associativity is
    Proposition 2c.  ``P2`` is respected only where ``P1`` does not mind.
    """

    _symbol = "&"
    _tag = "prioritized"

    def __init__(self, prefs: Sequence[Preference], domain: Domain | None = None):
        super().__init__(prefs, domain)
        self._arms = self._projections()

    def _lt(self, x: Row, y: Row) -> bool:
        for p, key in self._arms:
            if p._lt(x, y):
                return True
            if _differ(x, y, key):
                return False  # unranked at the more important level: stop
        return False

    def is_chain(self) -> bool | None:
        # Proposition 3h: prioritization of chains over pairwise disjoint
        # attributes is a chain.  (With shared attributes the claim needs
        # the components to coincide there; we stay conservative.)
        seen: set[str] = set()
        for p in self._prefs:
            if p.is_chain() is not True:
                return None
            if seen & set(p.attributes):
                return None
            seen |= set(p.attributes)
        return True


class RankPreference(ScorePreference):
    """Numerical accumulation ``rank(F)(P1, ..., Pn)`` (Definition 10).

    All inputs must be score preferences — by constructor substitutability
    (Section 3.4) this admits AROUND, BETWEEN, LOWEST, HIGHEST and nested
    ``rank(F)`` terms, not only literal SCORE terms.  The result is itself a
    SCORE preference with ``f = F o (f1, ..., fn)``, so ranks nest and the
    optimizer can evaluate them by sorting.
    """

    def __init__(
        self,
        combine: Callable[..., Any],
        prefs: Sequence[Preference],
        name: str | None = None,
        domain: Domain | None = None,
    ):
        if len(prefs) < 1:
            raise ValueError("rank(F) needs at least one score preference")
        bad = [p for p in prefs if not isinstance(p, ScorePreference)]
        if bad:
            raise TypeError(
                "rank(F) requires SCORE preferences (or sub-constructors of "
                f"SCORE); got {', '.join(type(p).__name__ for p in bad)}"
            )
        self._prefs = tuple(prefs)
        self._combine = combine
        combine_name = name if name is not None else getattr(combine, "__name__", "F")
        attributes = attribute_union(*prefs)

        def combined_score(value: Any) -> Any:
            # ``value`` is the projection tuple over the union attributes
            # (or a bare value for a single attribute); rebuild a row so each
            # child can project its own columns.
            if len(attributes) == 1:
                row = {attributes[0]: value}
            else:
                row = dict(zip(attributes, value))
            return combine(*(p.score(row) for p in self._prefs))

        super().__init__(attributes, combined_score, name=combine_name, domain=domain)

    @property
    def children(self) -> tuple[Preference, ...]:
        return self._prefs

    @property
    def combine(self) -> Callable[..., Any]:
        return self._combine

    @property
    def signature(self) -> tuple:
        return (
            "rank", self.score_name, self._combine,
            tuple(p.signature for p in self._prefs),
        )

    def __repr__(self) -> str:
        inner = ", ".join(repr(p) for p in self._prefs)
        return f"rank({self.score_name})({inner})"


class IntersectionPreference(_CompoundPreference):
    """Intersection aggregation ``P1 <> P2`` (Definition 11a).

    Both preferences must act on the same attribute set; ``x < y`` iff both
    agree.  Proposition 6 identifies it with Pareto on shared attributes.
    """

    _symbol = "<>"
    _tag = "intersection"

    def __init__(self, prefs: Sequence[Preference], domain: Domain | None = None):
        _require_same_attributes("intersection", prefs)
        super().__init__(prefs, domain)

    def _lt(self, x: Row, y: Row) -> bool:
        return all(p._lt(x, y) for p in self._prefs)


class DisjointUnionPreference(_CompoundPreference):
    """Disjoint union aggregation ``P1 + P2`` (Definition 11b).

    Precondition (Definition 4): the ranges of the component orders must be
    disjoint — each value is touched by at most one component.  The library
    cannot decide this for infinite domains; :func:`validate_disjointness`
    checks it on any finite probe set, and the finite-domain test suite
    enforces it.  Under the precondition, ``or``-ing the components is again
    a strict partial order.
    """

    _symbol = "+"
    _tag = "union"

    def __init__(self, prefs: Sequence[Preference], domain: Domain | None = None):
        _require_same_attributes("disjoint union", prefs)
        super().__init__(prefs, domain)

    def _lt(self, x: Row, y: Row) -> bool:
        return any(p._lt(x, y) for p in self._prefs)

    def validate_disjointness(self, probe_values: Iterable[Any]) -> None:
        """Raise ``ValueError`` if two components rank the same probe value.

        ``range(<_P)`` (Definition 4) restricted to the probe set is
        computed per component; overlapping ranges violate the disjoint
        union precondition.
        """
        pool = list(probe_values)
        ranges: list[set] = []
        for p in self._prefs:
            touched: set = set()
            for a in pool:
                for b in pool:
                    if a is b:
                        continue
                    if p.lt(a, b):
                        touched.add(project_value(p, a))
                        touched.add(project_value(p, b))
            ranges.append(touched)
        for i in range(len(ranges)):
            for j in range(i + 1, len(ranges)):
                overlap = ranges[i] & ranges[j]
                if overlap:
                    raise ValueError(
                        f"components {i} and {j} of a disjoint union both rank "
                        f"{sorted(map(repr, overlap))[:5]}"
                    )


class LinearSumPreference(Preference):
    """Linear sum ``P1 (+) P2`` (Definition 12): P1's world atop P2's world.

    ``P1`` and ``P2`` live on different single attributes with disjoint
    domains; the sum lives on a *new* attribute whose domain is the union.
    Every ``dom(A1)`` value is better than every ``dom(A2)`` value; within
    each side the original order applies.  Both children must therefore
    declare their domains.  The paper uses (+) as the design recipe for the
    base constructors, e.g. ``POS = POS-set<-> (+) other-values<->``.
    """

    def __init__(
        self,
        first: Preference,
        second: Preference,
        attribute: str | None = None,
    ):
        for which, p in (("first", first), ("second", second)):
            if len(p.attributes) != 1:
                raise ValueError(f"linear sum needs single-attribute operands "
                                 f"({which} has {p.attributes})")
            if p.domain is None:
                raise ValueError(
                    f"linear sum needs declared domains; the {which} operand "
                    f"{p!r} has none"
                )
        if attribute is None:
            attribute = f"{first.attributes[0]}_plus_{second.attributes[0]}"
        super().__init__((attribute,), None)
        self.first = first
        self.second = second
        # The sum's own domain is the union (Definition 12), which makes
        # linear sums nest: (P1 (+) P2) (+) P3 works because the inner sum
        # can report membership.  Finite unions are computed eagerly.
        if isinstance(first.domain, FiniteDomain) and isinstance(
            second.domain, FiniteDomain
        ):
            if not first.domain.is_disjoint_from(second.domain):
                raise ValueError(
                    "linear sum requires disjoint domains (Definition 12)"
                )
            self._domain = first.domain.union(second.domain)

    @property
    def attribute(self) -> str:
        return self.attributes[0]

    @property
    def children(self) -> tuple[Preference, ...]:
        return (self.first, self.second)

    @property
    def signature(self) -> tuple:
        return (
            "linear_sum", self.attribute,
            self.first.signature, self.first.domain,
            self.second.signature, self.second.domain,
        )

    def _member(self, pref: Preference, value: Any) -> bool:
        return pref.domain is not None and pref.domain.contains(value)

    def _lt(self, x: Row, y: Row) -> bool:
        xv, yv = x[self.attribute], y[self.attribute]
        in1_x, in1_y = self._member(self.first, xv), self._member(self.first, yv)
        in2_x, in2_y = self._member(self.second, xv), self._member(self.second, yv)
        if in1_x and in1_y and self.first.lt(xv, yv):
            return True
        if in2_x and in2_y and self.second.lt(xv, yv):
            return True
        return in2_x and in1_y  # x from the lower world, y from the upper

    def __repr__(self) -> str:
        return f"({self.first!r} (+) {self.second!r})"


class DualPreference(Preference):
    """The dual ``P^d`` (Definition 3c): ``x <_Pd y  iff  y <_P x``."""

    def __init__(self, base: Preference):
        super().__init__(base.attributes, base.domain)
        self.base = base

    @property
    def children(self) -> tuple[Preference, ...]:
        return (self.base,)

    @property
    def signature(self) -> tuple:
        return ("dual", self.base.signature)

    def _lt(self, x: Row, y: Row) -> bool:
        return self.base._lt(y, x)

    def is_chain(self) -> bool | None:
        return self.base.is_chain()

    def __repr__(self) -> str:
        return f"{self.base!r}^d"


def _require_same_attributes(kind: str, prefs: Sequence[Preference]) -> None:
    sets = {p.attribute_set for p in prefs}
    if len(sets) > 1:
        pretty = ", ".join(str(tuple(s)) for s in sets)
        raise ValueError(
            f"{kind} aggregation requires identical attribute sets, got {pretty}"
        )


def project_value(pref: Preference, value: Any) -> tuple:
    """Projection of an arbitrary accepted value onto ``pref``'s attributes."""
    from repro.core.preference import as_row

    return project(as_row(value, pref.attributes), pref.attributes)


# -- convenience factories (read like the paper) ----------------------------

def pareto(*prefs: Preference) -> ParetoPreference:
    """``pareto(P1, P2, ...)`` = ``P1 (x) P2 (x) ...``."""
    return ParetoPreference(prefs)


def prioritized(*prefs: Preference) -> PrioritizedPreference:
    """``prioritized(P1, P2, ...)`` = ``P1 & P2 & ...``."""
    return PrioritizedPreference(prefs)


def rank(
    combine: Callable[..., Any], *prefs: Preference, name: str | None = None
) -> RankPreference:
    """``rank(F, P1, ..., Pn)`` = ``rank(F)(P1, ..., Pn)``."""
    return RankPreference(combine, prefs, name=name)


def intersection(*prefs: Preference) -> IntersectionPreference:
    """``intersection(P1, P2)`` = ``P1 <> P2``."""
    return IntersectionPreference(prefs)


def union(*prefs: Preference) -> DisjointUnionPreference:
    """``union(P1, P2)`` = ``P1 + P2`` (ranges must be disjoint)."""
    return DisjointUnionPreference(prefs)


def linear_sum(
    first: Preference, second: Preference, attribute: str | None = None
) -> LinearSumPreference:
    """``linear_sum(P1, P2)`` = ``P1 (+) P2``."""
    return LinearSumPreference(first, second, attribute)


def dual(pref: Preference) -> DualPreference:
    """``dual(P)`` = ``P^d``."""
    return DualPreference(pref)


def _install_operators() -> None:
    """Operator sugar on :class:`Preference` (kept here to avoid cycles)."""

    def __and__(self: Preference, other: Preference) -> Preference:
        if isinstance(other, Preference):
            return PrioritizedPreference((self, other))
        return NotImplemented

    def __mul__(self: Preference, other: Preference) -> Preference:
        if isinstance(other, Preference):
            return ParetoPreference((self, other))
        return NotImplemented

    def __add__(self: Preference, other: Preference) -> Preference:
        if isinstance(other, Preference):
            return DisjointUnionPreference((self, other))
        return NotImplemented

    Preference.__and__ = __and__  # type: ignore[method-assign]
    Preference.__mul__ = __mul__  # type: ignore[method-assign]
    Preference.__add__ = __add__  # type: ignore[method-assign]


_install_operators()
