"""The preference protocol: strict partial orders over attribute projections.

Definition 1 of the paper: a preference ``P = (A, <_P)`` is a strict partial
order where ``A`` is a set of attribute names and ``<_P`` is a subset of
``dom(A) x dom(A)``.  The intended reading is kept verbatim here:

    ``x <_P y`` is interpreted as "I like y better than x".

Values are *rows*: mappings from attribute name to value.  Every preference
projects the attributes it declares out of the rows it is given, so complex
preferences whose sub-preferences share attributes (Example 3 of the paper)
work without any special casing — both sub-preferences simply project the
same column.  Scalars and positional tuples are accepted for convenience and
normalized by :func:`as_row`.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.domains import Domain, FiniteDomain

#: A database row: attribute name -> value.
Row = Mapping[str, Any]


def as_row(value: Any, attributes: Sequence[str]) -> dict[str, Any]:
    """Normalize ``value`` into a row over ``attributes``.

    Accepted shapes:

    * a mapping containing at least the required attributes (extra keys are
      fine and simply ignored by projection);
    * a scalar, when there is exactly one attribute;
    * a sequence of matching length, zipped positionally.
    """
    if isinstance(value, Mapping):
        missing = [a for a in attributes if a not in value]
        if missing:
            raise KeyError(
                f"row {value!r} lacks attribute(s) {missing} required by the preference"
            )
        return dict(value)
    if len(attributes) == 1:
        return {attributes[0]: value}
    if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        if len(value) != len(attributes):
            raise ValueError(
                f"positional value {value!r} has {len(value)} components, "
                f"expected {len(attributes)} for attributes {tuple(attributes)}"
            )
        return dict(zip(attributes, value))
    raise TypeError(
        f"cannot interpret {value!r} as a row over attributes {tuple(attributes)}"
    )


def project(row: Row, attributes: Sequence[str]) -> tuple[Any, ...]:
    """The projection of a row onto ``attributes``, as a tuple."""
    return tuple(row[a] for a in attributes)


class Ordering(enum.Enum):
    """Outcome of comparing two values under a preference."""

    BETTER = "better"       # first argument is better
    WORSE = "worse"         # first argument is worse
    EQUAL = "equal"         # equal projections
    UNRANKED = "unranked"   # incomparable (and not projection-equal)


class Preference:
    """Base class for all preference terms.

    Subclasses implement :meth:`_lt` on *normalized rows*; all public entry
    points normalize their inputs first.  Each subclass must also provide a
    structural :attr:`signature` so that terms can be compared, hashed,
    serialized, and pattern-matched by the algebra rewriter.
    """

    def __init__(self, attributes: Sequence[str], domain: Domain | None = None):
        if not attributes:
            raise ValueError("a preference needs at least one attribute name")
        # Keep declaration order for display; use the frozenset for set
        # semantics (the paper: component order within dom(A) is irrelevant).
        ordered: dict[str, None] = {}
        for a in attributes:
            ordered[str(a)] = None
        self._attributes = tuple(ordered)
        self._domain = domain

    # -- identity ----------------------------------------------------------

    @property
    def attributes(self) -> tuple[str, ...]:
        """The attribute names ``A`` of ``P = (A, <_P)``."""
        return self._attributes

    @property
    def attribute_set(self) -> frozenset[str]:
        return frozenset(self._attributes)

    @property
    def domain(self) -> Domain | None:
        """Optional declared domain ``dom(A)`` (often implicit, as in the paper)."""
        return self._domain

    @property
    def signature(self) -> tuple:
        """A hashable structural description of this term.

        It carries everything that decides the order, code included: the
        scoring function, ``rank`` combiner or chain key *object* (never
        just its name) and a linear sum's arm domains.  Two terms with
        equal signatures therefore denote the same order (a sufficient —
        not necessary — condition for the semantic equivalence of
        Definition 13); equality, hashing, every cache key and the
        algebra rewriter all read it.
        """
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Preference):
            return NotImplemented
        return self.signature == other.signature

    def __hash__(self) -> int:
        return hash(self.signature)

    @property
    def children(self) -> tuple["Preference", ...]:
        """Direct sub-terms (empty for base preferences)."""
        return ()

    # -- order -------------------------------------------------------------

    def _lt(self, x: Row, y: Row) -> bool:
        """``x <_P y`` on normalized rows.  Subclasses implement this."""
        raise NotImplementedError

    def lt(self, x: Any, y: Any) -> bool:
        """``x <_P y``: *y is better than x*.

        Plain dicts holding every attribute are compared in place; any
        other shape, and a dict that lacks an attribute, is normalized by
        :func:`as_row` first (which raises the ``KeyError``)."""
        attributes = self._attributes
        if type(x) is dict and type(y) is dict:
            for a in attributes:
                if a not in x or a not in y:
                    break
            else:
                return self._lt(x, y)
        return self._lt(as_row(x, attributes), as_row(y, attributes))

    def dominates(self, x: Any, y: Any) -> bool:
        """True iff ``x`` is better than ``y`` (i.e. ``y <_P x``)."""
        return self.lt(y, x)

    def eq_on(self, x: Any, y: Any) -> bool:
        """Projection equality: ``x[A] = y[A]``."""
        xr = as_row(x, self._attributes)
        yr = as_row(y, self._attributes)
        return project(xr, self._attributes) == project(yr, self._attributes)

    def unranked(self, x: Any, y: Any) -> bool:
        """Definition 1's distinctive feature: neither is better.

        Follows the paper literally — ``not (x <_P y) and not (y <_P x)`` —
        so projection-equal values are unranked too (``<_P`` is irreflexive).
        """
        return not self.lt(x, y) and not self.lt(y, x)

    def compare(self, x: Any, y: Any) -> Ordering:
        """Classify the pair: BETTER / WORSE / EQUAL / UNRANKED (x vs. y)."""
        if self.lt(x, y):
            return Ordering.WORSE
        if self.lt(y, x):
            return Ordering.BETTER
        if self.eq_on(x, y):
            return Ordering.EQUAL
        return Ordering.UNRANKED

    # -- chain knowledge ---------------------------------------------------

    def is_chain(self) -> bool | None:
        """Statically known chain status: True / False / None (unknown).

        Definition 3a: ``P`` is a chain if every two distinct domain values
        are ranked.  Only some constructors can promise this syntactically
        (e.g. LOWEST/HIGHEST, prioritized compositions of chains per
        Proposition 3h); for everything else the answer is ``None`` and the
        finite-domain checker in :mod:`repro.core.validate` can decide.
        """
        return None

    # -- derived constructions ---------------------------------------------

    def dual(self) -> "Preference":
        """The dual preference ``P^d`` (Definition 3c), order reversed."""
        from repro.core.constructors import DualPreference

        return DualPreference(self)

    def restrict_to(self, values: Iterable[Any]) -> "SubsetPreference":
        """The subset preference induced by ``values`` (Definition 3d)."""
        return SubsetPreference(self, values)

    # -- evaluation helpers (naive; the query layer has the real engines) ---

    def maximal_of(self, values: Iterable[Any]) -> list[Any]:
        """Maximal elements among ``values`` by exhaustive better-than tests.

        This is the declarative ``max(P_R)`` of Definition 14 evaluated the
        naive O(n^2) way; it is the reference implementation the efficient
        algorithms in :mod:`repro.query.algorithms` are tested against.
        Duplicates (projection-equal values) are all retained, as BMO keeps
        every tuple whose projection is maximal.
        """
        pool = list(values)
        rows = [as_row(v, self._attributes) for v in pool]
        result = []
        for i, candidate in enumerate(rows):
            beaten = any(
                i != j and self._lt(candidate, other)
                for j, other in enumerate(rows)
            )
            if not beaten:
                result.append(pool[i])
        return result

    def ranked_pairs(self, values: Iterable[Any]) -> list[tuple[Any, Any]]:
        """All pairs ``(x, y)`` with ``x <_P y`` among ``values``."""
        pool = list(values)
        rows = [as_row(v, self._attributes) for v in pool]
        pairs = []
        for i, j in itertools.permutations(range(len(pool)), 2):
            if self._lt(rows[i], rows[j]):
                pairs.append((pool[i], pool[j]))
        return pairs

    def __repr__(self) -> str:  # subclasses override with nicer terms
        return f"{type(self).__name__}({', '.join(self._attributes)})"


class AntiChain(Preference):
    """The anti-chain preference ``S<->`` (Definition 3b): nothing is ranked.

    Anti-chains look trivial but are load-bearing: ``A<-> & P`` *is* the
    grouped preference query of Definition 16, and several algebra laws
    normalize conflicting terms to anti-chains (e.g. ``P (x) P^d == A<->``).
    """

    def __init__(self, attributes: Sequence[str] | str, domain: Domain | None = None):
        if isinstance(attributes, str):
            attributes = (attributes,)
        super().__init__(attributes, domain)

    @property
    def signature(self) -> tuple:
        return ("antichain", self.attribute_set)

    def _lt(self, x: Row, y: Row) -> bool:
        return False

    def is_chain(self) -> bool | None:
        # A one-value domain would technically be a chain, but statically we
        # cannot know the domain size; an anti-chain over >1 values is not.
        return None if self._domain is None else len(tuple(self._domain)) <= 1

    def __repr__(self) -> str:
        return f"AntiChain({', '.join(self.attributes)})"


class SubsetPreference(Preference):
    """Restriction of a preference to an explicit value set (Definition 3d).

    Database preferences ``P_R`` (Definition 14a) are subset preferences for
    ``S = R[A]``.  Values outside ``S`` are outside the restricted domain;
    comparisons involving them report ``False`` (unranked) rather than
    raising, honouring the design rule that conflicts or out-of-world values
    must never crash a query.
    """

    def __init__(self, base: Preference, values: Iterable[Any]):
        super().__init__(base.attributes, None)
        self.base = base
        normalized = [as_row(v, base.attributes) for v in values]
        self._members = {project(r, base.attributes) for r in normalized}
        self._domain = FiniteDomain(project(r, base.attributes) for r in normalized)

    @property
    def signature(self) -> tuple:
        return ("subset", self.base.signature, frozenset(self._members))

    @property
    def children(self) -> tuple[Preference, ...]:
        return (self.base,)

    def member_projections(self) -> frozenset[tuple]:
        return frozenset(self._members)

    def _lt(self, x: Row, y: Row) -> bool:
        if project(x, self.attributes) not in self._members:
            return False
        if project(y, self.attributes) not in self._members:
            return False
        return self.base._lt(x, y)

    def __repr__(self) -> str:
        return f"SubsetPreference({self.base!r}, |S|={len(self._members)})"


class ChainPreference(Preference):
    """A generic total order over a single attribute via a sort key.

    Definition 3a as a constructor: ``x <_P y  iff  key(x) < key(y)``.
    The caller promises that ``key`` is injective on the attribute's domain
    (otherwise equal-key values are unranked and the result is merely a weak
    order — exactly the SCORE situation, see
    :class:`repro.core.base_numerical.ScorePreference`).
    """

    def __init__(
        self,
        attribute: str,
        key: Callable[[Any], Any] | None = None,
        domain: Domain | None = None,
        key_name: str | None = None,
    ):
        super().__init__((attribute,), domain)
        self._key = key if key is not None else identity
        self._key_name = (
            key_name if key_name is not None
            else getattr(self._key, "__name__", "key")
        )

    @property
    def attribute(self) -> str:
        return self.attributes[0]

    @property
    def signature(self) -> tuple:
        return ("chain", self.attribute, self._key_name, self._key)

    def key(self, value: Any) -> Any:
        return self._key(value)

    def _lt(self, x: Row, y: Row) -> bool:
        return self._key(x[self.attribute]) < self._key(y[self.attribute])

    def is_chain(self) -> bool | None:
        return True

    def __repr__(self) -> str:
        return f"ChainPreference({self.attribute}, key={self._key_name})"


def identity(value: Any) -> Any:
    return value


def attribute_union(*prefs: Preference) -> tuple[str, ...]:
    """Ordered union of the attribute tuples of several preferences."""
    merged: dict[str, None] = {}
    for pref in prefs:
        for a in pref.attributes:
            merged[a] = None
    return tuple(merged)


def values_as_rows(pref: Preference, values: Iterable[Any]) -> list[dict[str, Any]]:
    """Normalize an iterable of values into rows for ``pref``."""
    return [as_row(v, pref.attributes) for v in values]


def distinct_projections(pref: Preference, values: Iterable[Any]) -> list[tuple]:
    """Distinct projections of ``values`` onto ``pref``'s attributes.

    This is ``pi_A(R)`` with duplicate elimination — the carrier of the
    database preference ``P_R`` and the unit in which result sizes
    (Definition 18) are counted.
    """
    seen: dict[tuple, None] = {}
    for row in values_as_rows(pref, values):
        seen[project(row, pref.attributes)] = None
    return list(seen)
