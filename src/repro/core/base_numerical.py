"""Numerical base preference constructors (Definition 7).

The constructor hierarchy in Section 3.4 makes AROUND, BETWEEN, LOWEST and
HIGHEST *sub-constructors* of SCORE, each obtained by fixing the scoring
function:

* ``BETWEEN  ~ SCORE with f(x) = -distance(x, [low, up])``
* ``AROUND   ~ BETWEEN with low = up``
* ``HIGHEST  ~ SCORE with f(x) = x``
* ``LOWEST   ~ SCORE with f(x) = -x``

The class layout mirrors that hierarchy: everything numerical derives from
:class:`ScorePreference`, so the query optimizer can treat *any* numerical
base preference uniformly via its score function (constructor
substitutability, Section 3.4; :func:`repro.query.algorithms.weak_score`
reads it).

All constructors work for any ordered type with subtraction — the paper
mentions SQL ``Date`` explicitly — not just floats.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.domains import Domain
from repro.core.preference import Preference, Row, as_row, project


class ScorePreference(Preference):
    """``SCORE(A, f)``: ``x <_P y  iff  f(x) < f(y)`` (Definition 7d).

    ``f`` maps a value of ``dom(A)`` to an ordered score.  When ``A`` has a
    single attribute, ``f`` receives the bare value; for multiple attributes
    it receives the projection tuple.  SCORE preferences need not be chains:
    values with equal scores are unranked.
    """

    def __init__(
        self,
        attributes: Sequence[str] | str,
        f: Callable[[Any], Any],
        name: str | None = None,
        domain: Domain | None = None,
    ):
        if isinstance(attributes, str):
            attributes = (attributes,)
        super().__init__(attributes, domain)
        self._f = f
        self._name = name if name is not None else getattr(f, "__name__", "f")

    @property
    def score_name(self) -> str:
        return self._name

    @property
    def signature(self) -> tuple:
        return ("score", self.attribute_set, self._name, self._f)

    @property
    def function(self) -> Callable[[Any], Any]:
        """``f`` itself: bare value -> score for a single attribute,
        projection tuple -> score otherwise.  For callers that score whole
        columns and should not pay :meth:`score`'s row normalization."""
        return self._f

    def score(self, value: Any) -> Any:
        """The score ``f(value)``; accepts rows, scalars or tuples."""
        row = as_row(value, self.attributes)
        return self._score_row(row)

    def _score_row(self, row: Row) -> Any:
        if len(self.attributes) == 1:
            return self._f(row[self.attributes[0]])
        return self._f(project(row, self.attributes))

    def _lt(self, x: Row, y: Row) -> bool:
        if len(self._attributes) == 1:
            a = self._attributes[0]
            return self._f(x[a]) < self._f(y[a])
        return self._score_row(x) < self._score_row(y)

    def __repr__(self) -> str:
        return f"SCORE({', '.join(self.attributes)}, {self._name})"


def distance_to_point(value: Any, z: Any) -> Any:
    """``distance(v, z) := abs(v - z)`` (Definition 7a)."""
    return abs(value - z)


def distance_to_interval(value: Any, low: Any, up: Any) -> Any:
    """``distance(v, [low, up])`` (Definition 7b): 0 inside, gap outside.

    A NumPy unsigned distance comes back as a Python int: the score
    negates it, and an unsigned negation wraps around (``-uint64(2)`` is
    ``2**64 - 2``), which would rank every value but an exact match
    last.  The distance itself never wraps: each branch subtracts the
    smaller operand."""
    if value < low:
        distance = low - value
    elif value > up:
        distance = value - up
    else:
        distance = value - value  # a type-correct zero (dates, floats, ints)
    # A NumPy unsigned scalar, recognized by its dtype without importing
    # NumPy; plain ints and floats skip the attribute lookups.
    if (
        type(distance) not in (int, float)
        and getattr(getattr(distance, "dtype", None), "kind", None) == "u"
    ):
        return int(distance)
    return distance


class BetweenPreference(ScorePreference):
    """``BETWEEN(A, [low, up])``: inside the interval, else as close as possible.

    Definition 7b: ``x <_P y iff distance(x, [low,up]) > distance(y, [low,up])``,
    i.e. SCORE with ``f(v) = -distance(v, [low, up])``.  All values inside
    the interval are maximal and mutually unranked; equal-distance outsiders
    are unranked too.
    """

    def __init__(
        self, attribute: str, low: Any, up: Any, domain: Domain | None = None
    ):
        if up < low:
            raise ValueError(f"BETWEEN needs low <= up, got [{low!r}, {up!r}]")
        self.low = low
        self.up = up
        super().__init__(
            (attribute,),
            lambda v: -distance_to_interval(v, low, up),
            name=f"-distance(., [{low!r}, {up!r}])",
            domain=domain,
        )

    @property
    def attribute(self) -> str:
        return self.attributes[0]

    @property
    def signature(self) -> tuple:
        return ("between", self.attribute, self.low, self.up)

    def _lt(self, x: Row, y: Row) -> bool:
        # Definition 7b as written: farther from the interval is worse.
        a, low, up = self._attributes[0], self.low, self.up
        return distance_to_interval(x[a], low, up) > distance_to_interval(
            y[a], low, up
        )

    def distance(self, value: Any) -> Any:
        """``distance(v, [low, up])`` — the DISTANCE quality function."""
        return distance_to_interval(value, self.low, self.up)

    def __repr__(self) -> str:
        return f"BETWEEN({self.attribute}, [{self.low!r}, {self.up!r}])"


class AroundPreference(BetweenPreference):
    """``AROUND(A, z)``: exactly ``z``, else as close as possible.

    Definition 7a; per the hierarchy this is BETWEEN with ``low = up = z``.
    Values equidistant from ``z`` on opposite sides are unranked.
    """

    def __init__(self, attribute: str, z: Any, domain: Domain | None = None):
        super().__init__(attribute, z, z, domain)
        self.z = z

    @property
    def signature(self) -> tuple:
        return ("around", self.attribute, self.z)

    def __repr__(self) -> str:
        return f"AROUND({self.attribute}, {self.z!r})"


class HighestPreference(ScorePreference):
    """``HIGHEST(A)``: as high as possible — a chain (Definition 7c)."""

    def __init__(self, attribute: str, domain: Domain | None = None):
        super().__init__((attribute,), _identity, name="x", domain=domain)

    @property
    def attribute(self) -> str:
        return self.attributes[0]

    def _lt(self, x: Row, y: Row) -> bool:
        return x[self._attributes[0]] < y[self._attributes[0]]

    @property
    def signature(self) -> tuple:
        return ("highest", self.attribute)

    def is_chain(self) -> bool | None:
        return True

    def __repr__(self) -> str:
        return f"HIGHEST({self.attribute})"


class LowestPreference(ScorePreference):
    """``LOWEST(A)``: as low as possible — a chain (Definition 7c).

    The score negates, which only numbers support; the order itself is
    ``x < y iff x > y`` on any ordered domain, as the definition says.
    """

    def __init__(self, attribute: str, domain: Domain | None = None):
        super().__init__((attribute,), _negate, name="-x", domain=domain)

    @property
    def attribute(self) -> str:
        return self.attributes[0]

    def _lt(self, x: Row, y: Row) -> bool:
        return y[self._attributes[0]] < x[self._attributes[0]]

    @property
    def signature(self) -> tuple:
        return ("lowest", self.attribute)

    def is_chain(self) -> bool | None:
        return True

    def __repr__(self) -> str:
        return f"LOWEST({self.attribute})"


def _identity(value: Any) -> Any:
    return value


def _negate(value: Any) -> Any:
    return -value
