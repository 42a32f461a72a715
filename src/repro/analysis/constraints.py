"""The constraint registry: declared + statistics-derived integrity facts.

Chomicki's semantic-optimization results (cs/0402003, cs/0510036) hinge on
one observation: integrity constraints can prove a preference relation is
a *weak order on the constrained instance*, at which point the winnow is a
sort — or disappears entirely.  This module assembles the constraints the
rewrite rules consume:

* **declared** constraints ride on :attr:`Schema.constraints`
  (:class:`~repro.relations.schema.Key`,
  :class:`~repro.relations.schema.FunctionalDependency`,
  :class:`~repro.relations.schema.NotNull`,
  :class:`~repro.relations.schema.Check`);
* **derived** constraints come from per-column statistics
  (:func:`repro.relations.stats.derive_column_constraints`): relations are
  immutable, so ``distinct == count`` really is a key *for this instance*,
  and ``min == max`` really is a constant.

Everything the registry proves is hereditary under selection — keys,
constants, not-null and bounds all survive on any row subset — which is
what lets the rewrite rules fire below arbitrary ``WHERE`` stacks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.relations.schema import (
    Check,
    Constraint,
    FunctionalDependency,
    Key,
    NotNull,
)
from repro.relations.stats import derive_column_constraints

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relations.relation import Relation


class ConstraintSet:
    """An immutable bundle of constraints with the queries rewrites need."""

    __slots__ = ("_constraints",)

    def __init__(self, constraints: Iterable[Constraint] = ()):
        unique: list[Constraint] = []
        for constraint in constraints:
            if constraint not in unique:
                unique.append(constraint)
        self._constraints = tuple(unique)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __bool__(self) -> bool:
        return bool(self._constraints)

    @property
    def keys(self) -> tuple[Key, ...]:
        return tuple(c for c in self._constraints if isinstance(c, Key))

    @property
    def functional_dependencies(self) -> tuple[FunctionalDependency, ...]:
        return tuple(
            c for c in self._constraints
            if isinstance(c, FunctionalDependency)
        )

    def key_within(self, attributes: Iterable[str]) -> Key | None:
        """A key whose attributes all lie inside ``attributes``, if any.

        Such a key makes projections on ``attributes`` pairwise distinct:
        two rows agreeing there would agree on the key.
        """
        pool = set(attributes)
        for key in self.keys:
            if pool.issuperset(key.attributes):
                return key
        return None

    def constant(self, attribute: str) -> Check | None:
        """The ``attribute = value`` check constraint, if one holds."""
        for c in self._constraints:
            if isinstance(c, Check) and c.attribute == attribute and c.op == "=":
                return c
        return None

    def constant_attributes(self) -> dict[str, Check]:
        return {
            c.attribute: c
            for c in self._constraints
            if isinstance(c, Check) and c.op == "="
        }

    def not_null(self, attribute: str) -> bool:
        return any(
            isinstance(c, NotNull) and c.attribute == attribute
            for c in self._constraints
        )

    def bounds(self, attribute: str) -> tuple[Any, Any, str] | None:
        """``(low, high, source)`` when both bounds are known for a column."""
        low = high = None
        sources: list[str] = []
        for c in self._constraints:
            if not isinstance(c, Check) or c.attribute != attribute:
                continue
            if c.op == ">=" and (low is None or c.value > low):
                low = c.value
                sources.append(c.source)
            elif c.op == "<=" and (high is None or c.value < high):
                high = c.value
                sources.append(c.source)
            elif c.op == "=":
                low = high = c.value
                sources = [c.source]
                break
        if low is None or high is None:
            return None
        return low, high, sources[-1]

    def union(self, other: Iterable[Constraint]) -> "ConstraintSet":
        return ConstraintSet((*self._constraints, *other))

    def describe(self) -> tuple[str, ...]:
        return tuple(
            f"{c.describe()} [{c.source}]" for c in self._constraints
        )

    def __repr__(self) -> str:
        inner = ", ".join(c.describe() for c in self._constraints)
        return f"ConstraintSet({inner})"


def declared_constraints(relation: "Relation") -> ConstraintSet:
    """The constraints declared on a relation's schema."""
    return ConstraintSet(relation.schema.constraints)


def derived_constraints(
    relation: "Relation", attributes: Iterable[str],
) -> ConstraintSet:
    """Constraints the relation's statistics prove for ``attributes``.

    Only the named columns are profiled (statistics are lazy and memoized
    per column), so deriving for a preference's attribute set touches no
    other column.
    """
    stats = relation.stats()
    derived: list[Constraint] = []
    for attribute in attributes:
        if attribute not in relation.schema:
            continue
        derived.extend(
            derive_column_constraints(stats.column(attribute), stats.source)
        )
    return ConstraintSet(derived)


def constraint_registry(
    relation: "Relation", attributes: Iterable[str] | None = None,
) -> ConstraintSet:
    """Declared ∪ derived constraints for a relation.

    ``attributes`` bounds the statistics derivation (pass the preference's
    attribute set); declared constraints are always included in full.
    Declared constraints come first, so provenance prefers ``declared``
    over ``statistics(...)`` when both prove the same fact.

    Memoized per relation snapshot and attribute tuple, on the snapshot's
    :class:`~repro.relations.stats.TableStats`: a snapshot's rows and
    schema never change (a mutation or a declaration makes a new one),
    so neither can what they prove.
    """
    key = None if attributes is None else tuple(attributes)
    registries = relation.stats().registries
    registry = registries.get(key)
    if registry is None:
        registry = declared_constraints(relation).union(derived_constraints(
            relation, relation.schema.names if key is None else key
        ))
        registry = registries.setdefault(key, registry)
    return registry
