"""Per-column table statistics — the planner's eyes on the data.

The constraint registry
(:func:`repro.analysis.constraints.constraint_registry`) needs a handful
of facts about a relation's columns to prove what the semantic rewrite
rules rely on: how many rows there are, how many *distinct* values a
column carries (distinct == count is a key), whether it holds nulls, and
its minimum and maximum (a constant, or bounds) —
:func:`derive_column_constraints` turns them into constraints.

:class:`TableStats` computes all of this **lazily, one column at a time**:
building the object is O(1), and a column's statistics are computed on
first request from that one column of the relation's column cache
(:meth:`Relation.column_store`), then memoized.  Relations are immutable, so
statistics can never go stale — :meth:`Relation.stats` caches the instance
for the relation's lifetime, and :meth:`Session.table_stats
<repro.session.Session.table_stats>` keys its cache on
``(name, catalog version)`` exactly like the plan and column-store caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relations.relation import Relation


@dataclass(frozen=True)
class ColumnStats:
    """Statistics of one column: the planner's unit of data knowledge.

    ``distinct`` counts distinct non-null values; ``null_fraction`` is the
    share of null-like entries (``None`` plus values that do not compare
    equal to themselves, i.e. NaN/NaT); ``minimum`` / ``maximum`` are
    ``None`` when the column has no mutually comparable values.
    """

    attribute: str
    count: int
    distinct: int
    null_fraction: float
    minimum: Any
    maximum: Any

    @property
    def density(self) -> float:
        """Distinct values per row — 1.0 means an all-distinct column."""
        return self.distinct / self.count if self.count else 0.0


def _is_null(value: Any) -> bool:
    return value is None or value != value


def column_stats(attribute: str, values: Any) -> ColumnStats:
    """Compute :class:`ColumnStats` over one value sequence."""
    count = len(values)
    nulls = 0
    minimum: Any = None
    maximum: Any = None
    orderable = True
    seen: set | None = set()
    distinct_list: list[Any] | None = None
    for v in values:
        if _is_null(v):
            nulls += 1
            continue
        if seen is not None:
            try:
                seen.add(v)
            except TypeError:  # unhashable values: fall back to a list scan
                distinct_list = list(seen)
                distinct_list.append(v)
                seen = None
        elif distinct_list is not None and v not in distinct_list:
            distinct_list.append(v)
        if orderable:
            try:
                if minimum is None or v < minimum:
                    minimum = v
                if maximum is None or maximum < v:
                    maximum = v
            except TypeError:  # mixed incomparable types: no min/max
                minimum = maximum = None
                orderable = False
    distinct = len(seen) if seen is not None else len(distinct_list or ())
    return ColumnStats(
        attribute=attribute,
        count=count,
        distinct=distinct,
        null_fraction=(nulls / count) if count else 0.0,
        minimum=minimum,
        maximum=maximum,
    )


class TableStats:
    """Lazily-computed, memoized per-column statistics of one relation.

    Cheap to construct (row count only); per-column work happens on first
    :meth:`column` access and reads the relation's cached column vectors,
    so a statistics pass never re-materializes rows.
    """

    __slots__ = ("relation", "row_count", "_columns", "registries")

    def __init__(self, relation: "Relation"):
        self.relation = relation
        self.row_count = len(relation)
        self._columns: dict[str, ColumnStats] = {}
        #: The constraint registries derived from these statistics, per
        #: attribute tuple (None: every column); filled and read by
        #: :func:`repro.analysis.constraints.constraint_registry`.
        self.registries: dict[tuple[str, ...] | None, Any] = {}

    def column(self, attribute: str) -> ColumnStats:
        """Statistics of one column (computed on first access)."""
        cached = self._columns.get(attribute)
        if cached is None:
            cached = column_stats(
                attribute, self.relation.column_store().column(attribute)
            )
            self._columns[attribute] = cached
        return cached

    def distinct(self, attribute: str) -> int:
        return self.column(attribute).distinct

    def computed_columns(self) -> tuple[str, ...]:
        """The columns whose statistics have been computed so far."""
        return tuple(self._columns)

    @property
    def source(self) -> str:
        """Provenance label for ``explain()`` output."""
        return f"statistics({self.relation.name})"

    def __repr__(self) -> str:
        return (
            f"TableStats({self.relation.name!r}, {self.row_count} rows, "
            f"{len(self._columns)} columns computed)"
        )


def derive_column_constraints(stats: ColumnStats, source: str) -> list:
    """Integrity constraints a column's statistics prove on this instance.

    Relations are immutable, so instance-level facts are as good as
    declared constraints for the lifetime of the relation:

    * ``distinct == count`` (and no nulls) ⇒ the column is a key,
    * ``minimum == maximum`` (and no nulls) ⇒ the column is constant,
    * ``null_fraction == 0`` ⇒ the column is not-null,
    * orderable columns additionally yield ``>= minimum`` / ``<= maximum``
      bounds (used to prove BETWEEN intervals cover a whole column).

    ``source`` is the provenance label stitched into every derived
    constraint (normally :attr:`TableStats.source`).
    """
    from repro.relations.schema import Check, Key, NotNull

    derived: list = []
    if stats.count == 0:
        return derived
    no_nulls = stats.null_fraction == 0.0
    if no_nulls:
        derived.append(NotNull(stats.attribute, source))
        if stats.distinct == stats.count:
            derived.append(Key((stats.attribute,), source))
        if stats.minimum is not None and stats.minimum == stats.maximum:
            derived.append(Check(stats.attribute, "=", stats.minimum, source))
    if stats.minimum is not None:
        derived.append(Check(stats.attribute, ">=", stats.minimum, source))
    if stats.maximum is not None:
        derived.append(Check(stats.attribute, "<=", stats.maximum, source))
    return derived


def relation_stats(relation: "Relation") -> TableStats:
    """The (cached) :class:`TableStats` of a relation.

    Delegates to :meth:`Relation.stats`, which memoizes on the instance —
    immutability makes that sound, and because the catalog hands out one
    relation instance per ``(name, version)``, the cache is effectively
    per catalog version.
    """
    return relation.stats()
