"""Immutable in-memory relations — the database sets ``R`` of Section 5.

A :class:`Relation` is a named, schema'd bag of rows (duplicates allowed,
matching SQL practice and the paper's tuple-level BMO semantics: *all* best
matching tuples are retrieved, including projection-equal ones).  All
operators return new relations; rows are plain dicts, copied on the way in
and copied again on the way out (the library never mutates a stored row and
never hands one out, so derived relations may share them).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.relations.schema import Attribute, Schema

Row = dict[str, Any]

#: Publishes a relation's lazily built column store, so that concurrent
#: first readers of one snapshot all get the same object.
_PUBLISH = threading.Lock()


class RelationError(ValueError):
    """Operator misuse: unknown attributes, arity mismatches, etc."""


class Relation:
    """A named, immutable bag of rows over a schema."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Mapping[str, Any]],
        validate: bool = True,
    ):
        self.name = name
        self.schema = schema
        cooked = [dict(r) for r in rows]
        if validate:
            for row in cooked:
                schema.validate_row(row)
        self._rows = cooked
        # Lazily built columnar materialization (see columns()).  Relations
        # are immutable, so once built it can never go stale.
        self._column_cache: dict[str, tuple] | None = None
        self._store_cache: Any = None
        # Lazily built per-column statistics (see stats()); same soundness
        # argument — immutable rows mean the statistics never drift.
        self._stats_cache: Any = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dicts(
        cls,
        name: str,
        rows: Sequence[Mapping[str, Any]],
        schema: Schema | None = None,
    ) -> "Relation":
        """Build a relation from dict rows, inferring the schema if absent."""
        if schema is None:
            if not rows:
                raise RelationError(
                    "cannot infer a schema from zero rows; pass schema="
                )
            schema = Schema.infer([dict(r) for r in rows])
        return cls(name, schema, rows)

    @classmethod
    def from_tuples(
        cls,
        name: str,
        attributes: Sequence[str],
        tuples: Iterable[Sequence[Any]],
        schema: Schema | None = None,
    ) -> "Relation":
        """Build a relation from positional tuples, like the paper's
        ``R(A1, A2, A3) = {val1 = (-5, 3, 4), ...}`` notation."""
        rows = [dict(zip(attributes, t)) for t in tuples]
        if schema is None:
            schema = Schema.infer(rows) if rows else Schema(list(attributes))
        return cls(name, schema, rows)

    def _derive(
        self,
        rows: list[Row],
        name: str | None = None,
        schema: Schema | None = None,
    ) -> "Relation":
        """A relation over row dicts this library already owns — no copy.

        For internal derivations only (selections, winnow results,
        renames): their rows are dicts of an existing relation, which are
        never mutated and never handed out (:meth:`rows` and iteration
        copy), so sharing them is as safe as copying them and several
        times cheaper.  Input from outside goes through ``Relation(...)``,
        which copies and validates.
        """
        derived = Relation.__new__(Relation)
        derived.name = self.name if name is None else name
        derived.schema = self.schema if schema is None else schema
        derived._rows = rows
        derived._column_cache = None
        derived._store_cache = None
        derived._stats_cache = None
        return derived

    def with_name(self, name: str) -> "Relation":
        return self._derive(self._rows, name=name)

    def declare(self, *constraints: Any) -> "Relation":
        """A copy of this relation with integrity constraints declared.

        ``constraints`` are :class:`repro.relations.schema.Constraint`
        objects (:class:`~repro.relations.schema.Key`, ...); the analyzer
        and the semantic rewrite rules treat them as proved facts, so only
        declare what actually holds — declared constraints are *trusted*,
        not re-verified against the rows.
        """
        return self._derive(
            self._rows, schema=self.schema.with_constraints(*constraints)
        )

    # -- basics ----------------------------------------------------------------

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.schema.names

    def rows(self) -> list[Row]:
        """A defensive copy of all rows."""
        return [dict(r) for r in self._rows]

    def __iter__(self) -> Iterator[Row]:
        return (dict(r) for r in self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other: object) -> bool:
        """Bag equality: same schema names and the same multiset of rows."""
        if not isinstance(other, Relation):
            return NotImplemented
        if set(self.schema.names) != set(other.schema.names):
            return False
        key = lambda r: tuple(sorted(r.items(), key=lambda kv: kv[0]))
        return sorted(map(key, self._rows)) == sorted(map(key, other._rows))

    def __hash__(self) -> int:  # pragma: no cover - relations are bag-like
        return id(self)

    def column(self, attribute: str) -> list[Any]:
        """All values of one column (with duplicates, in row order)."""
        if attribute not in self.schema:
            raise RelationError(
                f"unknown attribute {attribute!r} in relation {self.name!r}"
            )
        return [r[attribute] for r in self._rows]

    def columns(self) -> dict[str, tuple]:
        """The columnar materialization: attribute -> value tuple, row order.

        Built lazily on first access and cached for the relation's lifetime
        — immutability makes the cache sound, and because the catalog hands
        out one relation instance per ``(name, version)``, the cache is
        effectively per catalog version, alongside the plan cache.  This is
        the representation the columnar execution engine
        (:mod:`repro.engine`) evaluates winnows over.
        """
        if self._column_cache is None:
            self._column_cache = {
                n: tuple(r[n] for r in self._rows) for n in self.schema.names
            }
        return dict(self._column_cache)

    def column_store(self) -> Any:
        """The :class:`repro.engine.columns.ColumnStore` over
        :meth:`columns` — one object for the relation's lifetime, which
        :meth:`repro.session.Session.column_store` hands out per catalog
        version."""
        if self._store_cache is None:
            from repro.engine.columns import ColumnStore

            store = ColumnStore.from_relation(self)
            with _PUBLISH:
                if self._store_cache is None:
                    self._store_cache = store
        return self._store_cache

    def stats(self) -> Any:
        """Per-column statistics (:class:`repro.relations.stats.TableStats`).

        Built lazily — constructing the object is O(1) and each column's
        statistics are computed on first access — and cached on the
        instance for its (immutable) lifetime.  The constraint registry
        (:func:`repro.analysis.constraints.constraint_registry`) derives
        keys, constants and bounds from here, and
        :meth:`repro.session.Session.table_stats` hands out the same
        object.
        """
        if self._stats_cache is None:
            from repro.relations.stats import TableStats

            self._stats_cache = TableStats(self)
        return self._stats_cache

    def tuples(self, attributes: Sequence[str] | None = None) -> list[tuple]:
        """Rows as positional tuples over ``attributes`` (default: all)."""
        names = tuple(attributes) if attributes else self.schema.names
        for n in names:
            if n not in self.schema:
                raise RelationError(f"unknown attribute {n!r}")
        return [tuple(r[n] for n in names) for r in self._rows]

    # -- relational operators ----------------------------------------------------

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Hard selection sigma_cond(R): the exact-match world's filter."""
        return self._derive([r for r in self._rows if predicate(r)])

    def project(
        self, attributes: Sequence[str], dedupe: bool = False
    ) -> "Relation":
        """Projection pi_A(R); ``dedupe=True`` gives set semantics.

        The paper's ``R[A]`` (Definition 14) is ``project(A, dedupe=True)``.
        """
        names = tuple(attributes)
        sub_schema = self.schema.project(names)
        picked = [{n: r[n] for n in names} for r in self._rows]
        if dedupe:
            seen: dict[tuple, Row] = {}
            for row in picked:
                seen.setdefault(tuple(row[n] for n in names), row)
            picked = list(seen.values())
        return Relation(self.name, sub_schema, picked, validate=False)

    def distinct(self) -> "Relation":
        return self.project(self.schema.names, dedupe=True)

    def extend(
        self, attribute: str, fn: Callable[[Row], Any], data_type: type | None = None
    ) -> "Relation":
        """Add a computed column (used for scores, levels, distances)."""
        if attribute in self.schema:
            raise RelationError(f"attribute {attribute!r} already exists")
        new_schema = Schema([*self.schema.attributes, Attribute(attribute, data_type)])
        new_rows = []
        for r in self._rows:
            row = dict(r)
            row[attribute] = fn(r)
            new_rows.append(row)
        return Relation(self.name, new_schema, new_rows, validate=False)

    def drop(self, attributes: Sequence[str]) -> "Relation":
        gone = set(attributes)
        keep = [n for n in self.schema.names if n not in gone]
        if not keep:
            raise RelationError("cannot drop every attribute")
        return self.project(keep)

    def rename(self, mapping: dict[str, str]) -> "Relation":
        for old in mapping:
            if old not in self.schema:
                raise RelationError(f"unknown attribute {old!r}")
        new_schema = self.schema.rename(mapping)
        new_rows = [
            {mapping.get(k, k): v for k, v in r.items()} for r in self._rows
        ]
        return Relation(self.name, new_schema, new_rows, validate=False)

    def order_by(
        self,
        key: Sequence[str] | Callable[[Row], Any],
        descending: bool = False,
    ) -> "Relation":
        """Stable sort by attribute list or key function."""
        if callable(key):
            key_fn = key
        else:
            names = tuple(key)
            for n in names:
                if n not in self.schema:
                    raise RelationError(f"unknown attribute {n!r}")
            key_fn = lambda r: tuple(r[n] for n in names)
        return self._derive(sorted(self._rows, key=key_fn, reverse=descending))

    def limit(self, k: int) -> "Relation":
        return self._derive(self._rows[:k])

    def group_by(self, attributes: Sequence[str]) -> dict[tuple, "Relation"]:
        """Partition by equal values on ``attributes``.

        This is the grouping that evaluates ``sigma[P groupby A](R)``
        (Definition 16): each group holds the tuples sharing one A-value.
        """
        names = tuple(attributes)
        for n in names:
            if n not in self.schema:
                raise RelationError(f"unknown attribute {n!r}")
        groups: dict[tuple, list[Row]] = {}
        for r in self._rows:
            groups.setdefault(tuple(r[n] for n in names), []).append(r)
        return {key: self._derive(rows) for key, rows in groups.items()}

    def union_all(self, other: "Relation") -> "Relation":
        self._require_same_attributes(other, "union")
        return self._derive([*self._rows, *other._rows])

    def intersect(self, other: "Relation") -> "Relation":
        """Set intersection on full rows (duplicates collapse)."""
        self._require_same_attributes(other, "intersect")
        names = self.schema.names
        other_keys = {tuple(r[n] for n in names) for r in other._rows}
        seen: set[tuple] = set()
        result = []
        for r in self._rows:
            key = tuple(r[n] for n in names)
            if key in other_keys and key not in seen:
                seen.add(key)
                result.append(r)
        return self._derive(result)

    def difference(self, other: "Relation") -> "Relation":
        """Set difference on full rows."""
        self._require_same_attributes(other, "difference")
        names = self.schema.names
        other_keys = {tuple(r[n] for n in names) for r in other._rows}
        seen: set[tuple] = set()
        result = []
        for r in self._rows:
            key = tuple(r[n] for n in names)
            if key not in other_keys and key not in seen:
                seen.add(key)
                result.append(r)
        return self._derive(result)

    def natural_join(self, other: "Relation") -> "Relation":
        """Join on all shared attribute names (hash join)."""
        shared = [n for n in self.schema.names if n in other.schema]
        joined_schema = self.schema.join(other.schema)
        if not shared:
            rows = [
                {**l, **r} for l in self._rows for r in other._rows
            ]
            return Relation(
                f"{self.name}_x_{other.name}", joined_schema, rows, validate=False
            )
        index: dict[tuple, list[Row]] = {}
        for r in other._rows:
            index.setdefault(tuple(r[n] for n in shared), []).append(r)
        rows = []
        for l in self._rows:
            for r in index.get(tuple(l[n] for n in shared), ()):
                rows.append({**r, **l})
        return Relation(
            f"{self.name}_x_{other.name}", joined_schema, rows, validate=False
        )

    def _require_same_attributes(self, other: "Relation", op: str) -> None:
        if set(self.schema.names) != set(other.schema.names):
            raise RelationError(
                f"{op} needs identical attribute sets: "
                f"{self.schema.names} vs {other.schema.names}"
            )

    # -- display ---------------------------------------------------------------

    def head(self, k: int = 10) -> str:
        """A plain-text table of the first ``k`` rows."""
        names = self.schema.names
        shown = self._rows[:k]
        widths = {
            n: max(len(n), *(len(str(r[n])) for r in shown)) if shown else len(n)
            for n in names
        }
        header = " | ".join(n.ljust(widths[n]) for n in names)
        sep = "-+-".join("-" * widths[n] for n in names)
        body = [
            " | ".join(str(r[n]).ljust(widths[n]) for n in names) for r in shown
        ]
        more = [] if len(self._rows) <= k else [f"... ({len(self._rows) - k} more)"]
        return "\n".join([header, sep, *body, *more])

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, {len(self._rows)} rows, "
            f"attributes={list(self.schema.names)})"
        )
