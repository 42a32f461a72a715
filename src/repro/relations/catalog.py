"""A named-relation catalog — the "database" the query front ends talk to.

Preference SQL resolves ``FROM`` clauses and Preference XPath resolves
document roots against a catalog.  Catalogs are deliberately simple: a
mutable mapping with registration-time schema sanity, case-insensitive
lookup (SQL style) and defensive copies on every read.

Every registration (including replacement) and drop bumps a per-name
monotonically increasing *version*.  Relations themselves are immutable, so
``(name, version)`` uniquely identifies a relation's contents — the query
layer keys its memoized plan cache on it for invalidation.

Mutations are observable: the storage layer attaches an observer and
receives one :class:`CatalogEvent` per logical mutation — the seam the
write-ahead log and SQL mirrors hang off (see ``repro.storage.binding``).
``insert_rows``/``delete_rows`` internally re-register the rebuilt
relation, so notification is suppressed for that inner call and the
precise row-level event is emitted instead; observers never see a
full-relation ``register`` for what was a two-row insert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Protocol, Sequence

from repro.relations.relation import Relation, RelationError, Row

#: One WHERE conjunct: a row predicate and its AST (None: closure only).
Conjunct = tuple[Callable[[Row], bool], Any]


@dataclass(frozen=True)
class CatalogEvent:
    """One versioned catalog mutation, as seen by observers.

    ``op`` is ``register`` / ``insert`` / ``delete`` / ``drop``;
    ``version`` is the per-name version *after* the mutation.  ``rows``
    carries the inserted or deleted rows for the row-level ops,
    ``relation`` the full new relation where one exists (all ops except
    ``drop``).
    """

    op: str
    name: str
    version: int
    relation: Relation | None = None
    rows: tuple[Row, ...] = field(default_factory=tuple)


class CatalogObserver(Protocol):
    """Anything that wants the catalog's mutation stream."""

    def on_catalog_event(self, event: CatalogEvent) -> None: ...


class Catalog:
    """A case-insensitive registry of relations."""

    def __init__(self, relations: dict[str, Relation] | None = None):
        self._relations: dict[str, Relation] = {}
        # Version counters survive drops so a re-registered name never
        # repeats an old (name, version) pair.
        self._versions: dict[str, int] = {}
        self._observers: list[CatalogObserver] = []
        # Depth of notification suppression: >0 while a compound
        # mutation (insert/delete) performs its internal re-register.
        self._quiet = 0
        if relations:
            for name, rel in relations.items():
                self.register(rel.with_name(name))

    # -- observation -----------------------------------------------------

    def attach(self, observer: CatalogObserver) -> None:
        """Subscribe ``observer`` to subsequent mutations."""
        if observer not in self._observers:
            self._observers.append(observer)

    def detach(self, observer: CatalogObserver) -> None:
        if observer in self._observers:
            self._observers.remove(observer)

    def _notify(self, event: CatalogEvent) -> None:
        if self._quiet:
            return
        for observer in self._observers:
            observer.on_catalog_event(event)

    def register(self, relation: Relation, replace: bool = False) -> None:
        key = relation.name.lower()
        if key in self._relations and not replace:
            raise RelationError(
                f"relation {relation.name!r} already registered "
                f"(pass replace=True to overwrite)"
            )
        self._relations[key] = relation
        self._versions[key] = self._versions.get(key, 0) + 1
        self._notify(CatalogEvent(
            "register", key, self._versions[key], relation=relation,
        ))

    def version(self, name: str) -> int:
        """The registration version of ``name`` (0 if never registered).

        Bumped on every :meth:`register` (replacement included) and
        :meth:`drop`; relations are immutable, so equal ``(name, version)``
        implies identical contents.
        """
        return self._versions.get(name.lower(), 0)

    def versions(self) -> dict[str, int]:
        """Copy of the full version-counter map (dropped names included)."""
        return dict(self._versions)

    def insert_rows(
        self, name: str, rows: Sequence[Mapping[str, Any]]
    ) -> Relation:
        """Append ``rows`` to ``name`` as one versioned mutation.

        Relations stay immutable: a new relation instance with the combined
        rows replaces the old one, bumping the per-name version — exactly
        like a re-registration, so plan caches and column stores keyed on
        ``(name, version)`` invalidate for this relation and no other.
        Rows are schema-validated *before* the swap, so a bad batch leaves
        the catalog untouched.  Returns the new relation.
        """
        old = self.get(name)
        cooked = [dict(r) for r in rows]
        for row in cooked:
            old.schema.validate_row(row)
        # Stored dicts are shared with the old snapshot (never mutated,
        # never handed out); only the new rows were copied, on the way in.
        return self._swap(
            "insert", old, [*old._rows, *cooked], [dict(r) for r in cooked]
        )

    def delete_rows(
        self,
        name: str,
        rows: Sequence[Mapping[str, Any]] | None = None,
        predicate: Callable[[Row], bool] | Sequence[Conjunct] | None = None,
    ) -> tuple[Relation, list[Row]]:
        """Delete rows from ``name`` as one versioned mutation.

        Either ``rows`` (bag semantics: each given row removes the first
        equal stored row) or ``predicate`` (every matching row goes: a row
        callable, or ``(predicate, ast)`` WHERE conjuncts, which
        :func:`repro.engine.columnar.select_index` reads as a query's).
        Returns ``(new relation, deleted rows)`` — the deleted list is what
        continuous views need to maintain their windows.  Deleting nothing
        still bumps the version: the mutation happened, even if vacuous.
        """
        from repro.engine.columnar import select_index

        if (rows is None) == (predicate is None):
            raise RelationError(
                "delete_rows() needs exactly one of rows= or predicate="
            )
        old = self.get(name)
        stored = old._rows
        hits: Sequence[int]
        if predicate is None:
            targets = [dict(r) for r in rows or ()]
            hits = []
            for position, row in enumerate(stored):
                for i, target in enumerate(targets):
                    if row == target:
                        del targets[i]
                        hits.append(position)
                        break
        else:
            index = select_index(
                old, [(predicate, None)] if callable(predicate) else predicate
            )
            hits = range(len(stored)) if index is None else index
        kept: list[Row] = []
        start = 0
        for position in hits:  # few: slice around them
            kept += stored[start:position]
            start = position + 1
        kept += stored[start:]
        deleted = [dict(stored[i]) for i in hits]
        return self._swap("delete", old, kept, deleted), deleted

    def _swap(
        self, op: str, old: Relation, rows: list[Row], changed: list[Row]
    ) -> Relation:
        """Install the snapshot of ``rows`` derived from ``old`` and notify
        the observers of the ``changed`` rows only: the inner re-register
        stays quiet."""
        new = old._derive(rows)
        self._quiet += 1
        try:
            self.register(new, replace=True)
        finally:
            self._quiet -= 1
        key = new.name.lower()
        self._notify(CatalogEvent(
            op, key, self._versions[key], relation=new, rows=tuple(changed),
        ))
        return new

    def get(self, name: str) -> Relation:
        try:
            return self._relations[name.lower()]
        except KeyError:
            known = sorted(self._relations)
            raise RelationError(
                f"unknown relation {name!r}; catalog has {known}"
            ) from None

    def drop(self, name: str) -> None:
        key = name.lower()
        try:
            del self._relations[key]
        except KeyError:
            raise RelationError(f"unknown relation {name!r}") from None
        self._versions[key] = self._versions.get(key, 0) + 1
        self._notify(CatalogEvent("drop", key, self._versions[key]))

    # -- recovery (storage layer only) -----------------------------------

    def restore(self, relation: Relation, version: int) -> None:
        """Install ``relation`` at an exact ``version``, silently.

        Recovery-path primitive: replaying a WAL or loading a snapshot
        must reproduce the logged version numbers exactly (plan caches
        and view versions key on them) and must *not* re-notify the
        observers that produced the log in the first place.
        """
        key = relation.name.lower()
        self._relations[key] = relation
        self._versions[key] = version

    def restore_version(self, name: str, version: int) -> None:
        """Force the version counter of ``name`` (recovery path only)."""
        self._versions[name.lower()] = version

    def restore_drop(self, name: str, version: int) -> None:
        """Silently remove ``name`` at ``version`` (recovery path only)."""
        key = name.lower()
        self._relations.pop(key, None)
        self._versions[key] = version

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def names(self) -> list[str]:
        return sorted(self._relations)

    def __repr__(self) -> str:
        return f"Catalog({self.names()})"
