"""Sessions: the stateful home of catalogs, functions, and plan caches.

A :class:`Session` owns

* a :class:`~repro.relations.catalog.Catalog` of named relations,
* a registry of scoring / combining functions for SCORE and RANK atoms,
* a memoized plan cache keyed on (query fingerprint, relation name,
  relation version) — repeated queries skip planning entirely, and any
  catalog change to a relation invalidates its cached plans by version,
* :meth:`~Session.column_store` / :meth:`~Session.table_stats` accessors
  reading the columnar materialization and statistics cached on the
  catalog's immutable relation snapshots.

It is the single entry point the fluent API, the Preference SQL front end,
and programmatic callers share::

    from repro import Session, AROUND, POS, pareto

    s = Session({"car": car_rows})
    best = (
        s.query("car")
        .where(make="Opel")
        .prefer(pareto(POS("color", {"red"}), AROUND("price", 40000)))
        .run()
    )
    same = s.sql(
        "SELECT * FROM car WHERE make = 'Opel' "
        "PREFERRING color = 'red' AND price AROUND 40000"
    )
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.query.api import PreferenceQuery
from repro.query.plan import Plan
from repro.relations.catalog import Catalog, Conjunct
from repro.relations.relation import Relation, Row
from repro.storage import CatalogStorage, StorageBackend, open_backend

#: Combining functions available to RANK(...) and SCORE(...) out of the box.
DEFAULT_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "sum": lambda *xs: sum(xs),
    "avg": lambda *xs: sum(xs) / len(xs),
    "min": lambda *xs: min(xs),
    "max": lambda *xs: max(xs),
    "product": lambda *xs: math.prod(xs),
    "identity": lambda x: x,
    "negate": lambda x: -x,
}


#: Plans the session keeps; storing one more drops the least recently
#: used.  Every ad-hoc query is a new key, so without a bound the cache
#: grows with the traffic; 256 keeps every plan a standing workload
#: repeats (docs/performance.md, "Scores as column expressions").
PLAN_CACHE_ENTRIES = 256


class CacheInfo(NamedTuple):
    """Plan-cache statistics, `functools.lru_cache`-style."""

    hits: int
    misses: int
    size: int


@dataclass(frozen=True)
class MutationEvent:
    """One versioned catalog mutation, as delivered to mutation hooks.

    ``inserted`` / ``deleted`` are the row batches the mutation applied;
    ``version`` is the relation's catalog version *after* the mutation
    and ``snapshot`` the catalog's immutable relation at that version —
    what continuous views re-point their bag at, instead of keeping a
    copy of their own.
    """

    relation: str
    inserted: tuple[Row, ...] = ()
    deleted: tuple[Row, ...] = ()
    version: int = 0
    snapshot: Relation | None = None


class Session:
    """A preference query session bound to a catalog of relations."""

    def __init__(
        self,
        catalog: Catalog | Mapping[str, Any] | None = None,
        functions: Mapping[str, Callable[..., Any]] | None = None,
        storage: StorageBackend | str | None = None,
        data_dir: str | None = None,
    ):
        if catalog is None:
            self.catalog = Catalog()
        elif isinstance(catalog, Catalog):
            self.catalog = catalog
        else:
            self.catalog = Catalog()
            for name, data in catalog.items():
                self.register(name, data)
        # The storage binding observes the catalog from here on: it
        # mirrors relations into the backend (SQL prefilter pushdown)
        # and, when data_dir is set, write-ahead-logs every mutation and
        # recovers the previous catalog state before anything else runs.
        backend = (storage if isinstance(storage, StorageBackend)
                   else open_backend(storage))
        self.storage = CatalogStorage(self.catalog, backend,
                                      directory=data_dir)
        self.functions: dict[str, Callable[..., Any]] = dict(DEFAULT_FUNCTIONS)
        if functions:
            self.functions.update(functions)
        self._plan_cache: OrderedDict[tuple, Plan] = OrderedDict()
        #: Per relation name, a version no cached plan of it is older
        #: than: :meth:`_evict_plans` scans only when it can find one.
        self._plan_floor: dict[str, int] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        # One reentrant lock guards the plan cache and catalog mutations,
        # so worker threads (the preference server runs winnows in an
        # executor) can share one session.  Plan *execution* never takes
        # the lock — only cache bookkeeping and the catalog swap do, so
        # concurrent queries stay parallel.
        self._lock = threading.RLock()
        #: Serializes whole mutations *including* hook delivery, so hooks
        #: always observe MutationEvents in catalog-version order (the
        #: invariant continuous views depend on).  Public and reentrant:
        #: the serving layer shares it to keep view seeding atomic with
        #: mutations — one lock, so no ordering inversions are possible.
        self.mutation_lock = threading.RLock()
        self._mutation_hooks: list[Callable[[MutationEvent], None]] = []

    # -- catalog management -----------------------------------------------------

    def register(
        self,
        name: str | Relation,
        data: Relation | Sequence[Mapping[str, Any]] | None = None,
        replace: bool = False,
    ) -> Relation:
        """Register a relation under ``name``.

        Accepts a :class:`Relation` directly (optionally renamed), or a
        name plus rows / a relation.  Returns the registered relation.
        """
        if isinstance(name, Relation):
            relation = name
        elif isinstance(data, Relation):
            relation = data.with_name(name)
        elif data is not None:
            relation = Relation.from_dicts(name, list(data))
        else:
            raise TypeError("register() needs a Relation or a name plus rows")
        self.catalog.register(relation, replace=replace)
        return relation

    def register_function(self, name: str, fn: Callable[..., Any]) -> None:
        """Register a scoring/combining function for SCORE / RANK atoms."""
        self.functions[name] = fn

    def declare_constraints(self, name: str, *constraints: Any) -> Relation:
        """Attach declared integrity constraints to a catalog relation.

        Re-registers ``name`` with the constraints added to its schema
        (see :meth:`Relation.declare`) and returns the new relation.  The
        replacement bumps the catalog version, so cached plans over the
        old, constraint-free schema are naturally invalidated.  Declared
        constraints are trusted — they are not re-verified against the
        rows — and feed the static analyzer and the semantic rewrite
        rules (``winnow_to_sort`` / ``remove_redundant_winnow``)
        alongside statistics-derived ones.
        """
        if not constraints:
            raise ValueError("declare_constraints() needs at least one")
        declared = self.catalog.get(name).declare(*constraints)
        self.catalog.register(declared, replace=True)
        return declared

    # -- mutations --------------------------------------------------------------

    def on_mutation(
        self, hook: Callable[[MutationEvent], None]
    ) -> Callable[[MutationEvent], None]:
        """Register a hook called after every :meth:`insert_rows` /
        :meth:`delete_rows`, with the :class:`MutationEvent` applied.

        Hooks run synchronously, in registration order, under
        :attr:`mutation_lock` (but never under the cache lock) — so a
        hook observing version ``n`` has seen every event before ``n``,
        the invariant the serving layer's continuous views depend on.
        Returns the hook (decorator-friendly); remove with
        :meth:`off_mutation`.
        """
        self._mutation_hooks.append(hook)
        return hook

    def off_mutation(self, hook: Callable[[MutationEvent], None]) -> None:
        """Unregister a mutation hook (a no-op if it is not registered)."""
        try:
            self._mutation_hooks.remove(hook)
        except ValueError:
            pass

    def _fire_mutation(self, event: MutationEvent) -> None:
        for hook in list(self._mutation_hooks):
            hook(event)

    def insert_rows(
        self, name: str, rows: Sequence[Mapping[str, Any]]
    ) -> MutationEvent:
        """Append rows to a catalog relation as one versioned mutation.

        Bumps the relation's catalog version (invalidating its cached
        plans and column stores — and only its), then fires the mutation
        hooks.  Returns the :class:`MutationEvent` applied.
        """
        cooked = [dict(r) for r in rows]  # accept iterators: iterate once
        with self.mutation_lock:
            with self._lock:
                new = self.catalog.insert_rows(name, cooked)
                version = self.catalog.version(name)
                self._evict_plans(name.lower(), version)
            event = MutationEvent(
                relation=new.name,
                inserted=tuple(cooked),
                version=version,
                snapshot=new,
            )
            self._fire_mutation(event)
        return event

    def delete_rows(
        self,
        name: str,
        rows: Sequence[Mapping[str, Any]] | None = None,
        predicate: Callable[[Row], bool] | Sequence[Conjunct] | None = None,
    ) -> MutationEvent:
        """Delete rows from a catalog relation as one versioned mutation.

        Pass ``rows`` (bag semantics) or ``predicate`` (a row callable or
        ``(predicate, ast)`` WHERE conjuncts), as ``Catalog.delete_rows``
        takes them.  Same invalidation and hook contract as
        :meth:`insert_rows`; the event carries the rows actually deleted.
        """
        with self.mutation_lock:
            with self._lock:
                new, deleted = self.catalog.delete_rows(
                    name, rows=rows, predicate=predicate
                )
                version = self.catalog.version(name)
                self._evict_plans(name.lower(), version)
            event = MutationEvent(
                relation=new.name,
                deleted=tuple(deleted),
                version=version,
                snapshot=new,
            )
            self._fire_mutation(event)
        return event

    def invalidate(self, name: str) -> None:
        """Eagerly drop the cached plans of one relation's old versions.

        Mutations call this automatically; it exists for callers that
        mutate the catalog directly (``session.catalog.register(...,
        replace=True)``) and want the cache trimmed now rather than at
        the next version-keyed miss.  (Column stores and statistics live
        on the relation snapshot and go with it.)
        """
        with self._lock:
            self._evict_plans(name.lower(), self.catalog.version(name))

    def _evict_plans(self, name: str, version: int) -> None:
        """Drop ``name``'s cached plans older than ``version`` (lock held).

        Scans the (bounded) cache only when a plan that old may be in it,
        so one scan per relation version, not one per miss."""
        if self._plan_floor.get(name, version) >= version:
            return
        for k in [
            k for k in self._plan_cache if k[1] == name and k[2] < version
        ]:
            del self._plan_cache[k]
        self._plan_floor[name] = version

    # -- durability -------------------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot the catalog and truncate the write-ahead log.

        Requires a durable session (``Session(data_dir=...)``).  Runs
        under the mutation lock so the snapshot is a consistent cut of
        the mutation stream.
        """
        with self.mutation_lock:
            return self.storage.checkpoint()

    def close(self) -> None:
        """Release storage resources (WAL handle, backend connections)."""
        self.storage.close()

    # -- queries ----------------------------------------------------------------

    def query(self, relation_name: str) -> PreferenceQuery:
        """Start a fluent :class:`PreferenceQuery` over a catalog relation.

        Resolution is lazy: the relation is looked up (and the plan built)
        only when a terminal method runs.
        """
        return PreferenceQuery(("catalog", relation_name), session=self)

    def sql_query(self, text: str) -> PreferenceQuery:
        """Translate one Preference SQL statement into a fluent query.

        The returned query is indistinguishable from a hand-chained one —
        both front ends share the planning pipeline and the plan cache —
        but remembers its parse tree so :meth:`PreferenceQuery.to_sql`
        reproduces the statement faithfully.
        """
        from repro.psql.parser import parse
        from repro.psql.translate import (
            TranslationError,
            translate_preferring,
            translate_quality,
        )

        parsed = parse(text)
        if parsed.preferring is None:
            for clause, value in (
                ("TOP", parsed.top),
                ("GROUPING", parsed.grouping),
                ("BUT ONLY", parsed.but_only),
            ):
                if value:
                    raise TranslationError(
                        f"{clause} needs a PREFERRING clause to rank by"
                    )
        q = self.query(parsed.table)
        if parsed.where is not None:
            q = q.where(parsed.where)
        if parsed.preferring is not None:
            q = q.prefer(translate_preferring(parsed.preferring, self.functions))
            for stage in parsed.cascades:
                q = q.cascade(translate_preferring(stage, self.functions))
        if parsed.grouping:
            q = q.groupby(*parsed.grouping)
        if parsed.but_only:
            q = q.but_only(*(translate_quality(b) for b in parsed.but_only))
        if parsed.top is not None:
            q = q.top(parsed.top)
        if parsed.order_by:
            q = q.order_by(*parsed.order_by)
        if not parsed.selects_all:
            q = q.select(*parsed.select)
        if parsed.limit is not None:
            q = q.limit(parsed.limit)
        return q._with_sql_ast(parsed)

    def sql(self, text: str) -> Relation:
        """Parse, plan, and run one Preference SQL statement."""
        return self.sql_query(text).run()

    def explain_sql(self, text: str) -> str:
        """The plan text for a Preference SQL statement, without running it."""
        return self.sql_query(text).explain()

    # -- plan cache -------------------------------------------------------------

    def cached_plan(self, key: tuple, build: Callable[[], Plan]) -> Plan:
        """Fetch a memoized plan, building and storing it on first miss.

        ``key`` is ``(fingerprint, relation_name, relation_version)``.
        Cached plans carry their rewrite trace, so a cache hit replays the
        rewritten plan *and* its provenance; the fingerprint embeds
        :data:`repro.query.rewrite.RULESET_VERSION`, so plans rewritten by
        an outdated rule set can never be served.
        Storing a plan evicts same-relation entries with older versions:
        the version counter only grows, so those can never hit again and
        would otherwise pin the superseded relations' rows via their Scan
        nodes.  The cache holds at most :data:`PLAN_CACHE_ENTRIES` plans
        and drops the least recently used one to store another.
        """
        with self._lock:
            plan = self._plan_cache.get(key)
            if plan is not None:
                self._plan_cache.move_to_end(key)
                self._cache_hits += 1
                return plan
            self._cache_misses += 1
        # Planning happens outside the lock (it can be expensive and never
        # touches the caches); concurrent same-key misses both plan, and
        # the identical results race benignly into the cache.
        plan = build()
        with self._lock:
            name, version = key[1], key[2]
            self._evict_plans(name, version)
            self._plan_floor[name] = min(
                self._plan_floor.get(name, version), version
            )
            self._plan_cache[key] = plan
            self._plan_cache.move_to_end(key)
            if len(self._plan_cache) > PLAN_CACHE_ENTRIES:
                self._plan_cache.popitem(last=False)
        return plan

    def cache_info(self) -> CacheInfo:
        """Hit/miss/size statistics of the plan cache."""
        with self._lock:
            return CacheInfo(
                self._cache_hits, self._cache_misses, len(self._plan_cache)
            )

    def clear_plan_cache(self) -> None:
        """Drop all memoized plans and reset the hit/miss counters."""
        with self._lock:
            self._plan_cache.clear()
            self._plan_floor.clear()
            self._cache_hits = 0
            self._cache_misses = 0

    # -- columnar materialization -----------------------------------------------

    def column_store(self, name: str) -> Any:
        """The columnar materialization of a catalog relation, for callers.

        Returns a :class:`repro.engine.columns.ColumnStore` over the
        current version of ``name``.  The store lives on the catalog's
        immutable relation snapshot (one instance per ``(name,
        version)``), so the same version returns the same object and a
        mutation, re-registration or drop retires it with the snapshot.

        It is :meth:`Relation.column_store`, the relation's one column
        cache: plan execution, WHERE masks and statistics read the same
        object, and each of its entries is built once per catalog
        version, on first request, one attribute at a time.
        """
        return self.catalog.get(name).column_store()

    def table_stats(self, name: str) -> Any:
        """Per-column statistics of a catalog relation.

        Returns the :class:`repro.relations.stats.TableStats` cached on
        the current snapshot of ``name`` (:meth:`Relation.stats` — the
        object plan building reads), so mutations retire stale statistics
        with the snapshot they describe.  Statistics are *lazy*: the
        object is O(1) to build and each column is profiled on first
        access, so registering a huge relation costs nothing until the
        planner actually consults a column.
        """
        return self.catalog.get(name).stats()

    def __repr__(self) -> str:
        return (
            f"Session({self.catalog.names()}, "
            f"{len(self.functions)} functions, "
            f"{len(self._plan_cache)} cached plans)"
        )
