"""Materialized continuous winnow views.

A :class:`ContinuousView` is a standing preference query over one catalog
relation — plain winnow, grouped winnow, or ranked top-k — kept current by
the one :class:`~repro.query.incremental.IncrementalBMO` maintainer
instead of being re-planned per query.  A view *is* its window: the rows
it is a winnow of stay in the catalog, whose immutable snapshot the
maintainer is handed at seed time and again with every mutation event, so
a view costs its answer, not a copy of the relation.  What this module
adds around the maintainer is what serving needs — a lock, the catalog
version the window is current at, poison, statistics, and the registry
key.  Views are registered per ``(relation, preference fingerprint,
groupby, top, ties)`` in a :class:`ViewRegistry`, refreshed on every
catalog mutation, and answer repeat queries straight from their window.

Every refresh yields a :class:`~repro.query.incremental.BMODelta` of rows
entering / leaving the BMO result — the event stream the server pushes to
``subscribe``\\ d clients (Example 9's non-monotonic evolution, live).
Who receives it is read from the service's one
:class:`SubscriptionTable`, kept beside the registry because a
subscription follows its view's key.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Sequence

from repro.algebra.equivalence import canonical_form
from repro.core.preference import Preference, Row
from repro.faults import plan as faults
from repro.query.incremental import BMODelta, IncrementalBMO
from repro.query.revision import Revision
from repro.relations.relation import Relation
from repro.session import MutationEvent


@dataclass(frozen=True)
class ViewError:
    """Pushed in place of a :class:`BMODelta` when a refresh poisoned
    its view: subscribers learn the stream broke (and why) instead of
    silently missing deltas until they next reconcile."""

    reason: str


@dataclass(frozen=True)
class ViewSpec:
    """The standing query a continuous view materializes.

    ``pref`` is stored in its canonical form
    (:func:`~repro.algebra.equivalence.canonical_form`, normalized once
    when the spec is built), so every spelling of one term — anonymous,
    tenant-composed, revised or recovered — keys, maintains and answers
    as one view.
    """

    relation: str
    pref: Preference
    groupby: tuple[str, ...] = ()
    top: int | None = None
    ties: str = "strict"

    def __post_init__(self) -> None:
        object.__setattr__(self, "pref", canonical_form(self.pref))

    @cached_property
    def key(self) -> tuple:
        """The registry key: hashable structural identity of the view.

        The canonical term's signature carries its scoring code, so terms
        with different code never alias to one view.  Computed once per
        spec — the fields are frozen, and building it walks the term.
        """
        return (
            self.relation.lower(),
            self.pref.signature,
            self.groupby,
            self.top,
            self.ties,
        )

    def describe(self) -> str:
        parts = [f"sigma[{self.pref!r}]({self.relation})"]
        if self.groupby:
            parts.append(f"groupby {list(self.groupby)}")
        if self.top is not None:
            parts.append(f"top {self.top} ({self.ties})")
        return " ".join(parts)


class ContinuousView:
    """One materialized winnow, maintained under mutations.

    Thread-safe: refreshes and reads serialize on a per-view lock (so a
    reader never observes a half-applied mutation batch), while distinct
    views refresh independently.
    """

    def __init__(self, spec: ViewSpec):
        self.spec = spec
        self._live = IncrementalBMO(
            spec.pref, groupby=spec.groupby or None, top=spec.top,
            ties=spec.ties,
        )
        self._lock = threading.RLock()
        self.version = 0          # catalog version the view is current at
        self.served = 0           # queries answered from this view
        self.refreshes = 0
        self.refresh_total_ns = 0
        self.refresh_last_ns = 0
        self.revisions = 0
        self.revision_total_ns = 0
        self.revision_last_ns = 0
        self.last_revision: Revision | None = None
        #: Why this view was quarantined (a refresh threw), or None.
        #: A poisoned view never answers queries and never refreshes
        #: again; it heals by being reseeded under the same spec key.
        self.poisoned: str | None = None

    def seed(self, rows: Relation | Iterable[Row], version: int) -> None:
        """Load the view from a relation snapshot at ``version``: one
        planner-chosen winnow.  A catalog :class:`Relation` is held by
        reference; loose rows are copied into a list the view owns."""
        with self._lock:
            self._live.load(rows)
            self.version = version

    def refresh(self, event: MutationEvent) -> BMODelta:
        """Apply one mutation batch; returns the net enter/exit delta.

        A refresh that throws (maintainer bug, bad row, injected fault)
        leaves the maintained window half-applied — the caller must
        :meth:`poison` this view; see :meth:`ViewRegistry.refresh_all`
        for the isolation contract.
        """
        start = time.perf_counter_ns()
        with self._lock:
            faults.check("view.refresh", self.spec.relation)
            delta = self._live.apply(
                inserted=event.inserted, deleted=event.deleted,
                bag=event.snapshot,
            )
            self.version = event.version
            elapsed = time.perf_counter_ns() - start
            self.refreshes += 1
            self.refresh_total_ns += elapsed
            self.refresh_last_ns = elapsed
        return delta

    def poison(self, reason: str) -> None:
        """Quarantine the view: its window can no longer be trusted, and
        it lets go of the relation snapshot it was a winnow of."""
        with self._lock:
            self.poisoned = reason
            self._live.load(())

    def revise(
        self, new_pref: Preference, constraints: Any = None
    ) -> tuple[BMODelta, Revision, str]:
        """Adopt a revised preference; returns (delta, revision, strategy).

        The maintainer classifies the delta and re-derives its windows
        from the cheapest sound restart (:meth:`~repro.query.incremental
        .IncrementalBMO.revise`): the current view rows for proved order
        refinements, the catalog snapshot it holds otherwise.  The
        view's spec is re-pointed at the new preference, so its registry
        key changes — use :meth:`ViewRegistry.revise` to keep the index
        consistent.  Runs under the same per-view lock as refreshes, so
        revision deltas serialize with data deltas.
        """
        start = time.perf_counter_ns()
        spec = dataclasses.replace(self.spec, pref=new_pref)
        with self._lock:
            delta, revision, strategy = self._live.revise(
                spec.pref, constraints=constraints
            )
            self.spec = spec
            elapsed = time.perf_counter_ns() - start
            self.revisions += 1
            self.revision_total_ns += elapsed
            self.revision_last_ns = elapsed
            self.last_revision = revision
        return delta, revision, strategy

    def rows(self) -> list[Row]:
        """A snapshot of the current view result (counts as a serve)."""
        with self._lock:
            self.served += 1
            return self._live.result()

    def rows_at(self, key: tuple, version: int) -> list[Row] | None:
        """:meth:`rows`, if the view can answer a query keyed ``key`` at
        catalog ``version``: healthy, current, and not revised to another
        preference since the registry lookup.  Checked and read under
        one hold of the lock, so the check cannot go stale before the
        read; ``None`` otherwise.
        """
        with self._lock:
            if (
                self.poisoned is not None
                or self.version != version
                or self.spec.key != key
            ):
                return None
            return self.rows()

    def rows_if_free(self, key: tuple, version: int) -> list[Row] | None:
        """:meth:`rows_at` without waiting: ``None`` at once when another
        thread holds the lock (a refresh or revision in flight).  The
        server's event loop reads through this — it must never wait on
        view maintenance."""
        if not self._lock.acquire(blocking=False):
            return None
        try:
            return self.rows_at(key, version)
        finally:
            self._lock.release()

    def snapshot(self) -> tuple[list[Row], int]:
        """The current result together with the version it is current at,
        read atomically — subscribers use the version to discard delta
        pushes the snapshot already includes."""
        with self._lock:
            self.served += 1
            return self._live.result(), self.version

    def stats(self) -> dict[str, Any]:
        """Maintenance statistics, including the maintainer's own honest
        counters (``rebuilds``: re-winnows of the snapshot forced by a
        delete that took the last carrier of a maximal projection)."""
        with self._lock:
            return {
                "view": self.spec.describe(),
                "version": self.version,
                "size": len(self._live),
                "served": self.served,
                "refreshes": self.refreshes,
                "refresh_total_ns": self.refresh_total_ns,
                "refresh_last_ns": self.refresh_last_ns,
                "revisions": self.revisions,
                "revision_total_ns": self.revision_total_ns,
                "revision_last_ns": self.revision_last_ns,
                "poisoned": self.poisoned,
                "last_revision": (
                    None
                    if self.last_revision is None
                    else {
                        "kind": self.last_revision.kind,
                        "shape": self.last_revision.shape,
                        "restart": self.last_revision.restart,
                    }
                ),
                "maintenance": dict(self._live.stats),
            }

    def __repr__(self) -> str:
        return f"ContinuousView({self.spec.describe()}, v{self.version})"


class ViewRegistry:
    """All continuous views of one service, indexed by spec key."""

    def __init__(self) -> None:
        self._views: dict[tuple, ContinuousView] = {}
        self._lock = threading.RLock()

    def get(self, spec: ViewSpec) -> ContinuousView | None:
        # One dict read, deliberately lock-free: the server's event loop
        # looks views up and must not wait.  A reader racing a re-key is
        # caught by the key check in :meth:`ContinuousView.rows_at`.
        return self._views.get(spec.key)

    def register(
        self, spec: ViewSpec, rows: Relation | Sequence[Row], version: int
    ) -> ContinuousView:
        """Materialize (or return the already-registered) view for
        ``spec``, seeded from ``rows`` at catalog ``version``."""
        with self._lock:
            view = self._views.get(spec.key)
            if view is not None and view.poisoned is None:
                return view
        # Seeding is a full winnow of the snapshot — do it outside the
        # registry lock; a concurrent same-spec register seeds twice and the
        # setdefault race picks one winner (both are correct).
        fresh = ContinuousView(spec)
        fresh.seed(rows, version)
        return self.adopt(fresh)

    def adopt(self, view: ContinuousView) -> ContinuousView:
        """Register an externally seeded view; returns the registered one
        (the already-present view wins a registration race — unless it
        is poisoned, in which case the fresh view *replaces* it under
        the same key, which is how a poisoned view heals without its
        subscribers re-subscribing)."""
        with self._lock:
            current = self._views.get(view.spec.key)
            if current is not None and current.poisoned is None:
                return current
            self._views[view.spec.key] = view
            return view

    def revise(
        self,
        view: ContinuousView,
        new_pref: Preference,
        constraints: Any = None,
    ) -> tuple[BMODelta, Revision, str]:
        """Revise a registered view in place and re-key the index.

        The revision itself runs under the view's lock only — it can be
        a full re-winnow, and the registry lock must stay cheap to take —
        then the old key is dropped and the revised view re-registered
        under its new key in one step.  In between, a reader that finds
        the view under its old key is turned away by the key check in
        :meth:`ContinuousView.rows_at`.  If another view already occupies
        the new key, the revised view wins (it carries the subscribers'
        history).
        """
        old_key = view.spec.key
        outcome = view.revise(new_pref, constraints=constraints)
        with self._lock:
            if self._views.get(old_key) is view:
                del self._views[old_key]
            self._views[view.spec.key] = view
        return outcome

    def drop(self, spec: ViewSpec) -> bool:
        with self._lock:
            return self._views.pop(spec.key, None) is not None

    def views_of(self, relation: str) -> list[ContinuousView]:
        key = relation.lower()
        with self._lock:
            return [
                v for v in self._views.values() if v.spec.key[0] == key
            ]

    def refresh_all(
        self, event: MutationEvent
    ) -> list[tuple[ContinuousView, BMODelta | ViewError]]:
        """Refresh every view of the mutated relation; returns per-view
        deltas (empty deltas included, so callers see refresh latencies).

        Failure isolation: a refresh that throws poisons *that view
        only* — it yields a :class:`ViewError` (so subscribers can be
        told), every other view still refreshes, and the mutation that
        triggered the sweep is never failed retroactively (the catalog
        already applied it).  Poisoned views are skipped outright.
        """
        out: list[tuple[ContinuousView, BMODelta | ViewError]] = []
        for view in self.views_of(event.relation):
            if view.poisoned is not None:
                continue
            try:
                out.append((view, view.refresh(event)))
            except Exception as exc:  # noqa: BLE001 - quarantine + report
                reason = f"{type(exc).__name__}: {exc}"
                view.poison(reason)
                out.append((view, ViewError(reason)))
        return out

    def poisoned(self) -> list[str]:
        """Descriptions of every currently quarantined view."""
        with self._lock:
            views = list(self._views.values())
        return [v.spec.describe() for v in views if v.poisoned is not None]

    def stats(self) -> list[dict[str, Any]]:
        with self._lock:
            views = list(self._views.values())
        return [v.stats() for v in views]

    def __len__(self) -> int:
        with self._lock:
            return len(self._views)


@dataclass(frozen=True)
class Subscription:
    """One live subscription: the view it holds, by spec (hence key and
    relation), and whose it is — a tenant, or ``None`` for an anonymous
    one.  A tenant subscription also keeps its recomposition recipe, the
    submitted ``base`` term and the profile ``term`` name, so a profile
    revision can recompose it."""

    id: int
    spec: ViewSpec
    tenant: str | None = None
    base: Preference | None = None
    term: str | None = None

    @property
    def key(self) -> tuple:
        return self.spec.key


class SubscriptionTable:
    """Every live subscription of one service, each recorded once.

    The one place "who holds which view" is kept: eviction pins, sole
    holders, quotas, every subscription count and every delta's
    recipients are read from here.  Records are added and re-keyed under
    the service's mutation lock — in the same step that registers or
    re-keys their view, and where every delta's recipients are resolved
    — while removal takes only this table's own short lock, so the
    server's event loop can drop a subscription without waiting.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subs: dict[int, Subscription] = {}
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def add(self, sub: Subscription, limit: int | None = None) -> bool:
        """Record ``sub`` unless its tenant already holds ``limit``
        subscriptions — the quota check and the add are one step."""
        with self._lock:
            if limit is not None and sum(
                1 for s in self._subs.values() if s.tenant == sub.tenant
            ) >= limit:
                return False
            self._subs[sub.id] = sub
            return True

    def remove(self, sub_id: int) -> Subscription | None:
        with self._lock:
            return self._subs.pop(sub_id, None)

    def holding(self, key: tuple) -> list[Subscription]:
        """The subscriptions that follow the view keyed ``key``."""
        with self._lock:
            return [s for s in self._subs.values() if s.key == key]

    def records(self) -> list[Subscription]:
        with self._lock:
            return list(self._subs.values())

    def rekey(self, ids: Iterable[int], spec: ViewSpec) -> None:
        """Point the subscriptions ``ids`` at the view ``spec`` (one that
        was revised, or that they migrated to)."""
        with self._lock:
            for sub_id in ids:
                sub = self._subs.get(sub_id)
                if sub is not None:
                    self._subs[sub_id] = dataclasses.replace(sub, spec=spec)

    def keys(self) -> set[tuple]:
        """The keys of every held view (a held view is never evicted)."""
        with self._lock:
            return {s.key for s in self._subs.values()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._subs)
