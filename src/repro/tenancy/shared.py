"""The shared-view index: canonical terms -> one continuous view, LRU-bounded.

The scale play of the tenancy layer: every
:class:`~repro.server.views.ViewSpec` holds its term's canonical form
(:func:`repro.algebra.equivalence.canonical_form`), so algebraically
equivalent terms — commuted Pareto arms, laundered duplicates,
simplifiable prioritized chains — key the *same* spec and hit the same
:class:`~repro.server.views.ContinuousView`.  10k users with a handful of
equivalent profile shapes share a handful of maintained windows.

The index tracks, per registry key, which tenant caused the
materialization (quota attribution) and hit/recency counters driving LRU
eviction back to ``capacity``.  Which views are pinned — held by a live
subscription, tenant or anonymous alike, since they share keys — it reads
from the service's :class:`~repro.server.views.SubscriptionTable`;
pinned views are never evicted.  Teardown is *resurrection-safe*: an
evicted view simply vanishes from the registry, and the next query for
its canonical term re-materializes it from the current catalog snapshot —
a resurrected view can never serve stale rows, because seeding always
reads the live relation, and never cross-tenant rows, because keys are
exact structural identities of the canonicalized term.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.server.views import SubscriptionTable, ViewRegistry, ViewSpec


class _SharedEntry:
    __slots__ = ("spec", "creator", "hits", "misses", "last_used")

    def __init__(self, spec: ViewSpec, creator: str):
        self.spec = spec
        self.creator = creator
        self.hits = 0
        self.misses = 0
        self.last_used = 0


class SharedViewIndex:
    """Tenancy bookkeeping over one :class:`ViewRegistry` (thread-safe).

    The index only governs views the tenancy layer created — the
    service's own auto-materialized views stay outside its LRU.
    """

    def __init__(
        self,
        registry: ViewRegistry,
        subscriptions: SubscriptionTable,
        capacity: int = 256,
    ):
        if capacity < 1:
            raise ValueError("shared view capacity must be >= 1")
        self.registry = registry
        self.subscriptions = subscriptions
        self.capacity = capacity
        self._lock = threading.RLock()
        self._entries: dict[tuple, _SharedEntry] = {}
        #: tenant -> keys that tenant caused to materialize (quota base)
        self._created: dict[str, set[tuple]] = {}
        self._seq = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- tracking ---------------------------------------------------------

    def created_count(self, tenant: str) -> int:
        with self._lock:
            return len(self._created.get(tenant, ()))

    def track(self, spec: ViewSpec, tenant: str) -> None:
        """Adopt a freshly materialized view into the shared index,
        attributing its creation to ``tenant``."""
        with self._lock:
            entry = self._entries.get(spec.key)
            if entry is None:
                entry = _SharedEntry(spec, tenant)
                self._created.setdefault(tenant, set()).add(spec.key)
            self._touch(spec.key, entry)

    def note(self, spec: ViewSpec, tenant: str, hit: bool) -> None:
        """Record one tenant query against ``spec`` (LRU touch + counters)."""
        with self._lock:
            entry = self._entries.get(spec.key)
            if entry is None:
                return
            if hit:
                entry.hits += 1
            else:
                entry.misses += 1
            self._touch(spec.key, entry)

    def _touch(self, key: tuple, entry: _SharedEntry) -> None:
        # Reinsertion keeps the dict iteration order = LRU order.
        self._seq += 1
        entry.last_used = self._seq
        self._entries.pop(key, None)
        self._entries[key] = entry

    def rekey(self, old_key: tuple, new_spec: ViewSpec) -> None:
        """Follow an in-place view revision: the entry (counters, creation
        attribution) moves to the revised spec's key."""
        with self._lock:
            entry = self._entries.pop(old_key, None)
            if entry is None:
                return
            for keys in self._created.values():
                if old_key in keys:
                    keys.discard(old_key)
                    keys.add(new_spec.key)
            entry.spec = new_spec
            self._entries[new_spec.key] = entry
            self._touch(new_spec.key, entry)

    # -- eviction ---------------------------------------------------------

    def evict_overflow(self) -> list[ViewSpec]:
        """Drop cold unpinned views until the index fits ``capacity``.

        Returns the evicted specs (the caller forgets their durable
        records).  Pinned views are *never* evicted — one tenant filling
        the index can therefore not tear down another tenant's
        subscription — so an index full of pins may transiently exceed
        capacity rather than break someone's live stream.  Callers hold
        the service's mutation lock, where subscriptions are added, so
        the pins read here cannot miss one joining a view.
        """
        dropped: list[ViewSpec] = []
        with self._lock:
            if len(self._entries) <= self.capacity:
                return dropped
            pinned = self.subscriptions.keys()
            for key in list(self._entries):  # iteration order = LRU order
                if len(self._entries) <= self.capacity:
                    break
                if key in pinned:
                    continue
                entry = self._entries.pop(key)
                for keys in self._created.values():
                    keys.discard(key)
                self.registry.drop(entry.spec)
                self.evictions += 1
                dropped.append(entry.spec)
        return dropped

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        pinned = self.subscriptions.keys()
        with self._lock:
            hits = sum(e.hits for e in self._entries.values())
            misses = sum(e.misses for e in self._entries.values())
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "pinned": sum(1 for key in self._entries if key in pinned),
                "hits": hits,
                "misses": misses,
                "evictions": self.evictions,
            }
