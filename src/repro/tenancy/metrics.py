"""Per-tenant serving metrics, bounded for millions of users.

One :class:`TenantMetrics` keeps a slot per *recently active* tenant —
query counts split by answer source (so hit rate is first-class), a
latency series with the same p50/p95/p99 window as the service-wide
metrics, quota denials, and the tenant's current profile version.  Live
subscription counts are not recorded here: :meth:`TenantMetrics.snapshot`
is handed them, read from the service's subscription table.  The slot
table is LRU-bounded: when a new tenant would exceed ``max_tracked``, the
coldest slot folds into an ``evicted`` aggregate instead of growing
without bound — totals stay honest, per-tenant detail covers the working
set.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping

from repro.server.metrics import _LatencySeries


class _TenantSlot:
    __slots__ = (
        "queries", "view_hits", "plan_answers", "composed",
        "quota_denials", "profile_version", "latency",
    )

    def __init__(self) -> None:
        self.queries = 0
        self.view_hits = 0
        self.plan_answers = 0
        self.composed = 0
        self.quota_denials = 0
        self.profile_version = 0
        self.latency = _LatencySeries()

    def to_dict(self, subscriptions: int = 0) -> dict[str, Any]:
        hit_rate = self.view_hits / self.queries if self.queries else 0.0
        return {
            "queries": self.queries,
            "view_hits": self.view_hits,
            "plan_answers": self.plan_answers,
            "view_hit_rate": round(hit_rate, 4),
            "composed": self.composed,
            "subscriptions": subscriptions,
            "quota_denials": self.quota_denials,
            "profile_version": self.profile_version,
            "latency": self.latency.to_dict(),
        }


class TenantMetrics:
    """Bounded per-tenant counters (thread-safe)."""

    def __init__(self, max_tracked: int = 1024):
        if max_tracked < 1:
            raise ValueError("max_tracked must be >= 1")
        self.max_tracked = max_tracked
        self._lock = threading.Lock()
        self._slots: dict[str, _TenantSlot] = {}
        self._evicted_tenants = 0
        self._evicted = _TenantSlot()

    def _slot(self, tenant: str) -> _TenantSlot:
        slot = self._slots.pop(tenant, None)
        if slot is None:
            slot = _TenantSlot()
            while len(self._slots) >= self.max_tracked:
                cold = self._slots.pop(next(iter(self._slots)))
                self._fold(cold)
        self._slots[tenant] = slot  # reinsertion keeps LRU order
        return slot

    def _fold(self, cold: _TenantSlot) -> None:
        self._evicted_tenants += 1
        self._evicted.queries += cold.queries
        self._evicted.view_hits += cold.view_hits
        self._evicted.plan_answers += cold.plan_answers
        self._evicted.composed += cold.composed
        self._evicted.quota_denials += cold.quota_denials

    # -- recording --------------------------------------------------------

    def record_query(
        self, tenant: str, source: str, elapsed_ns: int, composed: bool
    ) -> None:
        with self._lock:
            slot = self._slot(tenant)
            slot.queries += 1
            if source == "view":
                slot.view_hits += 1
            else:
                slot.plan_answers += 1
            if composed:
                slot.composed += 1
            slot.latency.record(elapsed_ns)

    def record_quota_denial(self, tenant: str) -> None:
        with self._lock:
            self._slot(tenant).quota_denials += 1

    def record_profile(self, tenant: str, version: int) -> None:
        with self._lock:
            self._slot(tenant).profile_version = version

    # -- introspection ----------------------------------------------------

    def snapshot(
        self, subscriptions: Mapping[str | None, int] | None = None
    ) -> dict[str, Any]:
        """Every slot rendered, each with its tenant's live subscription
        count from ``subscriptions`` (a subscribing tenant without a slot
        yet is shown too)."""
        held = dict(subscriptions or {})
        with self._lock:
            tenants = {
                t: s.to_dict(held.get(t, 0)) for t, s in self._slots.items()
            }
            for tenant, count in held.items():
                if tenant is not None and tenant not in tenants:
                    tenants[tenant] = _TenantSlot().to_dict(count)
            queries = sum(s.queries for s in self._slots.values())
            hits = sum(s.view_hits for s in self._slots.values())
            queries += self._evicted.queries
            hits += self._evicted.view_hits
            return {
                "tracked": len(self._slots),
                "evicted_tenants": self._evicted_tenants,
                "total_queries": queries,
                "total_view_hits": hits,
                "view_hit_rate": round(hits / queries, 4) if queries else 0.0,
                "tenants": tenants,
            }
