"""Serving-layer metrics: counters and latency aggregates.

One :class:`ServiceMetrics` instance per :class:`~repro.server.service
.PreferenceService`.  Everything is guarded by one lock and cheap to
record, so the hot query path pays a few dict updates.  ``snapshot()``
renders the whole thing as a JSON-safe dict — the payload of the server's
``metrics`` op (the `/metrics`-style endpoint).
"""

from __future__ import annotations

import threading
import time
from typing import Any


#: Recent samples kept per latency series for percentile estimation.
#: Bounded and overwritten ring-style, so a long-lived server's memory and
#: per-record cost stay O(1); percentiles describe the last WINDOW samples
#: (recency is the point — tail latency *now*, not since boot).
LATENCY_WINDOW = 1024

#: The tail percentiles reported by ``to_dict``.
PERCENTILES = (50, 95, 99)


def _nearest_rank(ordered: list[int], q: float) -> int:
    """Nearest-rank percentile of an already-sorted sample (0 if empty)."""
    if not ordered:
        return 0
    rank = max(0, min(len(ordered) - 1, round(q / 100 * len(ordered)) - 1))
    return ordered[rank]


class _LatencySeries:
    """Count / total / max / last of one latency stream, in nanoseconds,
    plus p50/p95/p99 over a bounded ring of recent samples."""

    __slots__ = ("count", "total_ns", "max_ns", "last_ns", "_ring", "_next")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.max_ns = 0
        self.last_ns = 0
        self._ring: list[int] = []
        self._next = 0

    def record(self, elapsed_ns: int) -> None:
        self.count += 1
        self.total_ns += elapsed_ns
        self.last_ns = elapsed_ns
        if elapsed_ns > self.max_ns:
            self.max_ns = elapsed_ns
        if len(self._ring) < LATENCY_WINDOW:
            self._ring.append(elapsed_ns)
        else:
            self._ring[self._next] = elapsed_ns
            self._next = (self._next + 1) % LATENCY_WINDOW

    def percentile(self, q: float) -> int:
        """Nearest-rank percentile over the recent-sample window (0 when
        nothing has been recorded)."""
        return _nearest_rank(sorted(self._ring), q)

    def to_dict(self) -> dict[str, Any]:
        mean = self.total_ns / self.count if self.count else 0.0
        ordered = sorted(self._ring)  # sorted once for all percentiles
        out = {
            "count": self.count,
            "total_ns": self.total_ns,
            "mean_ns": round(mean),
            "max_ns": self.max_ns,
            "last_ns": self.last_ns,
            "window": len(ordered),
        }
        for q in PERCENTILES:
            out[f"p{q}_ns"] = _nearest_rank(ordered, q)
        return out


class ServiceMetrics:
    """Thread-safe counters for the preference service.

    Tracked dimensions:

    * ``queries`` — total queries answered, split into ``from_view``
      (materialized continuous view hits) and ``planned`` (fresh
      optimizer runs); ``inline`` counts the view hits answered on the
      server's event loop, without a worker-pool hand-off,
    * ``mutations`` — inserts / deletes applied,
    * ``revisions`` — preference revisions applied to continuous views,
      with the ``full`` fallbacks counted separately,
    * latency series for ``query_view`` / ``query_planned`` /
      ``view_refresh`` (per-mutation view maintenance) / ``revision``
      (preference swaps on views) — the honest
      view-refresh numbers come straight from the generalized
      :class:`~repro.query.incremental.IncrementalBMO` maintenance work;
      each series reports p50/p95/p99 over a bounded ring of the last
      :data:`LATENCY_WINDOW` samples, so tail latency under load is
      visible, not just count/mean/max.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.time()
        self.queries_total = 0
        self.queries_from_view = 0
        self.queries_planned = 0
        self.queries_inline = 0
        self.inserts = 0
        self.deletes = 0
        self.rows_inserted = 0
        self.rows_deleted = 0
        self.deltas_pushed = 0
        self.errors = 0
        #: Honest load shedding, by reason: requests refused past the
        #: admission watermark ("overloaded"), expired before/after
        #: executor dispatch ("deadline"), and subscribers disconnected
        #: for not draining their socket ("slow_subscriber").
        self.shed: dict[str, int] = {}
        #: Continuous views quarantined by a refresh failure.
        self.views_poisoned = 0
        self.views_healed = 0
        self.revisions = 0
        self.revisions_full = 0
        self.checkpoints = 0
        #: Set once at startup when durable storage recovered state.
        self.recovery: dict[str, Any] | None = None
        self._latency: dict[str, _LatencySeries] = {
            "query_view": _LatencySeries(),
            "query_planned": _LatencySeries(),
            "view_refresh": _LatencySeries(),
            "revision": _LatencySeries(),
        }

    # -- recording --------------------------------------------------------------

    def record_query(
        self, source: str, elapsed_ns: int, inline: bool = False
    ) -> None:
        """Record one answered query; ``source`` is "view" or "plan",
        ``inline`` marks a view hit answered without the worker pool."""
        with self._lock:
            self.queries_total += 1
            if source == "view":
                self.queries_from_view += 1
                self.queries_inline += inline
                self._latency["query_view"].record(elapsed_ns)
            else:
                self.queries_planned += 1
                self._latency["query_planned"].record(elapsed_ns)

    def record_mutation(self, kind: str, n_rows: int) -> None:
        with self._lock:
            if kind == "insert":
                self.inserts += 1
                self.rows_inserted += n_rows
            else:
                self.deletes += 1
                self.rows_deleted += n_rows

    def record_view_refresh(self, elapsed_ns: int) -> None:
        with self._lock:
            self._latency["view_refresh"].record(elapsed_ns)

    def record_revision(self, strategy: str, elapsed_ns: int) -> None:
        """Record one view revision; ``strategy`` is the restart actually
        executed — ``full`` counts as a fallback (``revisions_full``), so
        the speedup story stays checkable from `/metrics` alone."""
        with self._lock:
            self.revisions += 1
            if strategy == "full":
                self.revisions_full += 1
            self._latency["revision"].record(elapsed_ns)

    def record_delta_push(self, n: int = 1) -> None:
        with self._lock:
            self.deltas_pushed += n

    def record_checkpoint(self) -> None:
        with self._lock:
            self.checkpoints += 1

    def record_recovery(self, info: dict[str, Any]) -> None:
        """Record what durable-storage recovery restored at startup."""
        with self._lock:
            self.recovery = dict(info)

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record_shed(self, reason: str) -> None:
        """Count one shed request/connection under its reason."""
        with self._lock:
            self.shed[reason] = self.shed.get(reason, 0) + 1

    def record_view_poisoned(self) -> None:
        with self._lock:
            self.views_poisoned += 1

    def record_view_healed(self) -> None:
        with self._lock:
            self.views_healed += 1

    # -- reporting --------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-safe point-in-time rendering of every counter."""
        with self._lock:
            uptime = max(time.time() - self._started, 1e-9)
            return {
                "uptime_seconds": round(uptime, 3),
                "qps": round(self.queries_total / uptime, 3),
                "queries": {
                    "total": self.queries_total,
                    "from_view": self.queries_from_view,
                    "planned": self.queries_planned,
                    "inline": self.queries_inline,
                },
                "mutations": {
                    "inserts": self.inserts,
                    "deletes": self.deletes,
                    "rows_inserted": self.rows_inserted,
                    "rows_deleted": self.rows_deleted,
                },
                "deltas_pushed": self.deltas_pushed,
                "errors": self.errors,
                "shed": dict(self.shed),
                "views_poisoned": self.views_poisoned,
                "views_healed": self.views_healed,
                "revisions": {
                    "total": self.revisions,
                    "full_fallbacks": self.revisions_full,
                },
                "checkpoints": self.checkpoints,
                "recovery": dict(self.recovery) if self.recovery else None,
                "latency": {
                    name: series.to_dict()
                    for name, series in self._latency.items()
                },
            }
