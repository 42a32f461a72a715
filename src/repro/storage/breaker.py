"""Storage circuit breaker: degrade to the exact in-memory path, loudly.

The catalog is always the source of truth — a storage engine that
starts failing can only cost *pushdown* and *mirror freshness*, never
correctness.  :class:`GuardedBackend` wraps the real backend and makes
that degradation explicit and bounded:

* consecutive engine failures past a threshold **open** the breaker:
  planner hooks (``table_version``/``prefilter``) answer
  ``None``, so every query falls back to the exact in-memory scan, and
  mutation mirroring is skipped with the relation marked **dirty**
  (the WAL upstream keeps logging, so durability is unaffected);
* after ``reset_timeout`` the breaker enters a **half-open** window:
  the next operation first sends a cheap engine probe, and a probe
  success **reseals** — the breaker closes and every dirty relation is
  re-synced from the catalog (mutation replay), a probe failure
  restarts the open window;
* every transition is recorded with the triggering site and exception
  so ``/metrics`` can show *why* the server is degraded, not just that
  it is.

Fault-injection sites (``storage.sync`` … ``storage.probe``) live here,
at the guard, so chaos plans exercise exactly the failure surface the
breaker protects.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Sequence

from repro.faults import plan as faults
from repro.relations.relation import Relation
from repro.storage.backend import Row, StorageBackend, StorageError

#: How many transition records the breaker keeps for /metrics.
TRANSITION_LOG = 32


class CircuitBreaker:
    """Consecutive-failure breaker with a timed half-open probe window.

    States: ``closed`` (normal), ``open`` (shedding), and — derived, not
    stored — ``half_open`` once ``reset_timeout`` has elapsed while
    open.  Deriving half-open from the clock instead of storing it
    means no probe can wedge the breaker in a state nobody resets.
    """

    def __init__(
        self,
        threshold: int = 3,
        reset_timeout: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._open = False
        self._opened_at = 0.0
        self.consecutive_failures = 0
        self.last_failure: dict[str, Any] | None = None
        self.counts = {"failures": 0, "opened": 0, "probes": 0,
                       "resealed": 0, "shed": 0}
        self.transitions: list[dict[str, Any]] = []

    # -- state ------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if not self._open:
            return "closed"
        if self._clock() - self._opened_at >= self.reset_timeout:
            return "half_open"
        return "open"

    def gate(self) -> str:
        """Admission decision: ``pass`` | ``probe`` | ``block``.

        ``block`` additionally counts one shed operation.
        """
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return "pass"
            if state == "half_open":
                self.counts["probes"] += 1
                return "probe"
            self.counts["shed"] += 1
            return "block"

    # -- outcomes ---------------------------------------------------------

    def on_success(self, site: str) -> bool:
        """Record a successful engine operation; True when it resealed."""
        with self._lock:
            self.consecutive_failures = 0
            if not self._open:
                return False
            self._open = False
            self.counts["resealed"] += 1
            self._record("closed", f"probe at {site} succeeded")
            return True

    def on_failure(self, site: str, exc: BaseException) -> None:
        """Record an engine failure; may open (or re-open) the breaker."""
        with self._lock:
            reason = f"{site}: {type(exc).__name__}: {exc}"
            self.counts["failures"] += 1
            self.consecutive_failures += 1
            self.last_failure = {"site": site,
                                 "error": type(exc).__name__,
                                 "detail": str(exc)}
            if self._open:
                # A failed half-open probe restarts the open window.
                self._opened_at = self._clock()
                self._record("open", f"probe failed — {reason}")
            elif self.consecutive_failures >= self.threshold:
                self._open = True
                self._opened_at = self._clock()
                self.counts["opened"] += 1
                self._record(
                    "open",
                    f"{self.consecutive_failures} consecutive failures — "
                    f"{reason}",
                )

    def _record(self, to_state: str, reason: str) -> None:
        self.transitions.append({"to": to_state, "reason": reason})
        del self.transitions[:-TRANSITION_LOG]

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "state": self._state_locked(),
                "threshold": self.threshold,
                "reset_timeout": self.reset_timeout,
                "consecutive_failures": self.consecutive_failures,
                "last_failure": (dict(self.last_failure)
                                 if self.last_failure else None),
                "counts": dict(self.counts),
                "transitions": [dict(t) for t in self.transitions],
            }


class GuardedBackend(StorageBackend):
    """Breaker-guarded proxy in front of the real storage backend.

    Installed by :class:`~repro.storage.binding.CatalogStorage` as
    ``binding.backend``, so both the mutation stream and the planner
    hooks pass through it.  Unknown attributes delegate to the wrapped
    backend — engine-specific surface (``path``, ``_mirrors``, …) stays
    reachable for tests and tools.
    """

    def __init__(self, inner: StorageBackend,
                 breaker: CircuitBreaker | None = None):
        self.inner = inner
        self.breaker = breaker or CircuitBreaker()
        #: Relations whose mirror missed events while the breaker was
        #: open (or whose guarded op failed); resealing re-syncs them.
        self.dirty: set[str] = set()
        #: Set by CatalogStorage: called with the dirty names on reseal.
        self.reseal_hook: Callable[[set[str]], None] | None = None
        self._lock = threading.RLock()
        self._resyncing = False

    # -- identity passthrough ---------------------------------------------

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    @property
    def supports_pushdown(self) -> bool:  # type: ignore[override]
        return self.inner.supports_pushdown

    def __getattr__(self, attr: str) -> Any:
        return getattr(self.inner, attr)

    def __repr__(self) -> str:
        return f"GuardedBackend({self.inner!r}, {self.breaker.state})"

    # -- admission ---------------------------------------------------------

    def _probe(self, site: str) -> bool:
        """Half-open engine probe; reseal on success."""
        try:
            faults.check("storage.probe", site)
            probe = getattr(self.inner, "probe", None)
            if probe is not None:
                probe()
        except Exception as exc:  # noqa: BLE001 - any failure keeps it open
            self.breaker.on_failure(f"storage.probe({site})", exc)
            return False
        self._on_success(site)
        return True

    def _admit(self, site: str) -> bool:
        decision = self.breaker.gate()
        if decision == "pass":
            return True
        if decision == "probe":
            return self._probe(site)
        return False

    def _on_success(self, site: str) -> None:
        self.breaker.on_success(site)
        hook = self.reseal_hook
        if hook is None:
            return
        with self._lock:
            # Any success with the breaker closed flushes the dirty
            # list: the reseal after an outage, and equally the next
            # good op after a transient sub-threshold failure.
            if self._resyncing or not self.dirty:
                return
            if self.breaker.state != "closed":
                return
            dirty, self.dirty = self.dirty, set()
            self._resyncing = True
        try:
            # Mutation replay: re-mirror each dirty relation from the
            # catalog.  Runs through the guarded ops, so a relation that
            # fails again simply goes back on the dirty list.
            hook(dirty)
        finally:
            self._resyncing = False

    # -- guarded mutation stream ------------------------------------------

    def _mutate(self, op: str, key: str, call: Callable[[], None]) -> None:
        site = f"storage.{op}"
        decision = self.breaker.gate()
        if decision == "block":
            with self._lock:
                self.dirty.add(key)
            return
        if decision == "probe":
            with self._lock:
                was_dirty = key in self.dirty
            if not self._probe(site):
                with self._lock:
                    self.dirty.add(key)
                return
            # The probe resealed and replayed every dirty relation from
            # the catalog — which already includes this mutation (the
            # catalog applies before the mirror is called).  Applying it
            # again on top of the fresh sync would double-write.
            if was_dirty:
                return
        try:
            faults.check(site, key)
            call()
        except Exception as exc:  # noqa: BLE001 - degrade, never propagate
            with self._lock:
                self.dirty.add(key)
            self.breaker.on_failure(site, exc)
            return
        self._on_success(site)

    def sync(self, relation: Relation, version: int) -> None:
        self._mutate("sync", relation.name.lower(),
                     lambda: self.inner.sync(relation, version))

    def insert(self, name: str, rows: Sequence[Row], version: int) -> None:
        self._mutate("insert", name.lower(),
                     lambda: self.inner.insert(name, rows, version))

    def delete(self, name: str, rows: Sequence[Row], version: int) -> None:
        self._mutate("delete", name.lower(),
                     lambda: self.inner.delete(name, rows, version))

    def drop(self, name: str) -> None:
        self._mutate("drop", name.lower(), lambda: self.inner.drop(name))

    # -- guarded planner surface ------------------------------------------

    def table_version(self, name: str) -> int | None:
        # The pushdown gate: anything but a closed (or freshly resealed)
        # breaker answers None, and the optimizer never plants a
        # StorageScan — the query takes the exact in-memory path.
        if not self._admit("storage.table_version"):
            return None
        key = name.lower()
        with self._lock:
            if key in self.dirty:
                return None
        return self.inner.table_version(name)

    def prefilter(
        self, name: str, conjuncts: Sequence[Any], version: int
    ) -> list[dict[str, Any]] | None:
        if not self._admit("storage.prefilter"):
            return None
        try:
            faults.check("storage.prefilter", name.lower())
            rows = self.inner.prefilter(name, conjuncts, version)
        except Exception as exc:  # noqa: BLE001 - None = exact fallback
            self.breaker.on_failure("storage.prefilter", exc)
            return None
        self._on_success("storage.prefilter")
        return rows

    def render_prefilter(
        self, name: str, conjuncts: Sequence[Any]
    ) -> tuple[str, tuple[Any, ...]]:
        if self.breaker.state != "closed":
            raise StorageError(
                f"storage breaker {self.breaker.state}: prefilters disabled"
            )
        return self.inner.render_prefilter(name, conjuncts)

    # -- observability -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            dirty = sorted(self.dirty)
        payload = {"breaker": self.breaker.stats(), "dirty": dirty}
        reasons = getattr(self.inner, "blacklist_reasons", None)
        if callable(reasons):
            payload["blacklisted"] = reasons()
        return payload

    def close(self) -> None:
        self.inner.close()
