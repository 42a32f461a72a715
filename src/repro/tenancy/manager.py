"""The tenant manager: profiles x composition x shared views, in one seam.

:class:`TenantManager` is the multi-tenant face of one
:class:`~repro.server.service.PreferenceService`.  Per request it

1. resolves the calling tenant's profile term (:class:`~repro.tenancy
   .profiles.ProfileStore`),
2. composes it *over* the submitted base query — ``prio(user_pref,
   base_pref)``, the paper's personalization story (Definition 9: the
   profile dominates, the base term breaks ties;
   :meth:`TenantManager.compose`),
3. rides the service's one ``resolve()`` + ``answer()`` path: the
   composed term's :class:`~repro.server.views.ViewSpec` is of its
   canonical form, and the service asks
   :meth:`TenantManager.seed_view` to materialize that continuous view
   on first sight (subject to
   per-tenant quotas and the LRU-bounded :class:`~repro.tenancy.shared
   .SharedViewIndex>`), so every later tenant with an algebraically
   equivalent term answers from the shared window, and reports each
   answer to :meth:`TenantManager.record`.

Profile revisions migrate the tenant's live subscriptions: when the
tenant is the sole pinner of the old view, the view is revised *in
place* through :meth:`~repro.server.views.ViewRegistry.revise` — the
delta classifies through :func:`~repro.query.revision.classify_revision`
and restarts from the cheapest sound point.  When the old view is shared
(other tenants pinned it), it must not be disturbed: the new canonical
term materializes separately and the migration delta is the exact row
diff between the two windows.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.core.preference import Preference
from repro.engineering.serialization import (
    SerializationError,
    preference_to_dict,
)
from repro.query.api import compose_terms
from repro.query.incremental import BMODelta, _diff
from repro.server.views import ContinuousView, ViewSpec
from repro.tenancy.metrics import TenantMetrics
from repro.tenancy.profiles import (
    ProfileStore,
    TenancyError,
    TenantProfile,
    valid_tenant,
)
from repro.tenancy.shared import SharedViewIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.query.api import PreferenceQuery
    from repro.server.service import (
        PreferenceService,
        QueryAnswer,
        ResolvedQuery,
    )


@dataclass
class Migration:
    """One migrated subscription after a profile revision.

    Shape-compatible with :class:`~repro.server.service.ReviseAnswer`:
    the server re-points subscriptions ``old_key -> new_key``, then
    pushes ``delta`` to them.
    """

    summary: dict[str, Any]
    old_key: tuple
    new_key: tuple
    delta: BMODelta
    view: ContinuousView


class _TenantSub:
    """The recomposition recipe of one tenant subscription."""

    __slots__ = ("spec", "relation", "base", "term", "count")

    def __init__(
        self,
        spec: ViewSpec,
        relation: str,
        base: Preference | None,
        term: str | None,
    ):
        self.spec = spec          # the composed, canonical spec served now
        self.relation = relation
        self.base = base          # the submitted base term (may be None)
        self.term = term          # the profile term name (None = default)
        self.count = 1


class TenantManager:
    """Multi-tenant profiles, composition, and shared-view accounting."""

    def __init__(
        self,
        service: "PreferenceService",
        max_views_per_tenant: int = 8,
        max_subscriptions_per_tenant: int = 16,
        shared_view_capacity: int = 256,
    ):
        self.service = service
        self.max_views_per_tenant = max_views_per_tenant
        self.max_subscriptions_per_tenant = max_subscriptions_per_tenant
        binding = getattr(service.session, "storage", None)
        self.profiles = ProfileStore(binding, dict(service.session.functions))
        self.shared = SharedViewIndex(service.views, shared_view_capacity)
        self.metrics = TenantMetrics()
        self._lock = threading.RLock()
        #: (tenant, view key) -> recomposition recipe + refcount
        self._subs: dict[tuple[str, tuple], _TenantSub] = {}

    # -- composition ------------------------------------------------------

    def compose(
        self,
        q: "PreferenceQuery",
        tenant: str,
        term: str | None = None,
    ) -> tuple["PreferenceQuery", bool]:
        """The query personalized for ``tenant``; also whether a profile
        term was actually composed in."""
        pref = self.profiles.resolve(tenant, term)
        return q.personalize(pref), pref is not None

    def _composed_pref(
        self, tenant: str, base: Preference | None, term: str | None
    ) -> Preference:
        """The tenant's composed term outside a query object."""
        full = compose_terms(self.profiles.resolve(tenant, term), base)
        if full is None:
            raise TenancyError(
                f"tenant {tenant!r} has no applicable profile term and no "
                "base preference was given"
            )
        return full

    # -- queries ----------------------------------------------------------

    def query(
        self,
        tenant: str,
        sql: str | None = None,
        spec: Mapping[str, Any] | None = None,
        term: str | None = None,
    ) -> "QueryAnswer":
        """``service.query(..., tenant=tenant)``, tenant first."""
        return self.service.query(sql, spec, tenant, term)

    def seed_view(self, tenant: str, spec: ViewSpec) -> ContinuousView | None:
        """Materialize the shared view of a canonical term no view holds
        yet, on behalf of ``tenant``.

        There is no sighting threshold — the whole point is that the
        *next* equivalent tenant hits the window.  A tenant over its view
        quota gets ``None``: the query still answers, from a fresh plan,
        and the denial is counted, without evicting anyone else's views.
        """
        if self.shared.created_count(tenant) >= self.max_views_per_tenant:
            self.metrics.record_quota_denial(tenant)
            return None
        view = self.service._materialize(spec)
        self.shared.track(spec, tenant)
        for dropped in self.shared.evict_overflow():
            self.service._forget_view(dropped)
        return view

    def record(
        self, resolved: "ResolvedQuery", answer: "QueryAnswer", hit: bool
    ) -> None:
        """Account one answered tenant query.  ``hit`` is whether it rode
        an *existing* window — the query that paid for a seeding is
        honestly a miss."""
        tenant = resolved.tenant
        assert tenant is not None
        if resolved.view_spec is not None:
            self.shared.note(resolved.view_spec, tenant, hit=hit)
        self.metrics.record_query(
            tenant, "view" if hit else "plan", answer.elapsed_ns,
            resolved.composed,
        )

    # -- subscriptions ----------------------------------------------------

    def subscribe(
        self,
        tenant: str,
        relation: str,
        prefer: Preference | Mapping[str, Any] | None = None,
        groupby: Sequence[str] = (),
        top: int | None = None,
        ties: str = "strict",
        term: str | None = None,
    ) -> ContinuousView:
        """Materialize (or join) the tenant's composed continuous view,
        pinned against eviction for the life of the subscription."""
        tenant = valid_tenant(tenant)
        with self._lock:
            held = sum(
                s.count for (t, _), s in self._subs.items() if t == tenant
            )
            if held >= self.max_subscriptions_per_tenant:
                self.metrics.record_quota_denial(tenant)
                raise TenancyError(
                    f"tenant {tenant!r} is at its subscription quota "
                    f"({self.max_subscriptions_per_tenant})"
                )
        base = self.service._pref(prefer) if prefer is not None else None
        full = self._composed_pref(tenant, base, term)
        spec = ViewSpec(relation.lower(), full, tuple(groupby), top, ties)
        view = self.service._materialize(spec)
        with self._lock:
            self.shared.pin(view.spec, tenant)
            key = (tenant, view.spec.key)
            sub = self._subs.get(key)
            if sub is None:
                self._subs[key] = _TenantSub(
                    view.spec, relation.lower(), base, term
                )
            else:
                sub.count += 1
        self.metrics.record_subscription(tenant, +1)
        for dropped in self.shared.evict_overflow():
            self.service._forget_view(dropped)
        return view

    def release(self, tenant: str, view_key: tuple) -> None:
        """Drop one subscription hold (unsubscribe / disconnect)."""
        with self._lock:
            key = (tenant, view_key)
            sub = self._subs.get(key)
            if sub is None:
                return
            sub.count -= 1
            if sub.count <= 0:
                del self._subs[key]
            self.shared.unpin(view_key, tenant)
        self.metrics.record_subscription(tenant, -1)

    # -- profile writes + live migration ----------------------------------

    def set_profile(
        self,
        tenant: str,
        name: str,
        prefer: Mapping[str, Any],
        default: bool = False,
    ) -> tuple[TenantProfile, list[Migration]]:
        profile = self.profiles.set(tenant, name, prefer, default=default)
        migrations = self._migrate(tenant)
        self.metrics.record_profile(tenant, profile.version)
        return profile, migrations

    def merge_profile(
        self,
        tenant: str,
        terms: Mapping[str, Mapping[str, Any]],
        default: str | None = None,
    ) -> tuple[TenantProfile, list[Migration]]:
        profile = self.profiles.merge(tenant, terms, default=default)
        migrations = self._migrate(tenant)
        self.metrics.record_profile(tenant, profile.version)
        return profile, migrations

    def delete_profile(
        self, tenant: str, name: str | None = None
    ) -> tuple[TenantProfile | None, list[Migration]]:
        profile = self.profiles.delete(tenant, name)
        migrations = self._migrate(tenant)
        self.metrics.record_profile(
            tenant, profile.version if profile is not None else 0
        )
        return profile, migrations

    def _migrate(self, tenant: str) -> list[Migration]:
        """Re-point the tenant's live subscriptions at the revised
        profile's composed views; returns one migration per moved view."""
        with self._lock:
            pending = [
                (key, sub) for (t, key), sub in list(self._subs.items())
                if t == tenant
            ]
        out: list[Migration] = []
        for old_key, sub in pending:
            try:
                new_pref = self._composed_pref(tenant, sub.base, sub.term)
            except TenancyError:
                # The profile term this subscription composed with is
                # gone and there is no base to fall back to — the old
                # view keeps serving unchanged (deleting a profile must
                # not silently kill a live stream).
                continue
            new_spec = ViewSpec(
                sub.relation, new_pref, sub.spec.groupby,
                sub.spec.top, sub.spec.ties,
            )
            if new_spec.key == old_key:
                continue
            migration = self._migrate_one(tenant, old_key, sub, new_spec)
            if migration is not None:
                out.append(migration)
        return out

    def _migrate_one(
        self,
        tenant: str,
        old_key: tuple,
        sub: _TenantSub,
        new_spec: ViewSpec,
    ) -> Migration | None:
        sole = self.shared.is_sole_pinner(old_key, tenant)
        target_exists = self.service.views.get(new_spec) is not None
        if sole and not target_exists:
            # Nobody else subscribes to the old view: revise it in place,
            # restarting from the classified delta's cheapest sound point.
            answer = self.service.revise(
                sub.spec.relation, sub.spec.pref, new_spec.pref,
                groupby=sub.spec.groupby, top=sub.spec.top,
                ties=sub.spec.ties,
            )
            with self._lock:
                self.shared.rekey(old_key, answer.view.spec)
                self._move_sub(tenant, old_key, answer.view.spec, sub)
            return Migration(
                dict(answer.summary), answer.old_key, answer.new_key,
                answer.delta, answer.view,
            )
        # The old view is shared (or the target already lives): leave it
        # alone, join/materialize the new canonical view, and push the
        # exact window diff as the migration delta.
        new_view = self.service._materialize(new_spec)
        old_view = self.service.views.get(sub.spec)
        start = time.perf_counter_ns()
        if old_view is not None:
            delta = _diff(old_view.rows(), new_view.rows())
        else:
            delta = _diff([], new_view.rows())
        elapsed = time.perf_counter_ns() - start
        with self._lock:
            self.shared.unpin(old_key, tenant)
            self.shared.pin(new_view.spec, tenant)
            self._move_sub(tenant, old_key, new_view.spec, sub)
        summary = {
            "relation": new_spec.relation,
            "strategy": "rebind",
            "entered": len(delta.entered),
            "exited": len(delta.exited),
            "version": new_view.version,
            "view": new_view.spec.describe(),
            "elapsed_ns": elapsed,
        }
        for dropped in self.shared.evict_overflow():
            self.service._forget_view(dropped)
        return Migration(
            summary, old_key, new_view.spec.key, delta, new_view
        )

    def _move_sub(
        self,
        tenant: str,
        old_key: tuple,
        new_spec: ViewSpec,
        sub: _TenantSub,
    ) -> None:
        # Callers hold self._lock.
        self._subs.pop((tenant, old_key), None)
        sub.spec = new_spec
        existing = self._subs.get((tenant, new_spec.key))
        if existing is not None:
            existing.count += sub.count
        else:
            self._subs[(tenant, new_spec.key)] = sub

    def rebind_key(self, old_key: tuple, new_spec: ViewSpec) -> None:
        """Follow an externally revised view (the server's ``revise`` op):
        every tenant's pins and subscription records move to the new key."""
        if old_key == new_spec.key:
            return
        with self._lock:
            self.shared.rekey(old_key, new_spec)
            for (tenant, key) in [
                k for k in self._subs if k[1] == old_key
            ]:
                sub = self._subs[(tenant, key)]
                self._move_sub(tenant, old_key, new_spec, sub)

    # -- wire helpers -----------------------------------------------------

    def profile_payload(self, tenant: str) -> dict[str, Any]:
        """The full profile in wire form (:class:`TenancyError` if none)."""
        profile = self.profiles.get(tenant)
        if profile is None:
            raise TenancyError(f"tenant {tenant!r} has no profile")
        return profile.to_dict()

    @staticmethod
    def term_payload(pref: Preference) -> dict[str, Any] | None:
        try:
            return preference_to_dict(pref)
        except SerializationError:
            return None

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            subscriptions = sum(s.count for s in self._subs.values())
        return {
            "profiles": len(self.profiles),
            "subscriptions": subscriptions,
            "shared_views": self.shared.stats(),
            "quotas": {
                "max_views_per_tenant": self.max_views_per_tenant,
                "max_subscriptions_per_tenant":
                    self.max_subscriptions_per_tenant,
            },
            "tenants": self.metrics.snapshot(),
        }
