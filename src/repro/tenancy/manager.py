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

Profile revisions migrate the tenant's live subscriptions, which the
service's :class:`~repro.server.views.SubscriptionTable` records with
their recomposition recipes: when the tenant's moving subscriptions are
the sole holders of the old view, the view is revised *in place* through
:meth:`~repro.server.service.PreferenceService.revise` — the delta
classifies through :func:`~repro.query.revision.classify_revision` and
restarts from the cheapest sound point.  When the old view is shared
(other subscriptions hold it), it must not be disturbed: the new
canonical term materializes separately and the migration delta is the
exact row diff between the two windows.  Either way the subscriptions
are re-keyed and the delta is handed to the delta listeners under the
mutation lock, in one step.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.core.preference import Preference
from repro.query.api import compose_terms
from repro.query.incremental import _diff
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
        self.shared = SharedViewIndex(
            service.views, service.subscriptions, shared_view_capacity
        )
        self.metrics = TenantMetrics()

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
        self._evict()
        return view

    def _evict(self) -> None:
        """Evict cold unpinned shared views past capacity, deciding under
        the mutation lock, where subscriptions are added and re-keyed (a
        view is never dropped under one joining it).  An index within
        capacity does not wait for that lock."""
        if len(self.shared) <= self.shared.capacity:
            return
        with self.service._mutation_lock:
            dropped = self.shared.evict_overflow()
        for spec in dropped:
            self.service._forget_view(spec)

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
        sub_id: int | None = None,
    ) -> ContinuousView:
        """Materialize (or join) the tenant's composed continuous view and
        record a subscription holding it, which pins it against eviction
        while it lives (``sub_id``: the id the server took from the
        service's subscription table; a fresh one otherwise)."""
        tenant = valid_tenant(tenant)
        base = self.service._pref(prefer) if prefer is not None else None
        full = self._composed_pref(tenant, base, term)
        spec = ViewSpec(relation.lower(), full, tuple(groupby), top, ties)
        view, held = self.service._hold(
            spec, sub_id, tenant, base, term,
            limit=self.max_subscriptions_per_tenant,
        )
        self.shared.track(view.spec, tenant)
        if not held:
            self.metrics.record_quota_denial(tenant)
            raise TenancyError(
                f"tenant {tenant!r} is at its subscription quota "
                f"({self.max_subscriptions_per_tenant})"
            )
        self._evict()
        return view

    # -- profile writes + live migration ----------------------------------

    def set_profile(
        self,
        tenant: str,
        name: str,
        prefer: Mapping[str, Any],
        default: bool = False,
    ) -> tuple[TenantProfile, list[dict[str, Any]]]:
        profile = self.profiles.set(tenant, name, prefer, default=default)
        migrations = self._migrate(tenant)
        self.metrics.record_profile(tenant, profile.version)
        return profile, migrations

    def merge_profile(
        self,
        tenant: str,
        terms: Mapping[str, Mapping[str, Any]],
        default: str | None = None,
    ) -> tuple[TenantProfile, list[dict[str, Any]]]:
        profile = self.profiles.merge(tenant, terms, default=default)
        migrations = self._migrate(tenant)
        self.metrics.record_profile(tenant, profile.version)
        return profile, migrations

    def delete_profile(
        self, tenant: str, name: str | None = None
    ) -> tuple[TenantProfile | None, list[dict[str, Any]]]:
        profile = self.profiles.delete(tenant, name)
        migrations = self._migrate(tenant)
        self.metrics.record_profile(
            tenant, profile.version if profile is not None else 0
        )
        return profile, migrations

    def _migrate(self, tenant: str) -> list[dict[str, Any]]:
        """Move the tenant's live subscriptions onto the revised profile's
        composed views; returns one summary per moved group (the
        subscriptions leaving one view for one new term)."""
        groups: dict[tuple, tuple[ViewSpec, ViewSpec, list[int]]] = {}
        for sub in self.service.subscriptions.records():
            if sub.tenant != tenant:
                continue
            try:
                new_pref = self._composed_pref(tenant, sub.base, sub.term)
            except TenancyError:
                # The profile term this subscription composed with is
                # gone and there is no base to fall back to — the old
                # view keeps serving unchanged (deleting a profile must
                # not silently kill a live stream).
                continue
            old = sub.spec
            new_spec = ViewSpec(
                old.relation, new_pref, old.groupby, old.top, old.ties
            )
            if new_spec.key != old.key:
                group = groups.setdefault(
                    (old.key, new_spec.key), (old, new_spec, [])
                )
                group[2].append(sub.id)
        return [
            self._migrate_one(tenant, old, new_spec, ids)
            for old, new_spec, ids in groups.values()
        ]

    def _migrate_one(
        self,
        tenant: str,
        old: ViewSpec,
        new_spec: ViewSpec,
        ids: list[int],
    ) -> dict[str, Any]:
        service = self.service
        with service._mutation_lock:
            view = service.views.get(old)
            if (
                view is not None
                and view.poisoned is None
                and service.views.get(new_spec) is None
                and {s.id for s in service.subscriptions.holding(old.key)}
                <= set(ids)
            ):
                # Nobody else holds the old view: revise it in place,
                # restarting from the classified delta's cheapest sound
                # point (the revision re-keys these subscriptions).
                return service.revise(
                    old.relation, old.pref, new_spec.pref,
                    groupby=old.groupby, top=old.top, ties=old.ties,
                ).summary
        # The old view is shared (or the target already lives): leave it
        # alone, join/materialize the new canonical view, and push the
        # exact window diff as the migration delta.
        new_view = service._materialize(new_spec)
        with service._mutation_lock:
            if service.views.get(new_spec) is not new_view:
                new_view = service._materialize(new_spec)
            start = time.perf_counter_ns()
            old_view = service.views.get(old)
            delta = _diff(
                [] if old_view is None else old_view.rows(), new_view.rows()
            )
            elapsed = time.perf_counter_ns() - start
            service.subscriptions.rekey(ids, new_view.spec)
            if delta:
                service._emit(
                    tuple(ids), delta, new_spec.relation, new_view.version
                )
        self.shared.track(new_view.spec, tenant)
        self._evict()
        return {
            "relation": new_spec.relation,
            "strategy": "rebind",
            "entered": len(delta.entered),
            "exited": len(delta.exited),
            "version": new_view.version,
            "view": new_view.spec.describe(),
            "elapsed_ns": elapsed,
        }

    # -- wire helpers -----------------------------------------------------

    def profile_payload(self, tenant: str) -> dict[str, Any]:
        """The full profile in wire form (:class:`TenancyError` if none)."""
        profile = self.profiles.get(tenant)
        if profile is None:
            raise TenancyError(f"tenant {tenant!r} has no profile")
        return profile.to_dict()

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        counts = Counter(
            s.tenant for s in self.service.subscriptions.records()
        )
        return {
            "profiles": len(self.profiles),
            "subscriptions": sum(
                n for tenant, n in counts.items() if tenant is not None
            ),
            "shared_views": self.shared.stats(),
            "quotas": {
                "max_views_per_tenant": self.max_views_per_tenant,
                "max_subscriptions_per_tenant":
                    self.max_subscriptions_per_tenant,
            },
            "tenants": self.metrics.snapshot(counts),
        }
