"""The thread-safe preference service: queries, mutations, views, metrics.

:class:`PreferenceService` is the serving layer's engine room.  It wraps
one shared :class:`~repro.session.Session` (thread-safe plan and column
caches) and adds everything a long-running server needs:

* **Queries** — Preference SQL text or a JSON-safe *spec* dict (preference
  terms in the :mod:`repro.engineering.serialization` wire format), both
  funnelling through the one planning pipeline every front end shares.
* **Mutations** — :meth:`insert` / :meth:`delete` apply versioned catalog
  mutations, invalidate exactly the touched relation's cached plans and
  column stores, refresh continuous views, and fan the resulting BMO
  enter/exit deltas out to delta listeners, addressed to the
  subscriptions of :attr:`subscriptions` that hold each view.
* **Continuous views** — repeat view-eligible queries auto-materialize
  (after ``auto_view_threshold`` sightings) into
  :class:`~repro.server.views.ContinuousView`\\ s and are then answered
  from the maintained window instead of re-planning; results are identical
  to a fresh plan execution.
* **A worker pool** — CPU-bound winnows run on :attr:`executor` threads so
  the asyncio front end (:mod:`repro.server.server`) never blocks its
  event loop.  By default this is the process-global
  :func:`shared_executor`, one worker per usable CPU, so every service
  in the process queues on one worker set instead of oversubscribing the
  machine with a pool each.

The query path is two steps: :meth:`PreferenceService.resolve` (build,
personalize, find the view key — cheap and pure) and
:meth:`PreferenceService.answer`.  The service is synchronous and safe to
call from any thread; the asyncio server resolves on its event loop,
answers there too when :meth:`PreferenceService.answer_resident` can, and
wraps everything else in ``run_in_executor``.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

# repro.psql and repro.analysis import repro.session / repro.query.api
# back, so those two load them lazily, inside the first query that needs
# them — and two first queries on two executor threads then meet inside a
# half-initialized module (one is refused "cannot import name 'parse'").
# Importing both packages here, after session and api are complete and
# before any worker thread exists, leaves the lazy imports nothing to do.
from repro.analysis.constraints import constraint_registry
from repro.analysis.diagnostics import DiagnosticError
from repro.core.base_numerical import ScorePreference
from repro.core.preference import Preference, Row
from repro.engineering.serialization import (
    SerializationError,
    preference_from_dict,
    preference_to_dict,
)
from repro.query.api import PreferenceQuery
from repro.query.incremental import BMODelta
from repro.relations.catalog import Catalog
from repro.server.metrics import ServiceMetrics
from repro.psql.ast import Comparison
from repro.psql.translate import translate_where
from repro.server.views import (
    ContinuousView,
    Subscription,
    SubscriptionTable,
    ViewError,
    ViewRegistry,
    ViewSpec,
)
from repro.session import MutationEvent, Session
from repro.tenancy.profiles import valid_tenant

#: Spec/wire comparison operators accepted by ``where`` triples.
_SPEC_OPS = ("=", "<>", "!=", "<", "<=", ">", ">=")

#: Cap on the repeat-query sighting counter: one-off view-shaped specs
#: (e.g. per-user AROUND targets) must not accumulate forever.
_SEEN_SPECS_CAP = 4096

_executor: ThreadPoolExecutor | None = None
_executor_lock = threading.Lock()


def shared_executor() -> ThreadPoolExecutor:
    """The process-global worker pool services share by default.

    One pool, one worker per CPU the process may run on (its affinity
    mask where the platform has one, else the machine's cores), lazily
    created, so concurrent queries of every :class:`PreferenceService`
    in the process queue on one set of workers.  Never shut down by
    library code (interpreter exit joins it); a pool shut down from
    outside is replaced.
    """
    global _executor
    with _executor_lock:
        if _executor is None or getattr(_executor, "_shutdown", False):
            if hasattr(os, "sched_getaffinity"):
                cores = len(os.sched_getaffinity(0))
            else:
                cores = os.cpu_count()
            _executor = ThreadPoolExecutor(
                max_workers=cores or 1,
                thread_name_prefix="prefserve-shared",
            )
        return _executor


class ServiceError(ValueError):
    """A request the service cannot honor (bad spec, unknown relation...).

    Protocol-visible: the server maps these to error responses instead of
    dropping the connection.
    """


#: A delta listener: called as ``(recipients, delta, relation, version)``
#: for every mutation, view revision or profile migration that visibly
#: changed a subscribed window — or with a
#: :class:`~repro.server.views.ViewError` when a refresh poisoned the view
#: (subscribers are told the stream broke instead of going silent).
#: ``recipients`` are the subscription ids the delta is for, resolved
#: from :attr:`PreferenceService.subscriptions` when it was emitted; it
#: is called under the mutation lock, so deltas arrive in commit order.
DeltaListener = Callable[[tuple, "BMODelta | ViewError", str, int], None]


@dataclass(frozen=True)
class ResolvedQuery:
    """One request after :meth:`PreferenceService.resolve`: everything the
    answer step needs, computed once."""

    query: PreferenceQuery  # built and, for a tenant, personalized
    relation: str
    #: The continuous view that could answer it (None: not view-shaped).
    view_spec: ViewSpec | None
    tenant: str | None = None
    #: Whether a profile term was composed in (tenant metrics).
    composed: bool = False


@dataclass(frozen=True)
class QueryAnswer:
    """One answered query: the rows, where they came from, and the cost."""

    rows: list[Row]
    source: str  # "view" | "plan"
    elapsed_ns: int
    relation: str


@dataclass(frozen=True)
class ReviseAnswer:
    """One executed view revision: ``summary`` is the JSON-safe response
    payload.  The delta itself went to the delta listeners, addressed to
    the view's subscriptions, inside the revision's mutation-lock step."""

    summary: dict[str, Any]


class PreferenceService:
    """A concurrent preference query service over one shared catalog."""

    def __init__(
        self,
        catalog: Session | Catalog | Mapping[str, Any] | None = None,
        functions: Mapping[str, Callable[..., Any]] | None = None,
        auto_view_threshold: int | None = 2,
        max_auto_views: int = 64,
        max_workers: int | None = None,
        max_views_per_tenant: int = 8,
        max_subscriptions_per_tenant: int = 16,
        shared_view_capacity: int = 256,
    ):
        if isinstance(catalog, Session):
            self.session = catalog
            for name, fn in (functions or {}).items():
                self.session.register_function(name, fn)
        else:
            self.session = Session(catalog, functions)
        self.views = ViewRegistry()
        #: Every live subscription, recorded once (see
        #: :class:`~repro.server.views.SubscriptionTable`).
        self.subscriptions = SubscriptionTable()
        self.metrics = ServiceMetrics()
        #: Repeat view-eligible queries materialize after this many
        #: sightings; ``None`` disables auto-materialization.
        self.auto_view_threshold = auto_view_threshold
        #: Ceiling on the view registry before auto-materialization stops.
        #: A view holds its window and a reference to the catalog's
        #: snapshot, so memory is not what this bounds: every mutation
        #: refreshes every view of its relation, and that fan-out must
        #: stay bounded.  Explicit ``materialize``/``subscribe`` are
        #: deliberate capacity decisions and are not capped.
        self.max_auto_views = max_auto_views
        self._seen_specs: dict[tuple, int] = {}
        self._seen_lock = threading.Lock()
        self._delta_listeners: list[DeltaListener] = []
        # The session's mutation lock, shared: mutations, hook delivery,
        # and view seeding all serialize on this one lock, so a view is
        # never seeded from a snapshot that a concurrent mutation
        # straddles and no lock-order inversion can arise between the
        # session's direct mutation path and the service's.
        self._mutation_lock = self.session.mutation_lock
        self._mutation_hook = self.session.on_mutation(self._on_mutation)
        # max_workers=None adopts the process-global shared executor, so
        # every service in the process shares one core-sized worker set.
        # An explicit max_workers gets a private pool (and close() then
        # owns its shutdown).
        if max_workers is None:
            self.executor = shared_executor()
            self._owns_executor = False
        else:
            self.executor = ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="prefserve"
            )
            self._owns_executor = True
        # Durable storage: when the session recovered a catalog from
        # snapshot + WAL, bring its recorded continuous views back to
        # life and surface the recovery facts in /metrics.
        binding = getattr(self.session, "storage", None)
        self.recovery: dict[str, Any] | None = (
            dict(binding.recovery) if binding is not None
            and binding.recovery is not None else None
        )
        rematerialized = self._recover_views()
        # The multi-tenant layer: profiles (recovered from the same
        # snapshot+WAL path), per-query composition, shared canonical
        # views.  Constructed after view recovery so recovered profiles
        # are immediately resolvable.
        from repro.tenancy.manager import TenantManager

        self.tenancy = TenantManager(
            self,
            max_views_per_tenant=max_views_per_tenant,
            max_subscriptions_per_tenant=max_subscriptions_per_tenant,
            shared_view_capacity=shared_view_capacity,
        )
        if self.recovery is not None:
            self.recovery["views_rematerialized"] = rematerialized
            self.recovery["profiles"] = len(self.tenancy.profiles)
            self.metrics.record_recovery(self.recovery)

    def close(self) -> None:
        """Detach from the session and shut down the worker pool if this
        service owns one (idempotent).  A shared session keeps working
        after close — mutations just stop maintaining this service's
        views; the engine-wide shared executor is never shut down."""
        self.session.off_mutation(self._mutation_hook)
        self._delta_listeners.clear()
        if self._owns_executor:
            self.executor.shutdown(wait=False, cancel_futures=True)

    # -- query building ---------------------------------------------------------

    def build_query(
        self, sql: str | None = None, spec: Mapping[str, Any] | None = None
    ) -> PreferenceQuery:
        """A :class:`PreferenceQuery` from SQL text or a spec dict.

        Exactly one of ``sql`` / ``spec`` must be given.  The spec format
        is JSON-safe end to end::

            {"relation": "car",
             "where": [["make", "=", "Opel"]],        # or {"make": "Opel"}
             "prefer": {"type": "around", "attribute": "price", "z": 40000},
             "cascade": [...],                        # lower-priority stages
             "groupby": ["category"],
             "top": 5, "ties": "all",
             "but_only": [["distance", "price", "<=", 2000]],
             "order_by": [["price", false]], "select": [...], "limit": 10}

        Preference dicts use the :mod:`repro.engineering.serialization`
        format; SCORE / rank(F) function names resolve against the
        session's function registry.
        """
        if (sql is None) == (spec is None):
            raise ServiceError("pass exactly one of sql= or spec=")
        try:
            if sql is not None:
                return self.session.sql_query(sql)
            return self._query_from_spec(spec or {})
        except ServiceError:
            raise
        except DiagnosticError as exc:
            # The static analyzer rejected the query at build time; keep
            # the PQ code + structured message intact for clients.
            raise ServiceError(f"invalid query: {exc}") from exc
        except Exception as exc:
            raise ServiceError(f"bad query: {exc}") from exc

    def _query_from_spec(self, spec: Mapping[str, Any]) -> PreferenceQuery:
        known = {
            "relation", "where", "prefer", "cascade", "groupby", "top",
            "ties", "but_only", "order_by", "select", "limit",
        }
        unknown = sorted(set(spec) - known)
        if unknown:
            raise ServiceError(
                f"unknown spec field(s) {unknown}; valid fields: "
                f"{sorted(known)}"
            )
        relation = spec.get("relation")
        if not isinstance(relation, str) or not relation:
            raise ServiceError("spec needs a 'relation' name")
        q = self.session.query(relation)
        for expr in self._where_asts(spec.get("where")):
            q = q.where(expr)
        if "prefer" in spec:
            q = q.prefer(self._pref(spec["prefer"]))
        for stage in spec.get("cascade", ()):
            q = q.cascade(self._pref(stage))
        if spec.get("groupby"):
            q = q.groupby(*spec["groupby"])
        if spec.get("but_only"):
            q = q.but_only(*(tuple(c) for c in spec["but_only"]))
        if spec.get("top") is not None:
            q = q.top(int(spec["top"]), ties=spec.get("ties", "strict"))
        if spec.get("order_by"):
            keys = [
                (k, False) if isinstance(k, str) else (k[0], bool(k[1]))
                for k in spec["order_by"]
            ]
            q = q.order_by(*keys)
        if spec.get("select"):
            q = q.select(*spec["select"])
        if spec.get("limit") is not None:
            q = q.limit(int(spec["limit"]))
        return q

    def _pref(self, data: Any) -> Preference:
        if isinstance(data, Preference):
            return data
        if not isinstance(data, Mapping):
            raise ServiceError(
                f"preference must be a serialized dict, got {data!r}"
            )
        return preference_from_dict(dict(data), dict(self.session.functions))

    def _where_asts(self, where: Any) -> list[Any]:
        if where is None:
            return []
        if isinstance(where, Mapping):
            return [Comparison(a, "=", v) for a, v in where.items()]
        out = []
        for triple in where:
            if not (isinstance(triple, Sequence) and len(triple) == 3):
                raise ServiceError(
                    f"where entries are [attribute, op, value], got {triple!r}"
                )
            attribute, op, value = triple
            if op not in _SPEC_OPS:
                raise ServiceError(f"unknown where operator {op!r}")
            out.append(Comparison(attribute, "<>" if op == "!=" else op, value))
        return out

    # -- queries ----------------------------------------------------------------

    def resolve(
        self,
        sql: str | None = None,
        spec: Mapping[str, Any] | None = None,
        tenant: str | None = None,
        term: str | None = None,
    ) -> ResolvedQuery:
        """The first half of every query: build it, personalize it, and
        find the continuous view that could answer it.

        With ``tenant``, the tenant's profile term (``term`` names one;
        default otherwise) composes *over* the base query and the
        canonicalized result shares continuous views across equivalent
        tenants (see :class:`~repro.tenancy.manager.TenantManager`).

        Pure and cheap — nothing is seeded, planned or executed, and the
        only locks taken guard a dict update — so the server runs it on
        its event loop.
        """
        q = self.build_query(sql, spec)
        if tenant is None:
            return self._resolved(q)
        tenant = valid_tenant(tenant)
        q, composed = self.tenancy.compose(q, tenant, term)
        return self._resolved(q, tenant, composed)

    def _resolved(
        self,
        q: PreferenceQuery,
        tenant: str | None = None,
        composed: bool = False,
    ) -> ResolvedQuery:
        relation = self._relation_of(q)
        return ResolvedQuery(
            q, relation, self._view_spec_of(q, relation), tenant, composed
        )

    def query(
        self,
        sql: str | None = None,
        spec: Mapping[str, Any] | None = None,
        tenant: str | None = None,
        term: str | None = None,
    ) -> QueryAnswer:
        """Answer one query, from a current continuous view when possible:
        :meth:`resolve` + :meth:`answer`.

        View answers apply the query's presentation clauses (order_by /
        select / limit) on top of the maintained window and are identical,
        row for row, to a fresh plan execution.
        """
        return self.answer(self.resolve(sql, spec, tenant, term))

    def answer_resident(self, resolved: ResolvedQuery) -> QueryAnswer | None:
        """The answer, if a registered view holds it *right now* — healthy,
        current, and with its lock free; ``None`` otherwise, and the
        caller takes :meth:`answer`.

        Never waits, seeds or plans (prefcheck PC005 keeps it so): this
        is what the server runs on its event loop.
        """
        start = time.perf_counter_ns()
        spec = resolved.view_spec
        if spec is None:
            return None
        view = self.views.get(spec)
        if view is None:
            return None
        rows = view.rows_if_free(
            spec.key, self.session.catalog.version(resolved.relation)
        )
        if rows is None:
            return None
        return self._view_answer(resolved, rows, start, hit=True, inline=True)

    def answer(
        self, q: PreferenceQuery | ResolvedQuery, auto_view: bool = True
    ) -> QueryAnswer:
        """Answer one resolved query (a bare built query is resolved
        as anonymous first).

        A view-shaped query nobody holds a view for may materialize one
        on the way: a tenant's on first sight, within its quota
        (:meth:`TenantManager.seed_view`); an anonymous one after
        ``auto_view_threshold`` sightings, which ``auto_view=False``
        switches off.
        """
        start = time.perf_counter_ns()
        resolved = q if isinstance(q, ResolvedQuery) else self._resolved(q)
        spec = resolved.view_spec
        if spec is not None:
            view = self.views.get(spec)
            seeded = view is None
            if view is None:
                view = self._first_sight(resolved, spec, auto_view)
            rows = None if view is None else view.rows_at(
                spec.key, self.session.catalog.version(resolved.relation)
            )
            if rows is not None:
                return self._view_answer(resolved, rows, start, not seeded)
        try:
            result = resolved.query.run()
        except ServiceError:
            raise
        except Exception as exc:
            self.metrics.record_error()
            raise ServiceError(f"query failed: {exc}") from exc
        rows = result.rows() if not isinstance(result, list) else result
        elapsed = time.perf_counter_ns() - start
        self.metrics.record_query("plan", elapsed)
        answer = QueryAnswer(rows, "plan", elapsed, resolved.relation)
        if resolved.tenant is not None:
            self.tenancy.record(resolved, answer, hit=False)
        return answer

    def _view_answer(
        self,
        resolved: ResolvedQuery,
        rows: list[Row],
        start: int,
        hit: bool,
        inline: bool = False,
    ) -> QueryAnswer:
        """Present view rows as the answer and account for it."""
        try:
            rows = self._present(rows, resolved.query)
        except Exception as exc:
            # Same error contract as the plan path (e.g. an unknown
            # order_by/select attribute is a bad request either way).
            self.metrics.record_error()
            raise ServiceError(f"query failed: {exc}") from exc
        elapsed = time.perf_counter_ns() - start
        self.metrics.record_query("view", elapsed, inline)
        answer = QueryAnswer(rows, "view", elapsed, resolved.relation)
        if resolved.tenant is not None:
            self.tenancy.record(resolved, answer, hit)
        return answer

    def _first_sight(
        self, resolved: ResolvedQuery, spec: ViewSpec, auto_view: bool
    ) -> ContinuousView | None:
        """Materialize the missing view of ``spec`` if policy says so."""
        if resolved.tenant is not None:
            return self.tenancy.seed_view(resolved.tenant, spec)
        if (
            not auto_view
            or self.auto_view_threshold is None
            or len(self.views) >= self.max_auto_views
        ):
            return None
        with self._seen_lock:
            seen = self._seen_specs.pop(spec.key, 0) + 1
            if seen < self.auto_view_threshold:
                # Reinsertion keeps the counter recency-ordered; when
                # full, the coldest sighting goes (bounded memory
                # under an endless stream of one-off specs).
                if len(self._seen_specs) >= _SEEN_SPECS_CAP:
                    self._seen_specs.pop(next(iter(self._seen_specs)))
                self._seen_specs[spec.key] = seen
                return None
        return self._materialize(spec)

    def explain(
        self,
        sql: str | None = None,
        spec: Mapping[str, Any] | None = None,
        tenant: str | None = None,
        term: str | None = None,
    ) -> str:
        """The plan text, annotated with the view that would answer it."""
        resolved = self.resolve(sql, spec, tenant, term)
        try:
            text = resolved.query.explain()
        except Exception as exc:
            raise ServiceError(f"explain failed: {exc}") from exc
        if resolved.view_spec is not None:
            view = self.views.get(resolved.view_spec)
            if view is not None and self._is_current(view):
                text += (
                    f"\nanswered from view: {view.spec.describe()} "
                    f"(version {view.version}, {view.refreshes} refreshes)"
                )
        return text

    def _relation_of(self, q: PreferenceQuery) -> str:
        kind, payload = q._source
        if kind != "catalog":
            raise ServiceError("service queries run over catalog relations")
        return payload.lower()

    def _is_current(self, view: ContinuousView) -> bool:
        # A poisoned view is never current — queries fall back to exact
        # planning until an explicit materialize/subscribe heals it.
        return (
            view.poisoned is None
            and view.version
            == self.session.catalog.version(view.spec.relation)
        )

    def _view_spec_of(
        self, q: PreferenceQuery, relation: str
    ) -> ViewSpec | None:
        """The view that could answer ``q``, or None if not view-shaped.

        View-eligible queries have a preference term over the whole
        relation: no hard WHERE filters, no BUT ONLY supervision, no
        forced algorithm, rewriter untouched.  Presentation
        clauses are fine — they are applied on top of the window.
        """
        pref = q.preference
        if pref is None or q._wheres or q._quality:
            return None
        if q._algorithm is not None or not q._use_rewriter:
            return None
        if q._top is not None and not isinstance(pref, ScorePreference):
            return None
        if q._top is not None and q._groupby:
            # The planner evaluates top-k globally and ignores grouping; a
            # view would maintain per-group cuts and answer differently.
            return None
        return ViewSpec(
            relation, pref, q._groupby, q._top,
            q._top_ties if q._top is not None else "strict",
        )

    def _present(self, rows: list[Row], q: PreferenceQuery) -> list[Row]:
        """Apply presentation clauses (order_by / select / limit) to view
        rows — the same operators the plan applies above the winnow.
        ``rows`` is the view's own snapshot copy, handed on as is."""
        for attribute, descending in reversed(q._order_by):
            rows = sorted(
                rows, key=lambda r: r[attribute], reverse=descending
            )
        if q._select is not None:
            rows = [{a: r[a] for a in q._select} for r in rows]
        if q._limit is not None:
            rows = rows[: q._limit]
        return rows

    # -- views ------------------------------------------------------------------

    def materialize(
        self,
        relation: str,
        pref: Preference | Mapping[str, Any],
        groupby: Sequence[str] = (),
        top: int | None = None,
        ties: str = "strict",
    ) -> ContinuousView:
        """Materialize (or fetch) a continuous view for a standing query."""
        spec = ViewSpec(
            relation.lower(), self._pref(pref), tuple(groupby), top, ties
        )
        return self._materialize(spec)

    def subscribe(
        self,
        relation: str,
        pref: Preference | Mapping[str, Any],
        groupby: Sequence[str] = (),
        top: int | None = None,
        ties: str = "strict",
        sub_id: int | None = None,
    ) -> ContinuousView:
        """Materialize (or join) a continuous view and record one
        anonymous subscription holding it (``sub_id``: the id the server
        took from :attr:`subscriptions`; a fresh one otherwise)."""
        spec = ViewSpec(
            relation.lower(), self._pref(pref), tuple(groupby), top, ties
        )
        return self._hold(spec, sub_id)[0]

    def _hold(
        self,
        spec: ViewSpec,
        sub_id: int | None,
        tenant: str | None = None,
        base: Preference | None = None,
        term: str | None = None,
        limit: int | None = None,
    ) -> tuple[ContinuousView, bool]:
        """The view of ``spec``, and whether a subscription holding it was
        recorded (``False``: the tenant is at its ``limit``).

        The record is added under the mutation lock, where views are
        re-keyed and evicted, so it holds the view it names from the
        first delta on.  A view evicted or revised away while it seeded
        outside the lock is seeded again inside it.
        """
        view = self._materialize(spec)
        with self._mutation_lock:
            if self.views.get(spec) is not view:
                view = self._materialize(spec)
            if sub_id is None:
                sub_id = self.subscriptions.new_id()
            sub = Subscription(sub_id, view.spec, tenant, base, term)
            return view, self.subscriptions.add(sub, limit)

    def _snapshot(self, relation: str) -> tuple[Any, int]:
        try:
            rel = self.session.catalog.get(relation)
        except Exception as exc:
            raise ServiceError(str(exc)) from exc
        return rel, self.session.catalog.version(relation)

    def _materialize(self, spec: ViewSpec) -> ContinuousView:
        view = self._materialize_view(spec)
        self._record_view(view.spec)
        return view

    def _materialize_view(self, spec: ViewSpec) -> ContinuousView:
        # Seeding is a full winnow over the snapshot, so it runs *outside*
        # the mutation lock (mutations never stall on a 50k-row seed);
        # adoption re-checks the version and reseeds if the catalog moved.
        # A poisoned view under the same key is *replaced* by the fresh
        # seed — this is the heal path: subscriptions are keyed on the
        # spec, so subscribers resume without re-subscribing.
        current = self.views.get(spec)
        healing = current is not None and current.poisoned is not None
        for _ in range(3):
            with self._mutation_lock:
                existing = self.views.get(spec)
                if existing is not None and existing.poisoned is None:
                    return existing
                rel, version = self._snapshot(spec.relation)
            view = ContinuousView(spec)
            view.seed(rel, version)
            with self._mutation_lock:
                if self.session.catalog.version(spec.relation) == version:
                    adopted = self.views.adopt(view)
                    if healing and adopted.poisoned is None:
                        self.metrics.record_view_healed()
                    return adopted
        # Constant churn fallback: seed under the lock, guaranteed current.
        with self._mutation_lock:
            rel, version = self._snapshot(spec.relation)
            registered = self.views.register(spec, rel, version)
            if healing and registered.poisoned is None:
                self.metrics.record_view_healed()
            return registered

    def revise(
        self,
        relation: str,
        pref: Preference | Mapping[str, Any],
        to: Preference | Mapping[str, Any],
        groupby: Sequence[str] = (),
        top: int | None = None,
        ties: str = "strict",
    ) -> ReviseAnswer:
        """Revise the registered view for ``(relation, pref, ...)`` to the
        preference ``to`` without recomputing from the base relation when
        the delta's classification allows it.

        Runs under the mutation lock, and in the same step re-keys the
        view's subscriptions and hands the revision delta to the delta
        listeners, addressed to them — so every subscriber sees one
        linear stream of data deltas and revision deltas that reconciles
        to the batch answer at every version.  Raises
        :class:`ServiceError` when no such view is registered (revision
        is a view operation; materialize first).
        """
        old_pref = self._pref(pref)
        new_pref = self._pref(to)
        spec = ViewSpec(
            relation.lower(), old_pref, tuple(groupby), top, ties
        )
        start = time.perf_counter_ns()
        with self._mutation_lock:
            view = self.views.get(spec)
            if view is None:
                raise ServiceError(
                    f"no continuous view for {spec.describe()}; "
                    "materialize or subscribe first"
                )
            if view.poisoned is not None:
                raise ServiceError(
                    f"view {spec.describe()} is quarantined "
                    f"({view.poisoned}); materialize or subscribe again "
                    "to heal it before revising"
                )
            constraints = self._constraints_for(spec.relation, old_pref)
            old_key = view.spec.key
            delta, revision, strategy = self.views.revise(
                view, new_pref, constraints=constraints
            )
            version = view.version
            elapsed = time.perf_counter_ns() - start
            if old_key != view.spec.key:
                self._forget_view(spec)
                self._record_view(view.spec)
            holders = [s.id for s in self.subscriptions.holding(old_key)]
            self.subscriptions.rekey(holders, view.spec)
            self.tenancy.shared.rekey(old_key, view.spec)
            # Emitted last, so the subscribers' push leaves no work
            # between it and the reviser's answer.
            if delta:
                self._emit(tuple(holders), delta, spec.relation, version)
        self.metrics.record_revision(strategy, elapsed)
        return ReviseAnswer({
            "relation": spec.relation,
            "classification": revision.kind,
            "shape": revision.shape,
            "law": revision.law,
            "strategy": strategy,
            "entered": len(delta.entered),
            "exited": len(delta.exited),
            "version": version,
            "view": view.spec.describe(),
        })

    def _constraints_for(self, relation: str, pref: Preference) -> Any:
        """The relation's constraint registry scoped to ``pref``'s
        attributes, or None when the snapshot is unavailable."""
        try:
            rel = self.session.catalog.get(relation)
            return constraint_registry(rel, pref.attributes)
        except Exception:
            return None

    def _recover_views(self) -> int:
        """Re-materialize continuous views recorded by durable storage."""
        binding = getattr(self.session, "storage", None)
        if binding is None:
            return 0
        recovered = 0
        for payload in binding.pending_views():
            try:
                pref = preference_from_dict(
                    dict(payload["prefer"]), dict(self.session.functions)
                )
                spec = ViewSpec(
                    str(payload["relation"]).lower(),
                    pref,
                    tuple(payload.get("groupby") or ()),
                    payload.get("top"),
                    str(payload.get("ties") or "strict"),
                )
                self._materialize(spec)
                recovered += 1
            except Exception:
                # The spec may reference a relation dropped after it was
                # recorded, or functions this session no longer has —
                # skip it rather than refuse to boot.
                continue
        return recovered

    def _view_payload(self, spec: ViewSpec) -> dict[str, Any] | None:
        """The JSON-safe durable form of a view spec (None if ad-hoc)."""
        try:
            prefer = preference_to_dict(spec.pref)
        except SerializationError:
            return None  # ad-hoc callables cannot survive a restart
        return {
            "relation": spec.relation,
            "prefer": prefer,
            "groupby": list(spec.groupby),
            "top": spec.top,
            "ties": spec.ties,
        }

    def _record_view(self, spec: ViewSpec) -> None:
        binding = getattr(self.session, "storage", None)
        if binding is None or not binding.durable:
            return
        payload = self._view_payload(spec)
        if payload is not None:
            binding.record_view(payload)

    def _forget_view(self, spec: ViewSpec) -> None:
        binding = getattr(self.session, "storage", None)
        if binding is None or not binding.durable:
            return
        payload = self._view_payload(spec)
        if payload is not None:
            binding.forget_view(payload)

    # -- durability -------------------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot the catalog and truncate the write-ahead log.

        Protocol-visible (the ``checkpoint`` op): requires the session to
        be durable (``Session(data_dir=...)``)."""
        binding = getattr(self.session, "storage", None)
        if binding is None or not binding.durable:
            raise ServiceError(
                "checkpoint requires durable storage: start the session "
                "with data_dir= (server: --data-dir)"
            )
        try:
            info = self.session.checkpoint()
        except Exception as exc:
            raise ServiceError(f"checkpoint failed: {exc}") from exc
        self.metrics.record_checkpoint()
        return info

    def add_delta_listener(self, listener: DeltaListener) -> DeltaListener:
        """Register a callback for non-empty view deltas (see
        :data:`DeltaListener`); the server pushes them to subscribers."""
        self._delta_listeners.append(listener)
        return listener

    def remove_delta_listener(self, listener: DeltaListener) -> None:
        try:
            self._delta_listeners.remove(listener)
        except ValueError:
            pass

    # -- mutations --------------------------------------------------------------

    def insert(
        self, relation: str, rows: Sequence[Mapping[str, Any]]
    ) -> dict[str, Any]:
        """Insert rows; refreshes views and notifies delta listeners."""
        if not rows:
            raise ServiceError("insert needs at least one row")
        with self._mutation_lock:
            try:
                event = self.session.insert_rows(relation, rows)
            except Exception as exc:
                raise ServiceError(f"insert failed: {exc}") from exc
        self.metrics.record_mutation("insert", len(event.inserted))
        return {
            "relation": event.relation,
            "inserted": len(event.inserted),
            "version": event.version,
        }

    def delete(
        self,
        relation: str,
        rows: Sequence[Mapping[str, Any]] | None = None,
        where: Any = None,
    ) -> dict[str, Any]:
        """Delete rows (bag-matched) or by spec-style ``where`` conditions,
        which select their rows as a query's ``where`` does."""
        conjuncts = None
        if where is not None:
            conjuncts = [(translate_where(a), a) for a in self._where_asts(where)]
        with self._mutation_lock:
            try:
                event = self.session.delete_rows(
                    relation, rows=rows, predicate=conjuncts
                )
            except ServiceError:
                raise
            except Exception as exc:
                raise ServiceError(f"delete failed: {exc}") from exc
        self.metrics.record_mutation("delete", len(event.deleted))
        return {
            "relation": event.relation,
            "deleted": len(event.deleted),
            "version": event.version,
        }

    def _emit(
        self,
        recipients: tuple,
        delta: BMODelta | ViewError,
        relation: str,
        version: int,
    ) -> None:
        # Callers hold the mutation lock (see DeltaListener).
        for listener in list(self._delta_listeners):
            listener(recipients, delta, relation, version)

    def _on_mutation(self, event: MutationEvent) -> None:
        # Fired by the session after the catalog swap, under the mutation
        # lock (re-entrant when the mutation came through the service).
        with self._mutation_lock:
            for view, delta in self.views.refresh_all(event):
                if isinstance(delta, ViewError):
                    # The refresh poisoned this view; tell its subscribers
                    # the stream broke instead of going silent.
                    self.metrics.record_view_poisoned()
                else:
                    self.metrics.record_view_refresh(view.refresh_last_ns)
                    if not delta:
                        continue
                holders = self.subscriptions.holding(view.spec.key)
                self._emit(
                    tuple(s.id for s in holders), delta,
                    event.relation, event.version,
                )

    # -- introspection ----------------------------------------------------------

    def relations(self) -> list[dict[str, Any]]:
        """Name / cardinality / version of every catalog relation."""
        catalog = self.session.catalog
        return [
            {
                "name": name,
                "rows": len(catalog.get(name)),
                "version": catalog.version(name),
            }
            for name in catalog.names()
        ]

    def stats(self) -> dict[str, Any]:
        """The `/metrics` payload: counters, cache info, per-view stats."""
        info = self.session.cache_info()
        snapshot = self.metrics.snapshot()
        snapshot["subscriptions"] = len(self.subscriptions)
        snapshot["plan_cache"] = {
            "hits": info.hits, "misses": info.misses, "size": info.size,
        }
        snapshot["views"] = self.views.stats()
        snapshot["relations"] = self.relations()
        snapshot["tenancy"] = self.tenancy.stats()
        binding = getattr(self.session, "storage", None)
        if binding is not None:
            snapshot["storage"] = {
                "backend": binding.backend.name,
                "durable": binding.durable,
                "undurable_relations": sorted(binding.undurable),
                "recovery": self.recovery,
                **binding.backend.stats(),
            }
        return snapshot
