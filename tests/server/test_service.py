"""PreferenceService tests: queries, specs, mutations, views, metrics."""

import pytest

from repro.core.base_numerical import HighestPreference
from repro.core.constructors import pareto
from repro.engineering.serialization import preference_to_dict
from repro.server.service import PreferenceService, ServiceError


def _canon(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


ANIMALS = [
    {"name": "frog", "fe": 100, "ir": 3},
    {"name": "cat", "fe": 50, "ir": 3},
    {"name": "shark", "fe": 50, "ir": 10},
]

PARETO_SPEC = {
    "type": "pareto",
    "children": [
        {"type": "highest", "attribute": "fe"},
        {"type": "highest", "attribute": "ir"},
    ],
}


@pytest.fixture
def service():
    service = PreferenceService({"animal": ANIMALS}, auto_view_threshold=2)
    yield service
    service.close()


class TestQueries:
    def test_sql_query(self, service):
        answer = service.query(
            sql="SELECT * FROM animal PREFERRING HIGHEST(fe) AND HIGHEST(ir)"
        )
        assert answer.source == "plan"
        assert _canon(answer.rows) == _canon(
            [{"name": "frog", "fe": 100, "ir": 3},
             {"name": "shark", "fe": 50, "ir": 10}]
        )

    def test_spec_query_equals_sql(self, service):
        spec = {"relation": "animal", "prefer": PARETO_SPEC}
        by_spec = service.query(spec=spec)
        by_sql = service.query(
            sql="SELECT * FROM animal PREFERRING HIGHEST(fe) AND HIGHEST(ir)"
        )
        assert _canon(by_spec.rows) == _canon(by_sql.rows)

    def test_spec_where_and_presentation(self, service):
        spec = {
            "relation": "animal",
            "where": [["ir", "<=", 5]],
            "prefer": {"type": "highest", "attribute": "fe"},
            "select": ["name"],
            "limit": 1,
        }
        assert service.query(spec=spec).rows == [{"name": "frog"}]

    def test_plain_sql_without_preferring(self, service):
        answer = service.query(sql="SELECT name FROM animal WHERE ir = 10")
        assert answer.rows == [{"name": "shark"}]

    def test_needs_exactly_one_input(self, service):
        with pytest.raises(ServiceError):
            service.query()
        with pytest.raises(ServiceError):
            service.query(sql="SELECT * FROM animal", spec={"relation": "animal"})

    def test_unknown_spec_field(self, service):
        with pytest.raises(ServiceError, match="unknown spec field"):
            service.query(spec={"relation": "animal", "prefers": PARETO_SPEC})

    @pytest.mark.parametrize("extra", [
        {"partitions": 2},
        {"backend": "auto", "partitions": 2},
        {"backend": "parallel", "partitions": 2},
        {"backend": "row", "partitions": 2},
    ], ids=["bare", "auto", "parallel", "row"])
    def test_spec_partitions_is_unknown(self, service, extra):
        """Partitioning is the planner's decision: every shape a spec gave
        the field in is refused, and a retired backend hint riding along
        is refused beside it."""
        with pytest.raises(
            ServiceError,
            match=r"unknown spec field\(s\) \[('backend', )?'partitions'\]",
        ):
            service.query(
                spec={"relation": "animal", "prefer": PARETO_SPEC, **extra}
            )

    def test_unknown_relation(self, service):
        with pytest.raises(ServiceError):
            service.query(spec={"relation": "nope", "prefer": PARETO_SPEC})

    def test_bad_where_triple(self, service):
        with pytest.raises(ServiceError):
            service.query(spec={"relation": "animal", "where": [["ir", "~", 1]]})


class TestViewAnswering:
    def test_auto_materializes_on_repeat(self, service):
        spec = {"relation": "animal", "prefer": PARETO_SPEC}
        first = service.query(spec=spec)
        second = service.query(spec=spec)
        third = service.query(spec=spec)
        assert first.source == "plan"
        assert second.source == "view" and third.source == "view"
        assert _canon(first.rows) == _canon(second.rows) == _canon(third.rows)

    def test_view_answers_match_plans_after_mutations(self, service):
        spec = {"relation": "animal", "prefer": PARETO_SPEC}
        service.query(spec=spec)
        service.query(spec=spec)
        service.insert("animal", [{"name": "turtle", "fe": 100, "ir": 10}])
        from_view = service.query(spec=spec)
        assert from_view.source == "view"
        fresh = (
            service.session.query("animal")
            .prefer(pareto(HighestPreference("fe"), HighestPreference("ir")))
            .run()
        )
        assert _canon(from_view.rows) == _canon(fresh.rows())
        assert _canon(from_view.rows) == _canon(
            [{"name": "turtle", "fe": 100, "ir": 10}]
        )

    def test_where_queries_never_use_views(self, service):
        spec = {
            "relation": "animal",
            "where": [["ir", "<=", 5]],
            "prefer": PARETO_SPEC,
        }
        for _ in range(4):
            assert service.query(spec=spec).source == "plan"

    def test_presentation_clauses_apply_over_view(self, service):
        base = {"relation": "animal", "prefer": PARETO_SPEC}
        service.query(spec=base)
        service.query(spec=base)
        decorated = dict(
            base, order_by=[["fe", True]], select=["name", "fe"], limit=1
        )
        answer = service.query(spec=decorated)
        assert answer.source == "view"
        assert answer.rows == [{"name": "frog", "fe": 100}]

    def test_explicit_materialize(self, service):
        view = service.materialize("animal", PARETO_SPEC)
        answer = service.query(
            spec={"relation": "animal", "prefer": PARETO_SPEC}
        )
        assert answer.source == "view"
        assert view.served >= 1

    def test_grouped_topk_never_view_answered(self, service):
        # The planner evaluates top-k globally (grouping is ignored under
        # TOP); a per-group view cut would answer differently, so such
        # queries must always re-plan.
        spec = {
            "relation": "animal",
            "prefer": {"type": "highest", "attribute": "fe"},
            "groupby": ["ir"],
            "top": 2,
        }
        answers = [service.query(spec=spec) for _ in range(4)]
        assert all(a.source == "plan" for a in answers)
        assert all(_canon(a.rows) == _canon(answers[0].rows) for a in answers)

    def test_adhoc_score_lambdas_do_not_alias_views(self, service):
        from repro.core.base_numerical import ScorePreference

        best = service.materialize(
            "animal", ScorePreference("fe", lambda v: v), top=1
        )
        worst = service.materialize(
            "animal", ScorePreference("fe", lambda v: -v), top=1
        )
        assert best is not worst
        assert [r["fe"] for r in best.rows()] == [100]
        assert [r["fe"] for r in worst.rows()] == [50]

    def test_threshold_none_disables_auto_views(self):
        service = PreferenceService(
            {"animal": ANIMALS}, auto_view_threshold=None
        )
        try:
            spec = {"relation": "animal", "prefer": PARETO_SPEC}
            for _ in range(5):
                assert service.query(spec=spec).source == "plan"
        finally:
            service.close()

    def test_explain_mentions_answering_view(self, service):
        spec = {"relation": "animal", "prefer": PARETO_SPEC}
        assert "answered from view" not in service.explain(spec=spec)
        service.materialize("animal", PARETO_SPEC)
        assert "answered from view" in service.explain(spec=spec)


class TestMutations:
    def test_insert_bumps_version_and_invalidates(self, service):
        spec = {"relation": "animal", "prefer": PARETO_SPEC}
        service.query(spec=spec)
        before = service.session.catalog.version("animal")
        summary = service.insert(
            "animal", [{"name": "turtle", "fe": 100, "ir": 10}]
        )
        assert summary == {
            "relation": "animal", "inserted": 1, "version": before + 1,
        }
        answer = service.query(spec=spec)
        assert _canon(answer.rows) == _canon(
            [{"name": "turtle", "fe": 100, "ir": 10}]
        )

    def test_delete_by_rows_and_where(self, service):
        assert service.delete(
            "animal", rows=[{"name": "cat", "fe": 50, "ir": 3}]
        )["deleted"] == 1
        assert service.delete("animal", where=[["ir", ">", 5]])["deleted"] == 1
        assert {r["name"] for r in service.query(
            sql="SELECT * FROM animal"
        ).rows} == {"frog"}

    def test_empty_insert_rejected(self, service):
        with pytest.raises(ServiceError):
            service.insert("animal", [])

    def test_schema_violation_rejected_atomically(self, service):
        with pytest.raises(ServiceError):
            service.insert("animal", [{"name": "ghost"}])
        assert len(service.session.catalog.get("animal")) == len(ANIMALS)

    def test_delta_listener_sees_view_changes(self, service):
        events = []
        view = service.materialize("animal", PARETO_SPEC)
        service.add_delta_listener(
            lambda *args: events.append(args)
        )
        service.insert("animal", [{"name": "turtle", "fe": 100, "ir": 10}])
        assert len(events) == 1
        recipients, delta, relation, version = events[0]
        assert recipients == ()  # the view has no subscription
        assert delta.entered == ({"name": "turtle", "fe": 100, "ir": 10},)
        assert len(delta.exited) == 2
        assert relation == "animal" and version == view.version


class TestIntrospection:
    def test_relations(self, service):
        (info,) = service.relations()
        assert info == {"name": "animal", "rows": 3, "version": 1}

    def test_stats_payload(self, service):
        spec = {"relation": "animal", "prefer": PARETO_SPEC}
        service.query(spec=spec)
        service.query(spec=spec)
        service.insert("animal", [{"name": "turtle", "fe": 100, "ir": 10}])
        stats = service.stats()
        assert stats["queries"]["total"] == 2
        assert stats["queries"]["from_view"] == 1
        assert stats["mutations"]["inserts"] == 1
        assert stats["plan_cache"]["misses"] >= 1
        assert stats["latency"]["view_refresh"]["count"] == 1
        (view_stats,) = stats["views"]
        assert view_stats["refreshes"] == 1
        assert stats["relations"][0]["rows"] == 4

    def test_sessions_can_be_shared(self):
        from repro.session import Session

        session = Session({"animal": ANIMALS})
        service = PreferenceService(session)
        try:
            assert service.session is session
            assert service.query(
                spec={"relation": "animal", "prefer": PARETO_SPEC}
            ).rows
        finally:
            service.close()

    def test_services_share_one_executor_that_outlives_them(self):
        from repro.server.service import shared_executor

        first = PreferenceService({"animal": ANIMALS})
        second = PreferenceService({"animal": ANIMALS})
        private = PreferenceService({"animal": ANIMALS}, max_workers=1)
        try:
            assert first.executor is second.executor is shared_executor()
            assert private.executor is not shared_executor()
        finally:
            for service in (first, second, private):
                service.close()
        # close() never shuts the shared pool down.
        assert shared_executor() is first.executor
        assert first.executor.submit(lambda: 7).result(timeout=10) == 7

    def test_the_shared_pool_has_a_worker_per_usable_cpu(self, monkeypatch):
        """A process pinned to one CPU gets one worker, however many
        cores the machine has."""
        import os

        from repro.server import service as service_module

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(service_module, "_executor", None)
        pool = service_module.shared_executor()
        pool.shutdown()
        assert pool._max_workers == 1
        # Without an affinity mask, the machine's cores.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        pool = service_module.shared_executor()
        pool.shutdown()
        assert pool._max_workers == 64

    def test_close_detaches_from_a_shared_session(self):
        from repro.session import Session

        session = Session({"animal": ANIMALS})
        service = PreferenceService(session)
        view = service.materialize("animal", PARETO_SPEC)
        service.close()
        refreshes = view.refreshes
        session.insert_rows(
            "animal", [{"name": "turtle", "fe": 100, "ir": 10}]
        )
        # The closed service's views are no longer maintained...
        assert view.refreshes == refreshes
        # ...and the session itself keeps working.
        assert len(session.catalog.get("animal")) == 4

    def test_auto_view_cap_stops_materialization(self):
        service = PreferenceService(
            {"animal": ANIMALS}, auto_view_threshold=1, max_auto_views=2
        )
        try:
            for attribute in ("fe", "ir"):
                spec = {"relation": "animal",
                        "prefer": {"type": "highest",
                                   "attribute": attribute}}
                assert service.query(spec=spec).source == "view"
            capped = {"relation": "animal",
                      "prefer": {"type": "lowest", "attribute": "fe"}}
            for _ in range(3):
                assert service.query(spec=capped).source == "plan"
            assert len(service.views) == 2
            # Explicit materialization is a deliberate capacity decision.
            service.materialize("animal",
                                {"type": "lowest", "attribute": "fe"})
            assert service.query(spec=capped).source == "view"
        finally:
            service.close()

    def test_view_error_contract_matches_plan_path(self, service):
        bad = {
            "relation": "animal",
            "prefer": PARETO_SPEC,
            "order_by": [["nope", False]],
        }
        with pytest.raises(ServiceError):
            service.query(spec=bad)  # plan path
        service.materialize("animal", PARETO_SPEC)
        with pytest.raises(ServiceError):
            service.query(spec=bad)  # view path: same contract

    def test_one_off_specs_do_not_accumulate(self, service):
        from repro.server import service as service_module

        for z in range(service_module._SEEN_SPECS_CAP + 50):
            service.query(spec={
                "relation": "animal",
                "prefer": {"type": "around", "attribute": "fe", "z": z},
            })
        assert len(service._seen_specs) <= service_module._SEEN_SPECS_CAP

    def test_functions_register_onto_shared_session(self):
        from repro.session import Session

        session = Session({"animal": ANIMALS})
        service = PreferenceService(
            session, functions={"negfe": lambda v: -v}
        )
        try:
            answer = service.query(spec={
                "relation": "animal",
                "prefer": {"type": "score", "attributes": ["fe"],
                           "function": "negfe"},
                "top": 1,
            })
            assert [r["fe"] for r in answer.rows] == [50]
        finally:
            service.close()

    def test_round_trip_serialized_preference(self, service):
        pref = pareto(HighestPreference("fe"), HighestPreference("ir"))
        spec = {"relation": "animal", "prefer": preference_to_dict(pref)}
        assert _canon(service.query(spec=spec).rows) == _canon(
            service.session.query("animal").prefer(pref).run().rows()
        )
