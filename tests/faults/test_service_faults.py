"""View-refresh isolation at the service layer.

A refresh that throws must poison exactly one view: the mutation still
commits, sibling views keep refreshing, queries silently fall back to
exact planning (identical answers), subscribers are told the stream
broke, and re-materializing heals the view under the same key.
"""

import pytest

from repro.server.service import PreferenceService, ServiceError
from repro.server.views import ViewError
from repro.faults.plan import FaultPlan, FaultRule

ROWS = [
    {"name": "frog", "fe": 100, "ir": 3},
    {"name": "cat", "fe": 50, "ir": 3},
]

LOWEST_IR = {"type": "lowest", "attribute": "ir"}
HIGHEST_FE = {"type": "highest", "attribute": "fe"}


@pytest.fixture
def service():
    svc = PreferenceService({"animal": [dict(r) for r in ROWS]})
    yield svc
    svc.close()


def _query_rows(service, prefer):
    answer = service.query(spec={"relation": "animal", "prefer": prefer})
    return answer, sorted(tuple(sorted(r.items())) for r in answer.rows)


class TestViewPoisoning:
    def test_poison_isolates_one_view(self, service):
        poisoned_view = service.materialize("animal", HIGHEST_FE)
        healthy_view = service.materialize("animal", LOWEST_IR)
        deliveries = []
        service.add_delta_listener(
            lambda ids, delta, relation, version: deliveries.append(
                (ids, delta)
            )
        )
        with FaultPlan([FaultRule("view.refresh", times=1)]):
            # First refresh in the sweep dies; the sweep continues.
            info = service.insert(
                "animal", [{"name": "eel", "fe": 200, "ir": 1}]
            )
        assert info["inserted"] == 1  # the mutation itself committed
        views = {v: v.poisoned for v in (poisoned_view, healthy_view)}
        assert sum(1 for r in views.values() if r) == 1
        bad = next(v for v, r in views.items() if r)
        good = next(v for v, r in views.items() if not r)
        assert "InjectedFault" in bad.poisoned
        # The healthy sibling refreshed and is current.
        assert good.version == service.session.catalog.version("animal")
        # Subscribers of the poisoned view got a ViewError, not silence.
        errors = [d for _, d in deliveries if isinstance(d, ViewError)]
        assert len(errors) == 1 and "InjectedFault" in errors[0].reason
        assert service.metrics.snapshot()["views_poisoned"] == 1

    def test_queries_fall_back_to_exact_planning(self, service):
        service.materialize("animal", HIGHEST_FE)
        service.materialize("animal", HIGHEST_FE)  # idempotent
        answer, _ = _query_rows(service, HIGHEST_FE)
        assert answer.source == "view"
        with FaultPlan([FaultRule("view.refresh", times=None)]):
            service.insert("animal", [{"name": "eel", "fe": 200, "ir": 1}])
        answer, rows = _query_rows(service, HIGHEST_FE)
        assert answer.source == "plan"  # poisoned view never answers
        assert rows == [(("fe", 200), ("ir", 1), ("name", "eel"))]
        # Stats carry the quarantine reason.
        (view_stats,) = service.stats()["views"]
        assert view_stats["poisoned"] is not None

    def test_poisoned_view_skips_further_refreshes(self, service):
        view = service.materialize("animal", HIGHEST_FE)
        with FaultPlan([FaultRule("view.refresh", times=1)]):
            service.insert("animal", [{"name": "a", "fe": 1, "ir": 1}])
        refreshes = view.refreshes
        service.insert("animal", [{"name": "b", "fe": 2, "ir": 2}])
        assert view.refreshes == refreshes  # quarantined: no more work

    def test_revise_refuses_a_poisoned_view(self, service):
        service.materialize("animal", HIGHEST_FE)
        with FaultPlan([FaultRule("view.refresh", times=1)]):
            service.insert("animal", [{"name": "a", "fe": 1, "ir": 1}])
        with pytest.raises(ServiceError, match="quarantined"):
            service.revise("animal", HIGHEST_FE, to=LOWEST_IR)

    def test_rematerialize_heals_under_the_same_key(self, service):
        poisoned = service.materialize("animal", HIGHEST_FE)
        with FaultPlan([FaultRule("view.refresh", times=1)]):
            service.insert("animal", [{"name": "eel", "fe": 200, "ir": 1}])
        assert poisoned.poisoned is not None
        healed = service.materialize("animal", HIGHEST_FE)
        assert healed is not poisoned
        assert healed.poisoned is None
        assert healed.spec.key == poisoned.spec.key
        # The healed view is seeded from the full catalog and answers.
        answer, rows = _query_rows(service, HIGHEST_FE)
        assert answer.source == "view"
        assert rows == [(("fe", 200), ("ir", 1), ("name", "eel"))]
        snapshot = service.metrics.snapshot()
        assert snapshot["views_healed"] == 1
        # And it refreshes again like any live view.
        service.insert("animal", [{"name": "ox", "fe": 300, "ir": 0}])
        assert healed.version == service.session.catalog.version("animal")
