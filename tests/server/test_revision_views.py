"""Interleaving stress suite: revisions and mutations against live views.

Extends the PR-4 view-property pattern (``test_view_properties``) with a
third step kind: alongside random inserts and deletes, random *preference
revisions* hit the same :class:`ContinuousView` — refinements (prioritized
appends), contractions (dropping back to the prefix), and incomparable
swaps.  After every step the maintained view must equal the from-scratch
batch evaluation of the *current* preference over the surviving rows, and
the subscriber-visible delta stream (data deltas and revision deltas,
interleaved) must reconcile each before-state to each after-state as
multisets.

A second layer drives the same interleaving through the full service and
server stack: the revision delta arrives in-stream on a subscribed
client connection, after the subscription has been re-pointed to the
revised view key.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import base_preference_st, canon_rows, row_st

from repro.core.base_numerical import HighestPreference, LowestPreference
from repro.core.constructors import PrioritizedPreference
from repro.query.bmo import winnow
from repro.server.service import PreferenceService
from repro.server.views import ContinuousView, ViewRegistry, ViewSpec
from repro.session import MutationEvent

#: An interleaving step: mutate the data, or revise the preference.
revision_step_st = st.one_of(
    st.tuples(st.just("insert"), row_st),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("refine"), base_preference_st),
    st.tuples(st.just("contract"), st.none()),
)


def _items(row):
    return tuple(sorted(row.items()))


def _replay_with_revisions(initial_pref, steps):
    """Drive one view through mutations + revisions, checking every step."""
    registry = ViewRegistry()
    view = ContinuousView(ViewSpec("r", initial_pref))
    view.seed([], version=0)
    registry.adopt(view)
    survivors: list[dict] = []
    pref = initial_pref
    stack = [initial_pref]
    for version, (kind, payload) in enumerate(steps, start=1):
        before = [_items(r) for r in view.rows()]
        if kind == "insert":
            survivors.append(dict(payload))
            delta = view.refresh(MutationEvent(
                "r", inserted=(dict(payload),), version=version,
            ))
        elif kind == "delete":
            if not survivors:
                continue
            victim = survivors.pop(payload % len(survivors))
            delta = view.refresh(MutationEvent(
                "r", deleted=(dict(victim),), version=version,
            ))
        elif kind == "refine":
            pref = PrioritizedPreference((pref, payload))
            stack.append(pref)
            delta, revision, strategy = registry.revise(view, pref)
            assert revision.kind in ("equal", "refinement")
        else:  # contract: drop back to the previous term on the stack
            if len(stack) == 1:
                continue
            stack.pop()
            pref = stack[-1]
            delta, _, _ = registry.revise(view, pref)
        # The view answers exactly the batch winnow of the current term.
        assert canon_rows(view.rows()) == canon_rows(
            winnow(pref, survivors)
        ), f"view diverged after {kind} #{version}"
        # Registry re-keying: the view is findable under its new spec.
        assert registry.get(view.spec) is view
        # Delta accounting: before - exited + entered == after.
        accounted = list(before)
        for row in delta.exited:
            accounted.remove(_items(row))
        for row in delta.entered:
            accounted.append(_items(row))
        assert sorted(accounted) == canon_rows(view.rows())


@given(st.lists(revision_step_st, min_size=1, max_size=25))
@settings(max_examples=40)
def test_interleaved_revisions_equal_batch(steps):
    _replay_with_revisions(LowestPreference("a"), steps)


@given(base_preference_st, st.lists(revision_step_st, min_size=1,
                                    max_size=20))
@settings(max_examples=30)
def test_interleaved_revisions_from_arbitrary_base(pref, steps):
    _replay_with_revisions(pref, steps)


@given(st.lists(revision_step_st, min_size=1, max_size=20))
@settings(max_examples=25)
def test_service_revision_stream_reconciles(steps):
    """Service-level: the one listener stream of data deltas and
    revision deltas replays the subscriber's view exactly."""
    first = {"a": 0, "b": 0, "c": 0}
    service = PreferenceService({"r": [first]}, auto_view_threshold=None)
    try:
        pref = LowestPreference("a")
        view = service.materialize("r", pref)
        mirror = [_items(r) for r in view.rows()]
        stream: list = []
        service.add_delta_listener(
            lambda ids, delta, relation, version: stream.append(delta)
        )
        survivors: list[dict] = [dict(first)]
        stack = [pref]
        for kind, payload in steps:
            if kind == "insert":
                survivors.append(dict(payload))
                service.insert("r", [payload])
            elif kind == "delete":
                if not survivors:
                    continue
                victim = survivors.pop(payload % len(survivors))
                service.delete("r", rows=[victim])
            elif kind == "refine":
                refined = PrioritizedPreference((stack[-1], payload))
                service.revise("r", stack[-1], refined)
                stack.append(refined)
            else:
                if len(stack) == 1:
                    continue
                old = stack.pop()
                service.revise("r", old, stack[-1])
            # Replay the delta stream over the mirror: it must land on
            # the live view's rows at every step.
            for delta in stream:
                for row in delta.exited:
                    mirror.remove(_items(row))
                for row in delta.entered:
                    mirror.append(_items(row))
            stream.clear()
            assert sorted(mirror) == canon_rows(view.rows())
            assert canon_rows(view.rows()) == canon_rows(
                winnow(stack[-1], survivors)
            )
        revisions = view.stats()["revisions"]
        assert revisions == service.metrics.snapshot()["revisions"]["total"]
    finally:
        service.close()


def test_revising_missing_view_is_a_service_error():
    import pytest

    from repro.server.service import ServiceError

    service = PreferenceService(
        {"r": [{"a": 0, "b": 0, "c": 0}]}, auto_view_threshold=None
    )
    try:
        with pytest.raises(ServiceError):
            service.revise(
                "r", LowestPreference("a"), HighestPreference("a")
            )
    finally:
        service.close()


def test_server_pushes_revision_deltas_to_repointed_subscribers():
    """End to end: subscribe, revise over the wire, and the revision's
    enter/exit rows arrive as a delta push; later data mutations keep
    streaming to the re-pointed subscription."""
    from repro.server.client import PreferenceClient
    from repro.server.server import run_in_thread

    rows = [
        {"price": p, "power": w}
        for p, w in [(10, 1), (10, 9), (20, 9), (30, 5)]
    ]
    low = {"type": "lowest", "attribute": "price"}
    high = {"type": "highest", "attribute": "power"}
    refined = {"type": "prioritized", "children": [low, high]}
    service = PreferenceService({"car": rows})
    handle = run_in_thread(service)
    try:
        with PreferenceClient(port=handle.port) as client:
            sub = client.subscribe("car", prefer=low, snapshot=True)
            assert canon_rows(sub["rows"]) == canon_rows(
                [{"price": 10, "power": 1}, {"price": 10, "power": 9}]
            )
            answer = client.revise("car", prefer=low, to=refined)
            assert answer["classification"] == "refinement"
            assert answer["strategy"] == "view"
            assert "Definition 9" in answer["law"]
            push = client.wait_delta(timeout=10.0)
            assert push["subscription"] == sub["subscription"]
            assert canon_rows(push["exit"]) == canon_rows(
                [{"price": 10, "power": 1}]
            )
            assert push["enter"] == []
            # The re-pointed subscription still receives data deltas.
            client.insert("car", [{"price": 5, "power": 7}])
            push = client.wait_delta(timeout=10.0)
            assert canon_rows(push["enter"]) == canon_rows(
                [{"price": 5, "power": 7}]
            )
            metrics = client.metrics()
            assert metrics["revisions"]["total"] == 1
            assert metrics["revisions"]["full_fallbacks"] == 0
            assert metrics["latency"]["revision"]["count"] == 1
    finally:
        handle.stop()


def test_revision_answers_queries_under_the_new_key():
    """After a revision the registry serves the revised spec (and no
    longer the old one) — repeat queries hit the revised view."""
    rows = [{"price": p, "power": w} for p, w in [(1, 1), (1, 5), (2, 9)]]
    service = PreferenceService({"car": rows}, auto_view_threshold=None)
    try:
        low = LowestPreference("price")
        refined = PrioritizedPreference((low, HighestPreference("power")))
        view = service.materialize("car", low)
        service.revise("car", low, refined)
        spec_new = ViewSpec("car", refined)
        assert service.views.get(spec_new) is view
        assert service.views.get(ViewSpec("car", low)) is None
        answer = service.query(spec={
            "relation": "car",
            "prefer": {"type": "lowest", "attribute": "price"},
            "cascade": [{"type": "highest", "attribute": "power"}],
        })
        assert answer.source == "view"
        assert canon_rows(answer.rows) == canon_rows(
            [{"price": 1, "power": 5}]
        )
    finally:
        service.close()


def test_a_failed_revision_leaves_the_view_on_its_old_preference():
    """A revision that throws part-way (here: a term over an attribute
    the relation lacks) must not leave the view answering for the old
    key with a half-built window of the new term."""
    rows = [{"price": p, "power": w} for p, w in [(1, 1), (1, 5), (2, 9)]]
    service = PreferenceService({"car": rows}, auto_view_threshold=None)
    try:
        low = LowestPreference("price")
        view = service.materialize("car", low)
        with pytest.raises(KeyError):
            service.revise("car", low, HighestPreference("no_such_column"))
        assert service.views.get(ViewSpec("car", low)) is view
        answer = service.query(spec={
            "relation": "car",
            "prefer": {"type": "lowest", "attribute": "price"},
        })
        assert answer.source == "view"
        assert canon_rows(answer.rows) == canon_rows(rows[:2])
        service.insert("car", [{"price": 0, "power": 0}])
        assert view.rows() == [{"price": 0, "power": 0}]
    finally:
        service.close()
