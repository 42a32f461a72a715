"""Tenant composition over the normal-form memo: ``prio(profile, base)``
is normalized once per distinct term, never served stale, and the memo
stays bounded — and the entry points ``bench/`` drives keep their
shapes."""

import pytest

from tests.conftest import normalizer_walks

from repro.algebra import canonical_form, rewriter
from repro.core.base_numerical import LowestPreference, ScorePreference
from repro.core.constructors import PrioritizedPreference
from repro.query.api import PreferenceQuery
from repro.query.bmo import winnow
from repro.server import protocol, run_in_thread
from repro.server.service import PreferenceService, QueryAnswer
from repro.server.views import ViewSpec

HI_PRICE = {"type": "highest", "attribute": "price"}
LO_PRICE = {"type": "lowest", "attribute": "price"}
LO_AGE = {"type": "lowest", "attribute": "age"}
PARETO_AB = {"type": "pareto", "children": [HI_PRICE, LO_AGE]}
PARETO_BA = {"type": "pareto", "children": [LO_AGE, HI_PRICE]}
ROWS = [{"price": p, "age": a} for p in range(1, 6) for a in (1, 2, 3)]
CAR = {"relation": "car"}


def _canon(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


@pytest.fixture
def service():
    service = PreferenceService({"car": [dict(r) for r in ROWS]})
    yield service
    service.close()


def _prices(answer):
    return {r["price"] for r in answer.rows}


class TestNeverStale:
    def test_every_profile_write_is_seen_by_the_next_query(self, service):
        t = service.tenancy
        t.set_profile("alice", "deal", HI_PRICE)
        assert _prices(service.query(spec=CAR, tenant="alice")) == {5}
        assert _prices(service.query(spec=CAR, tenant="alice")) == {5}
        t.set_profile("alice", "deal", LO_PRICE)  # set: version bump
        assert _prices(service.query(spec=CAR, tenant="alice")) == {1}
        t.merge_profile("alice", {"deal": HI_PRICE})  # merge
        assert _prices(service.query(spec=CAR, tenant="alice")) == {5}
        t.delete_profile("alice", "deal")  # delete: no term, no prefer
        assert len(service.query(spec=CAR, tenant="alice").rows) == len(ROWS)

    def test_recreated_profile_reusing_a_version_is_not_aliased(self, service):
        t = service.tenancy
        first, _ = t.set_profile("alice", "deal", HI_PRICE)
        assert _prices(service.query(spec=CAR, tenant="alice")) == {5}
        t.delete_profile("alice")  # the whole profile: versions restart
        second, _ = t.set_profile("alice", "deal", LO_PRICE)
        assert second.version == first.version
        assert _prices(service.query(spec=CAR, tenant="alice")) == {1}

    def test_unchanged_profile_composes_once(self, service):
        t = service.tenancy
        with normalizer_walks() as walks:
            t.set_profile("alice", "deal", PARETO_AB)
            for _ in range(5):
                service.query(spec=CAR, tenant="alice")
            assert len(walks) == 1  # the composed term, walked once
            t.set_profile("alice", "deal", PARETO_BA)
            for _ in range(5):
                service.query(spec=CAR, tenant="alice")
            assert len(walks) == 2


class TestKeying:
    def test_equivalent_profiles_resolve_to_one_view_key(self, service):
        t = service.tenancy
        t.set_profile("alice", "deal", PARETO_AB)
        t.set_profile("bob", "deal", PARETO_BA)  # commuted arms
        for _ in range(2):  # second round comes from the cache
            a = service.resolve(spec=CAR, tenant="alice")
            b = service.resolve(spec=CAR, tenant="bob")
            assert a.view_spec.key == b.view_spec.key
            assert a.composed and b.composed

    def test_term_selects_its_own_entry(self, service):
        t = service.tenancy
        t.merge_profile("alice", {"dear": HI_PRICE, "cheap": LO_PRICE},
                        default="dear")
        for _ in range(2):
            assert _prices(service.query(spec=CAR, tenant="alice")) == {5}
            assert _prices(service.query(
                spec=CAR, tenant="alice", term="cheap")) == {1}
            assert _prices(service.query(
                spec=CAR, tenant="alice", term="dear")) == {5}

    def test_base_term_keys_on_signature(self, service):
        t = service.tenancy
        t.set_profile("alice", "deal", HI_PRICE)
        for _ in range(2):
            young = service.query(
                spec={**CAR, "prefer": LO_AGE}, tenant="alice")
            old = service.query(
                spec={**CAR, "prefer": {"type": "highest",
                                        "attribute": "age"}},
                tenant="alice")
            assert {r["age"] for r in young.rows} == {1}
            assert {r["age"] for r in old.rows} == {3}

    def test_base_term_keys_on_adhoc_score_identity(self, service):
        # Two lambdas share the name "<lambda>"; the signature carries the
        # functions themselves, so the composed terms stay apart.
        t = service.tenancy
        t.set_profile("alice", "deal", HI_PRICE)
        young = ScorePreference("age", lambda age: -age)
        old = ScorePreference("age", lambda age: age)
        assert young.score_name == old.score_name
        assert young.signature != old.signature
        for _ in range(2):
            a = service.query(spec={**CAR, "prefer": young}, tenant="alice")
            b = service.query(spec={**CAR, "prefer": old}, tenant="alice")
            assert {r["age"] for r in a.rows} == {1}
            assert {r["age"] for r in b.rows} == {3}

    def test_cache_is_bounded(self, service, monkeypatch):
        monkeypatch.setattr(rewriter, "_MEMO_CAP", 4)
        monkeypatch.setattr(rewriter, "_memo", {})
        t = service.tenancy
        t.set_profile("alice", "deal", HI_PRICE)
        for z in range(20):
            service.resolve(spec={
                **CAR, "prefer": {"type": "around", "attribute": "age",
                                  "z": z}}, tenant="alice")
            assert len(rewriter._memo) <= 4
        # An evicted entry is recomputed, not lost.
        answer = service.query(
            spec={**CAR, "prefer": {"type": "around", "attribute": "age",
                                    "z": 0}}, tenant="alice")
        assert _prices(answer) == {5}


class TestStableEntryPoints:
    """What ``bench/trace.py`` and ``bench/oracle.py`` call, as they call
    it — ``bench/`` may not be edited, so these shapes are a contract."""

    def test_compose_returns_the_canonical_personalized_query(self, service):
        service.tenancy.set_profile("alice", "deal", PARETO_BA)
        q = service.build_query(None, {**CAR, "prefer": LO_AGE})
        for _ in range(2):
            composed, applied = service.tenancy.compose(q, "alice")
            assert isinstance(composed, PreferenceQuery) and applied is True
            expected = canonical_form(PrioritizedPreference((
                service.tenancy.profiles.resolve("alice"),
                LowestPreference("age"),
            )))
            assert canonical_form(composed.preference) == expected
            assert ViewSpec("car", composed.preference).pref == expected
        plain, applied = service.tenancy.compose(q, "nobody")
        assert applied is False
        assert plain.preference.signature == LowestPreference("age").signature

    def test_query_answer_and_view_lookup(self, service):
        service.tenancy.set_profile("alice", "deal", HI_PRICE)
        service.query(sql=None, spec=CAR, tenant="alice")  # seeds the view
        answer = service.query(sql=None, spec=CAR, tenant="alice")
        assert isinstance(answer, QueryAnswer) and answer.source == "view"
        q, _ = service.tenancy.compose(service.build_query(None, CAR), "alice")
        view = service.views.get(ViewSpec(answer.relation, q.preference))
        assert _canon(view.rows()) == _canon(answer.rows)
        # oracle.py answers a composed query without touching the views.
        planned = service.answer(q, auto_view=False)
        assert _canon(planned.rows) == _canon(answer.rows)
        assert _canon(answer.rows) == _canon(
            winnow(service.tenancy.profiles.resolve("alice"), ROWS))

    def test_view_answers_are_private_copies(self, service):
        service.materialize("car", HI_PRICE)
        first = service.query(spec={**CAR, "prefer": HI_PRICE})
        assert first.source == "view"
        first.rows[0]["price"] = -1
        first.rows.clear()
        second = service.query(spec={**CAR, "prefer": HI_PRICE})
        assert _prices(second) == {5} and len(second.rows) == 3

    def test_wire_helpers_and_embedding(self, service):
        rows = [{"a": 1, "b": {2, 1}}, {"a": 2, "b": (3, 4)}]
        messages = list(protocol.rows_chunks(
            7, rows, protocol.DEFAULT_CHUNK_ROWS,
            source="view", elapsed_ns=0, relation="car",
        ))
        assert [protocol.encode_message(m) for m in messages] == [
            b'{"id":7,"ok":true,"kind":"rows","seq":0,"rows":'
            b'[{"a":1,"b":[1,2]},{"a":2,"b":[3,4]}],"done":true,"total":2,'
            b'"source":"view","elapsed_ns":0,"relation":"car"}\n'
        ]
        handle = run_in_thread(service)
        try:
            assert handle.port > 0
        finally:
            handle.stop()


class TestUnderConcurrency:
    """More threads than cores, a shortened switch interval, one second:
    readers race a writer and must never see a torn or stale state."""

    @staticmethod
    def _race(readers, writer, seconds=1.0):
        import sys
        import threading
        import time

        failures, stop = [], threading.Event()

        def guarded(fn):
            def run():
                try:
                    while not stop.is_set():
                        fn()
                except Exception as exc:  # surfaced by the assert below
                    failures.append(exc)
                    stop.set()
            return run

        threads = [threading.Thread(target=guarded(fn))
                   for fn in [writer, *readers]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(seconds)
            stop.set()
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_profile_flips_are_never_served_stale_or_mixed(self, service):
        t = service.tenancy
        t.set_profile("alice", "deal", HI_PRICE)
        flips = [0]

        def flip():
            flips[0] += 1
            t.set_profile("alice", "deal",
                          LO_PRICE if flips[0] % 2 else HI_PRICE)

        def read():
            assert _prices(service.query(spec=CAR, tenant="alice")) in (
                {1}, {5})

        self._race([read] * 4, flip)
        expected = {1} if flips[0] % 2 else {5}
        assert _prices(service.query(spec=CAR, tenant="alice")) == expected

    def test_revised_view_never_answers_for_its_old_preference(self, service):
        service.materialize("car", HI_PRICE)
        terms = [HI_PRICE, LO_PRICE]

        def revise():
            service.revise("car", terms[0], terms[1])
            terms.reverse()

        def read():
            answer = service.query(spec={**CAR, "prefer": HI_PRICE})
            assert _prices(answer) == {5}, answer

        self._race([read] * 4, revise)
