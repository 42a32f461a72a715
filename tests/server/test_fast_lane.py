"""The server's two lanes for a ``query``: inline on the event loop when a
current, uncontended continuous view holds the answer, the worker pool for
everything else.

Structural, not timed, wherever possible: a spy on the service's executor
counts worker-pool dispatches, so "answered inline" means "submitted
nothing" — and every answer, whichever lane produced it, is compared with
``naive_nested_loop`` over the catalog's rows at that moment.
"""

import json
import socket
import threading
import time

import pytest

from repro.datasets.cars import generate_cars
from repro.engineering.serialization import preference_from_dict
from repro.faults.plan import FaultPlan, FaultRule
from repro.query.algorithms import naive_nested_loop
from repro.server import (
    ClientError,
    PreferenceClient,
    PreferenceService,
    run_in_thread,
)
from repro.server.server import INLINE_STREAK
from repro.server.views import ViewSpec

AROUND = {"type": "around", "attribute": "price", "z": 20000}
HI_HP = {"type": "highest", "attribute": "horsepower"}
LO_MILES = {"type": "lowest", "attribute": "mileage"}
DEAL = {"type": "pareto", "children": [AROUND, HI_HP]}
THRIFTY = {"type": "pareto", "children": [LO_MILES, HI_HP]}
SPEC = {"relation": "car", "prefer": DEAL}

N = 20


@pytest.fixture(autouse=True)
def _no_fault_leaks():
    from repro.faults import plan as faults

    faults.reset()
    yield
    faults.reset()


def _canon(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


def _oracle(service, prefer):
    rows = service.session.catalog.get("car").rows()
    return naive_nested_loop(preference_from_dict(prefer), rows)


class _Served:
    """A served service whose worker-pool dispatches are counted."""

    def __init__(self, **server_kwargs):
        # A private pool: the spy below must count this service only.
        self.service = PreferenceService(
            {"car": generate_cars(300).rows()}, max_workers=2
        )
        self.submitted = 0
        submit = self.service.executor.submit

        def spy(*args, **kwargs):
            self.submitted += 1
            return submit(*args, **kwargs)

        self.service.executor.submit = spy
        self.handle = run_in_thread(self.service, **server_kwargs)
        self.port = self.handle.port

    def close(self):
        self.handle.stop()
        self.service.close()


@pytest.fixture
def served():
    served = _Served()
    yield served
    served.close()


def _sight_twice(client, spec):
    """Anonymous specs auto-materialize on their second sighting."""
    client.query(spec=spec)
    client.query(spec=spec)


class TestLaneChoice:
    def test_view_resident_queries_submit_nothing(self, served):
        with PreferenceClient(port=served.port) as client:
            _sight_twice(client, SPEC)
            served.submitted = 0
            for _ in range(N):
                info = client.query_info(spec=SPEC)
                assert info["source"] == "view"
                assert _canon(info["rows"]) == _canon(
                    _oracle(served.service, DEAL)
                )
        assert served.submitted == 0
        queries = served.service.metrics.snapshot()["queries"]
        assert queries["inline"] == N
        assert queries["from_view"] == N + 1  # + the seeding query
        assert queries["total"] == N + 2

    def test_tenant_queries_ride_the_inline_lane(self, served):
        with PreferenceClient(port=served.port) as client:
            client.profile_set("deal", DEAL, tenant="alice")
            client.query(spec={"relation": "car"}, tenant="alice")  # seeds
            served.submitted = 0
            for _ in range(N):
                info = client.query_info(
                    spec={"relation": "car"}, tenant="alice"
                )
                assert info["source"] == "view"
                assert _canon(info["rows"]) == _canon(
                    _oracle(served.service, DEAL)
                )
        assert served.submitted == 0
        tenants = served.service.tenancy.stats()
        assert tenants["shared_views"]["hits"] == N
        assert tenants["tenants"]["tenants"]["alice"]["view_hits"] == N

    def test_presentation_clauses_apply_inline(self, served):
        spec = {**SPEC, "order_by": [["price", True]],
                "select": ["oid", "price"], "limit": 3}
        with PreferenceClient(port=served.port) as client:
            _sight_twice(client, spec)
            served.submitted = 0
            info = client.query_info(spec=spec)
        assert served.submitted == 0 and info["source"] == "view"
        best = sorted(_oracle(served.service, DEAL),
                      key=lambda r: r["price"], reverse=True)[:3]
        assert [r["price"] for r in info["rows"]] == [
            r["price"] for r in best
        ]
        assert all(set(r) == {"oid", "price"} for r in info["rows"])

    @pytest.mark.parametrize("spec", [
        {"relation": "car", "prefer": THRIFTY},  # a first sighting
        {**SPEC, "where": [["category", "=", "suv"]]},
        {**SPEC, "but_only": [["distance", "price", "<=", 5000]]},
    ], ids=["first_sighting", "where", "but_only"])
    def test_everything_else_goes_to_the_pool_once(self, served, spec):
        with PreferenceClient(port=served.port) as client:
            _sight_twice(client, SPEC)  # a view exists; it must not matter
            served.submitted = 0
            info = client.query_info(spec=spec)
        assert served.submitted == 1
        assert info["source"] == "plan"

    def test_stale_view_goes_to_the_pool_and_answers_fresh(self, served):
        with PreferenceClient(port=served.port) as client:
            _sight_twice(client, SPEC)
            # Behind the session's back: the catalog moves, no view
            # refreshes, so the registered view is one version stale.
            winner = {**served.service.session.catalog.get("car").rows()[0],
                      "oid": 9001, "price": 20000, "horsepower": 999}
            served.service.session.catalog.insert_rows("car", [winner])
            served.submitted = 0
            info = client.query_info(spec=SPEC)
        assert served.submitted == 1
        assert info["source"] == "plan"
        assert _canon(info["rows"]) == _canon([winner])

    def test_mutations_between_identical_queries_are_seen(self, served):
        with PreferenceClient(port=served.port) as client:
            _sight_twice(client, SPEC)
            template = served.service.session.catalog.get("car").rows()[0]
            winner = {**template, "oid": 9001, "price": 20000,
                      "horsepower": 999}
            before = client.query(spec=SPEC)
            client.insert("car", [winner])
            served.submitted = 0
            during = client.query_info(spec=SPEC)
            assert served.submitted == 0  # current again: inline again
            client.delete("car", where=[["oid", "=", 9001]])
            after = client.query_info(spec=SPEC)
        assert during["source"] == after["source"] == "view"
        assert _canon(during["rows"]) == _canon([winner])
        assert _canon(after["rows"]) == _canon(before)
        assert _canon(after["rows"]) == _canon(_oracle(served.service, DEAL))

    def test_explain_names_the_answering_view(self, served):
        with PreferenceClient(port=served.port) as client:
            assert "answered from view" not in client.explain(spec=SPEC)
            _sight_twice(client, SPEC)
            assert "answered from view" in client.explain(spec=SPEC)


class TestTheLoopNeverWaits:
    def test_held_view_lock_sends_the_query_to_the_pool(self, served):
        with PreferenceClient(port=served.port) as client, \
                PreferenceClient(port=served.port) as bystander:
            _sight_twice(client, SPEC)
            bystander.ping()
            view = served.service.views.get(
                ViewSpec("car", preference_from_dict(DEAL))
            )
            held, answer = threading.Event(), {}

            def hold():  # a refresh in flight, as far as readers can tell
                with view._lock:
                    held.set()
                    time.sleep(0.3)

            def ask():
                answer.update(client.query_info(spec=SPEC))

            holder = threading.Thread(target=hold)
            asker = threading.Thread(target=ask)
            holder.start()
            assert held.wait(5)
            served.submitted = 0
            asker.start()
            time.sleep(0.02)  # the query is now parked on a worker
            started = time.perf_counter()
            assert bystander.ping()["pong"] is True
            ping_ms = (time.perf_counter() - started) * 1e3
            asker.join(5)
            holder.join(5)
            assert not asker.is_alive() and not holder.is_alive()
        assert ping_ms < 50
        assert served.submitted == 1
        assert answer["source"] == "view"
        assert _canon(answer["rows"]) == _canon(
            _oracle(served.service, DEAL)
        )

    def test_pipelined_burst_does_not_starve_other_connections(self, served):
        # Small answers, so 5000 of them fit the socket buffers and the
        # burst's task is never suspended by a full write buffer — only
        # the bounded inline streak makes it yield.
        spec = {**SPEC, "select": ["oid"], "limit": 1}
        burst = 5000
        with PreferenceClient(port=served.port) as client:
            _sight_twice(client, spec)
            client.ping()
            sock = socket.create_connection(("127.0.0.1", served.port))
            sock.settimeout(30)
            lines = b"".join(
                json.dumps({"id": i, "op": "query", "spec": spec}).encode()
                + b"\n" for i in range(burst)
            )
            received = []

            def drain():
                seen = 0
                while seen < burst:
                    chunk = sock.recv(1 << 20)
                    if not chunk:
                        break
                    seen += chunk.count(b"\n")
                received.append(seen)

            reader = threading.Thread(target=drain)
            reader.start()
            served.submitted = 0
            sock.sendall(lines)
            started = time.perf_counter()
            assert client.ping()["pong"] is True
            ping_ms = (time.perf_counter() - started) * 1e3
            reader.join(30)
            assert not reader.is_alive()
            sock.close()
        assert received == [burst]
        assert served.submitted == 0
        assert ping_ms < 50
        assert burst > 100 * INLINE_STREAK


class TestInlineLaneKeepsTheContract:
    """Deadlines, the ``executor.task`` fault site and admission control
    govern a view-resident query exactly as they govern a pooled one."""

    def test_expired_deadline_is_shed(self, served):
        with PreferenceClient(port=served.port) as client:
            _sight_twice(client, SPEC)
            served.submitted = 0
            with pytest.raises(ClientError) as info:
                client.query(spec=SPEC, deadline_ms=0)
            assert info.value.code == "deadline"
            assert client.query(spec=SPEC, deadline_ms=60_000)
        assert served.submitted == 0
        assert served.service.metrics.snapshot()["shed"] == {"deadline": 1}

    def test_injected_fault_maps_to_internal_error(self, served):
        with PreferenceClient(port=served.port) as client:
            _sight_twice(client, SPEC)
            served.submitted = 0
            rule = FaultRule("executor.task", match="query")
            with FaultPlan([rule]):
                with pytest.raises(ClientError) as info:
                    client.query(spec=SPEC)
            assert info.value.code == "internal"
            assert rule.fired == 1
            assert client.query(spec=SPEC)  # connection survived
        assert served.submitted == 0

    def test_fault_site_is_hit_once_on_either_lane(self, served):
        with PreferenceClient(port=served.port) as client:
            _sight_twice(client, SPEC)
            for spec in (SPEC, {**SPEC, "where": [["category", "=", "suv"]]}):
                with FaultPlan() as plan:
                    client.query(spec=spec)
                assert plan.hits == {"executor.task": 1, "conn.write": 1}

    def test_delay_past_the_budget_is_shed(self, served):
        with PreferenceClient(port=served.port) as client:
            _sight_twice(client, SPEC)
            served.submitted = 0
            with FaultPlan([FaultRule("executor.task", action="delay",
                                      delay_ms=150, match="query")]):
                with pytest.raises(ClientError) as info:
                    client.query(spec=SPEC, deadline_ms=20)
            assert info.value.code == "deadline"
        assert served.submitted == 0

    def test_zero_watermark_sheds_resident_queries_too(self):
        served = _Served(max_pending=0)
        try:
            served.service.materialize("car", DEAL)
            with PreferenceClient(port=served.port) as client:
                with pytest.raises(ClientError) as info:
                    client.query(spec=SPEC)
                assert info.value.code == "overloaded"
            assert served.submitted == 0
        finally:
            served.close()
