"""One subscription table: every live subscription is recorded once, in
the service's :class:`~repro.server.views.SubscriptionTable`, and every
delta — data, revision or profile migration — takes one push path.

Each test here reproduces a defect of the per-layer bookkeeping the
table replaced: a shed ``subscribe`` that leaked its record, a data
delta lost to a subscription re-keyed too late, and a reviser blocked
on a subscriber that stopped reading.
"""

import functools
import json
import socket
import threading
import time

import pytest

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.faults.plan import FaultPlan, FaultRule
from repro.query.bmo import winnow
from repro.server import (
    ClientError,
    PreferenceClient,
    PreferenceService,
    protocol,
    run_in_thread,
)
from repro.server.views import ViewSpec

ANIMALS = [
    {"name": "frog", "fe": 100, "ir": 3},
    {"name": "cat", "fe": 50, "ir": 3},
]
LOWEST_IR = {"type": "lowest", "attribute": "ir"}
LOWEST_PRICE = {"type": "lowest", "attribute": "price"}
HIGHEST_PRICE = {"type": "highest", "attribute": "price"}


@pytest.fixture(autouse=True)
def _no_fault_leaks():
    from repro.faults import plan as faults

    faults.reset()
    yield
    faults.reset()


def _counts(service):
    """Every subscription count `/metrics` reports."""
    stats = service.stats()
    tenancy = stats["tenancy"]
    return {
        "subscriptions": stats["subscriptions"],
        "tenancy": tenancy["subscriptions"],
        "pinned": tenancy["shared_views"]["pinned"],
        "slots": sum(
            slot["subscriptions"]
            for slot in tenancy["tenants"]["tenants"].values()
        ),
    }


def _settle(service, expected, timeout=5.0):
    """Wait for the server to process a disconnect, then read counts."""
    deadline = time.monotonic() + timeout
    while True:
        counts = _counts(service)
        if counts == expected or time.monotonic() > deadline:
            return counts
        time.sleep(0.02)


class _Raw:
    """A bare socket speaking the wire protocol: sends any field."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        self.buffer = bytearray()

    def send(self, **message):
        self.sock.sendall(protocol.encode_message(message))

    def read(self, timeout=5.0):
        self.sock.settimeout(timeout)
        while b"\n" not in self.buffer:
            try:
                chunk = self.sock.recv(1 << 16)
            except socket.timeout:
                return None
            if not chunk:
                return None
            self.buffer.extend(chunk)
        line, _, rest = bytes(self.buffer).partition(b"\n")
        self.buffer = bytearray(rest)
        return json.loads(line)

    def close(self):
        self.sock.close()


ZERO = {"subscriptions": 0, "tenancy": 0, "pinned": 0, "slots": 0}


class TestShedSubscribeReleases:
    def test_tenant_subscribe_shed_by_deadline_leaves_no_record(self):
        service = PreferenceService({"animal": [dict(r) for r in ANIMALS]})
        service.tenancy.set_profile(
            "alice", "deal", {"type": "highest", "attribute": "fe"},
            default=True,
        )
        handle = run_in_thread(service)
        raw = _Raw(handle.port)
        try:
            with FaultPlan([FaultRule("executor.task", action="delay",
                                      delay_ms=100, match="subscribe")]):
                raw.send(id=1, op="subscribe", relation="animal",
                         prefer=LOWEST_IR, tenant="alice", deadline_ms=20)
                answer = raw.read()
            assert answer["code"] == "deadline"
            assert _counts(service) == ZERO
            raw.close()
            assert _settle(service, ZERO) == ZERO
            # Nothing counts against alice's quota or pins the view.
            assert service.subscriptions.records() == []
        finally:
            raw.close()
            handle.stop()
            service.close()

    def test_anonymous_subscribe_shed_during_snapshot_gets_no_deltas(self):
        service = PreferenceService({"animal": [dict(r) for r in ANIMALS]})
        handle = run_in_thread(service)
        raw = _Raw(handle.port)
        try:
            with FaultPlan([FaultRule("executor.task", action="delay",
                                      delay_ms=100, match="snapshot")]):
                raw.send(id=1, op="subscribe", relation="animal",
                         prefer=LOWEST_IR, snapshot=True, deadline_ms=20)
                answer = raw.read()
            assert answer["code"] == "deadline"
            assert _counts(service) == ZERO
            raw.send(id=2, op="insert", relation="animal",
                     rows=[{"name": "eel", "fe": 1, "ir": 0}])
            # The only message is the insert's answer: no delta for a
            # subscription id this client was never sent.
            assert raw.read()["id"] == 2
            assert raw.read(timeout=0.3) is None
            assert service.stats()["deltas_pushed"] == 0
        finally:
            raw.close()
            handle.stop()
            service.close()


def _priced(n, pad=""):
    return [{"oid": i, "price": 100 + i, "pad": pad} for i in range(n)]


def _oids(rows):
    return sorted(r["oid"] for r in rows)


class TestRevisionDeltaOrder:
    def test_insert_committed_right_after_a_revision_is_not_lost(self):
        service = PreferenceService({"item": _priced(20)})
        revise = service.revise

        @functools.wraps(revise)
        def revise_then_insert(*args, **kwargs):
            # Another writer commits between the revision and the loop
            # resuming the revise handler.
            summary = revise(*args, **kwargs)
            writer = threading.Thread(target=service.insert, args=(
                "item", [{"oid": 99, "price": 1000, "pad": ""}],
            ))
            writer.start()
            writer.join()
            return summary

        service.revise = revise_then_insert
        handle = run_in_thread(service)
        try:
            with PreferenceClient(port=handle.port) as subscriber, \
                    PreferenceClient(port=handle.port) as reviser:
                sub = subscriber.subscribe(
                    "item", prefer=LOWEST_PRICE, snapshot=True
                )
                window = {r["oid"] for r in sub["rows"]}
                assert window == {0}
                reviser.revise("item", prefer=LOWEST_PRICE, to=HIGHEST_PRICE)
                first = subscriber.wait_delta(timeout=5)
                second = subscriber.wait_delta(timeout=5)
                assert (_oids(first["enter"]), _oids(first["exit"])) == (
                    [19], [0]
                )
                assert (_oids(second["enter"]), _oids(second["exit"])) == (
                    [99], [19]
                )
                assert first["version"] < second["version"]
                for delta in (first, second):
                    window -= {r["oid"] for r in delta["exit"]}
                    window |= {r["oid"] for r in delta["enter"]}
                view = service.views.get(_spec(service, HIGHEST_PRICE))
                assert window == {r["oid"] for r in view.rows()} == {99}
        finally:
            handle.stop()
            service.close()


def _spec(service, prefer):
    return ViewSpec("item", service._pref(prefer))


class TestRevisionShedsSlowSubscriber:
    def test_reviser_is_answered_and_stalled_subscriber_shed(self):
        service = PreferenceService({"item": _priced(8, "z" * 256 * 1024)})
        handle = run_in_thread(service, write_buffer_cap=64 * 1024)
        try:
            with PreferenceClient(port=handle.port) as subscriber, \
                    PreferenceClient(port=handle.port, timeout=5) as reviser:
                subscriber.subscribe("item", prefer=LOWEST_PRICE)
                terms = [LOWEST_PRICE, HIGHEST_PRICE]
                shed = {}
                for i in range(16):  # the subscriber never reads
                    reviser.revise(
                        "item", prefer=terms[i % 2], to=terms[(i + 1) % 2]
                    )
                    shed = reviser.metrics()["shed"]
                    if shed.get("slow_subscriber"):
                        break
                assert shed.get("slow_subscriber", 0) >= 1
                assert reviser.ping()["pong"] is True
        except ClientError as exc:  # a reviser stuck on the subscriber
            pytest.fail(f"reviser was not answered: {exc}")
        finally:
            handle.stop()
            service.close()


# -- one state machine through the server ---------------------------------

LOWEST_AGE = {"type": "lowest", "attribute": "age"}
HIGHEST_AGE = {"type": "highest", "attribute": "age"}
TERMS = [
    LOWEST_PRICE, HIGHEST_PRICE, LOWEST_AGE,
    {"type": "pareto", "children": [LOWEST_PRICE, HIGHEST_AGE]},
]
PROFILE_TERMS = [HIGHEST_AGE, LOWEST_PRICE]
#: Whether, and at which executor task, a subscribe is shed by a delay
#: past its deadline.
SHED = st.sampled_from((None, None, "subscribe", "snapshot"))
TENANTS = ("alice", "bob")
QUOTA = 2


def _bag(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


class SubscriptionMachine(RuleBasedStateMachine):
    """Subscribe (anonymous or tenant, with or without snapshot, sometimes
    shed by a deadline fault), unsubscribe, disconnect, insert, delete,
    revise, profile set/delete and eviction pressure, over two client
    connections.  After every step the table holds exactly the ids the
    clients were sent, every `/metrics` count is the table's, no held
    view is gone, and every subscriber's replayed stream is its view's
    rows — the winnow of its term over the live relation."""

    def __init__(self):
        super().__init__()
        rows = [{"oid": i, "price": i % 3, "age": i % 2} for i in range(5)]
        self.service = PreferenceService(
            {"item": rows}, shared_view_capacity=2,
            max_subscriptions_per_tenant=QUOTA, max_views_per_tenant=64,
        )
        self.handle = run_in_thread(self.service)
        self.clients = [self._dial(), self._dial()]
        #: subscription id -> [client index, tenant, replayed window]
        self.subs = {}
        self.next_oid = 100
        self.next_z = 0

    def _dial(self):
        return PreferenceClient(port=self.handle.port, timeout=10)

    def teardown(self):
        for client in self.clients:
            client.close()
        self.handle.stop()
        self.service.close()

    def _records(self):
        return {s.id: s for s in self.service.subscriptions.records()}

    @initialize()
    def share_a_profile(self):
        for tenant in TENANTS:
            self.service.tenancy.set_profile(
                tenant, "deal", PROFILE_TERMS[0], default=True
            )

    @rule(client=st.integers(0, 1), term=st.sampled_from(TERMS),
          snapshot=st.booleans(), shed=SHED)
    def subscribe(self, client, term, snapshot, shed):
        self._subscribe(client, None, term, snapshot, shed)

    # Tenant bases come from a smaller pool, so tenants share views and
    # profile revisions take both the in-place and the rebind migration.
    @rule(client=st.integers(0, 1), tenant=st.sampled_from(TENANTS),
          term=st.sampled_from(TERMS[:2]), snapshot=st.booleans(),
          shed=SHED)
    def subscribe_tenant(self, client, tenant, term, snapshot, shed):
        self._subscribe(client, tenant, term, snapshot, shed)

    def _subscribe(self, client, tenant, term, snapshot, shed):
        held = sum(1 for _, t, _ in self.subs.values() if t == tenant)
        rules = [] if shed is None else [FaultRule(
            "executor.task", action="delay", delay_ms=30, match=shed,
        )]
        try:
            with FaultPlan(rules):
                answer = self.clients[client]._request(
                    "subscribe", relation="item", prefer=term,
                    tenant=tenant, snapshot=snapshot or None,
                    deadline_ms=5 if shed else None,
                )
        except ClientError as exc:
            assert shed or (tenant is not None and held >= QUOTA), exc
            return
        assert tenant is None or held < QUOTA
        sub_id = answer["subscription"]
        if snapshot:
            window = _bag(answer["rows"])
        else:
            spec = self._records()[sub_id].spec
            window = _bag(self.service.views.get(spec).rows())
        self.subs[sub_id] = [client, tenant, window]

    @rule(data=st.data())
    def unsubscribe(self, data):
        if not self.subs:
            return
        sub_id = data.draw(st.sampled_from(sorted(self.subs)))
        client = self.subs.pop(sub_id)[0]
        self.clients[client].unsubscribe(sub_id)

    @rule(client=st.integers(0, 1))
    def disconnect(self, client):
        self.clients[client].close()
        gone = {i for i, sub in self.subs.items() if sub[0] == client}
        for sub_id in gone:
            del self.subs[sub_id]
        self.clients[client] = self._dial()
        deadline = time.monotonic() + 5
        while gone & set(self._records()) and time.monotonic() < deadline:
            time.sleep(0.005)

    @rule(price=st.integers(0, 3), age=st.integers(0, 2))
    def insert(self, price, age):
        self.next_oid += 1
        self.clients[0].insert(
            "item", [{"oid": self.next_oid, "price": price, "age": age}]
        )

    @rule(data=st.data())
    def delete(self, data):
        rows = self.service.session.catalog.get("item").rows()
        if len(rows) > 1:
            oid = data.draw(st.sampled_from(sorted(r["oid"] for r in rows)))
            self.clients[1].delete("item", where=[["oid", "=", oid]])

    @rule(old=st.sampled_from(TERMS), new=st.sampled_from(TERMS))
    def revise(self, old, new):
        try:
            self.clients[1].revise("item", prefer=old, to=new)
        except ClientError as exc:
            assert "no continuous view" in str(exc), exc

    @rule(tenant=st.sampled_from(TENANTS),
          term=st.sampled_from(PROFILE_TERMS))
    def profile_set(self, tenant, term):
        self.clients[0].profile_set("deal", term, default=True, tenant=tenant)

    @rule(tenant=st.sampled_from(TENANTS))
    def profile_delete(self, tenant):
        try:
            self.clients[1].profile_delete(tenant=tenant)
        except ClientError as exc:
            assert "no profile" in str(exc), exc

    @rule()
    def eviction_pressure(self):
        self.next_z += 1
        self.clients[0].query(spec={"relation": "item", "prefer": {
            "type": "around", "attribute": "price", "z": self.next_z,
        }}, tenant="carol")

    @invariant()
    def subscriptions_are_the_table(self):
        for client in self.clients:
            client.ping()  # every delta pushed so far precedes the pong
            for delta in client.deltas():
                assert "error" not in delta, delta
                window = self.subs[delta["subscription"]][2]
                for row in _bag(delta["exit"]):
                    window.remove(row)
                window.extend(_bag(delta["enter"]))
                window.sort()
        records = self._records()
        assert set(records) == set(self.subs)
        tenants = {t: 0 for t in TENANTS}
        for _, tenant, _ in self.subs.values():
            if tenant is not None:
                tenants[tenant] += 1
        stats = self.clients[0].metrics()
        tenancy = stats["tenancy"]
        assert stats["subscriptions"] == len(self.subs)
        assert tenancy["subscriptions"] == sum(tenants.values())
        slots = tenancy["tenants"]["tenants"]
        for tenant, count in tenants.items():
            assert slots.get(tenant, {"subscriptions": 0})[
                "subscriptions"
            ] == count
        held = {s.key for s in records.values()}
        tenant_held = {s.key for s in records.values() if s.tenant}
        pinned = tenancy["shared_views"]["pinned"]
        assert len(tenant_held) <= pinned <= len(held)
        live = self.service.session.catalog.get("item").rows()
        for sub_id, sub in records.items():
            view = self.service.views.get(sub.spec)
            assert view is not None, "a held view was evicted"
            assert self.subs[sub_id][2] == _bag(view.rows())
            assert _bag(view.rows()) == _bag(winnow(sub.spec.pref, live))


SubscriptionMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSubscriptionMachine = SubscriptionMachine.TestCase
