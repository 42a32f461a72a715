"""Tenancy over the wire: login, profile ops, shared views across
clients, migration pushes that stay inside the revising tenant, and
client auto-reconnect replaying tenant subscriptions."""

import time

import pytest

from repro.server import (
    ClientError,
    PreferenceClient,
    PreferenceService,
    run_in_thread,
)

HI_PRICE = {"type": "highest", "attribute": "price"}
LO_AGE = {"type": "lowest", "attribute": "age"}
PARETO_AB = {"type": "pareto", "children": [HI_PRICE, LO_AGE]}
PARETO_BA = {"type": "pareto", "children": [LO_AGE, HI_PRICE]}
ROWS = [{"price": p, "age": a} for p in range(1, 6) for a in (1, 2, 3)]


def _canon(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


@pytest.fixture
def served():
    service = PreferenceService(
        {"car": [dict(r) for r in ROWS]}, max_subscriptions_per_tenant=3
    )
    handle = run_in_thread(service)
    yield handle
    handle.stop()
    service.close()


class TestProfileWire:
    def test_login_and_profile_roundtrip(self, served):
        with PreferenceClient(port=served.port) as client:
            hello = client.login("alice")
            assert hello["tenant"] == "alice"
            assert "profile" not in hello  # nothing stored yet
            out = client.profile_set("fast", HI_PRICE, default=True)
            assert out["profile"]["version"] == 1
            client.profile_merge({"young": LO_AGE})
            profile = client.profile_get()
            assert profile["version"] == 2
            assert sorted(profile["terms"]) == ["fast", "young"]
            assert profile["default"] == "fast"
            client.profile_delete("young")
            assert sorted(client.profile_get()["terms"]) == ["fast"]
            # A later login sees the stored profile straight away.
        with PreferenceClient(port=served.port) as client:
            assert client.login("alice")["profile"]["version"] == 3

    def test_explicit_tenant_param_without_login(self, served):
        with PreferenceClient(port=served.port) as client:
            client.profile_set("fast", HI_PRICE, tenant="carol")
            rows = client.query(spec={"relation": "car"}, tenant="carol")
            assert _canon(rows) == _canon(
                [r for r in ROWS if r["price"] == 5]
            )

    def test_profile_errors_surface_as_client_errors(self, served):
        with PreferenceClient(port=served.port) as client:
            with pytest.raises(ClientError, match="tenant"):
                client.profile_get()  # neither login nor tenant param
            client.login("alice")
            with pytest.raises(ClientError, match="no-such"):
                client.profile_set("bad", {"type": "no-such-constructor"})
            with pytest.raises(ClientError):
                client.login("")  # invalid tenant name


class TestSharedViewsWire:
    def test_equivalent_tenants_share_one_view(self, served):
        with PreferenceClient(port=served.port) as alice, \
                PreferenceClient(port=served.port) as bob:
            alice.login("alice")
            bob.login("bob")
            alice.profile_set("deal", PARETO_AB)
            bob.profile_set("deal", PARETO_BA)
            first = alice.query_info(spec={"relation": "car"})
            second = bob.query_info(spec={"relation": "car"})
            assert second["source"] == "view"
            assert _canon(first["rows"]) == _canon(second["rows"])
            tenancy = alice.metrics()["tenancy"]
            assert tenancy["shared_views"]["entries"] == 1
            assert tenancy["shared_views"]["hits"] == 1

    def test_profile_subscription_streams_deltas(self, served):
        with PreferenceClient(port=served.port) as client:
            client.login("alice")
            client.profile_set("deal", HI_PRICE)
            sub = client.subscribe("car", snapshot=True)
            assert _canon(sub["rows"]) == _canon(
                [r for r in ROWS if r["price"] == 5]
            )
            client.insert("car", [{"price": 9, "age": 0}])
            delta = client.wait_delta(timeout=10)
            assert delta["subscription"] == sub["subscription"]
            assert _canon(delta["enter"]) == _canon([{"price": 9, "age": 0}])

    def test_migration_delta_reaches_only_the_revising_tenant(self, served):
        with PreferenceClient(port=served.port) as alice, \
                PreferenceClient(port=served.port) as bob:
            alice.login("alice")
            bob.login("bob")
            alice.profile_set("deal", PARETO_AB)
            bob.profile_set("deal", PARETO_BA)
            alice.subscribe("car")
            bob.subscribe("car")  # both pin the one canonical view
            out = alice.profile_set("deal", LO_AGE)
            assert out["migrated"] == 1
            delta = alice.wait_delta(timeout=10)
            assert delta["enter"] or delta["exit"]  # frontier moved
            assert bob.deltas(timeout=0.3) == []  # bob never hears of it
            # ...and bob's view still answers his own term.
            rows = bob.query(spec={"relation": "car"})
            live = [dict(r) for r in ROWS]
            best = max(r["price"] for r in live)
            youngest = min(r["age"] for r in live)
            assert all(
                r["price"] == best or r["age"] == youngest for r in rows
            )

    def test_tenant_eviction_never_silences_an_anonymous_subscriber(self):
        service = PreferenceService(
            {"car": [dict(r) for r in ROWS]}, shared_view_capacity=1
        )
        handle = run_in_thread(service)
        try:
            with PreferenceClient(port=handle.port) as tenants, \
                    PreferenceClient(port=handle.port) as anon:
                tenants.profile_set("deal", PARETO_AB, tenant="alice")
                tenants.query(spec={"relation": "car"}, tenant="alice")
                # Both spellings join alice's shared view and pin it.
                subs = [anon.subscribe("car", prefer=p)["subscription"]
                        for p in (PARETO_AB, PARETO_BA)]
                assert len(service.views) == 1
                # bob's view overflows capacity 1: the LRU pass runs.
                tenants.profile_set("deal", LO_AGE, tenant="bob")
                tenants.query(spec={"relation": "car"}, tenant="bob")
                anon.insert("car", [{"price": 9, "age": 0}])
                deltas = [anon.wait_delta(timeout=10) for _ in subs]
                assert sorted(d["subscription"] for d in deltas) == subs
                for delta in deltas:
                    assert _canon(delta["enter"]) == _canon(
                        [{"price": 9, "age": 0}]
                    )
                # Unsubscribing releases the pins.
                for sub in subs:
                    anon.unsubscribe(sub)
                assert service.tenancy.shared.stats()["pinned"] == 0
        finally:
            handle.stop()
            service.close()

    def test_subscription_quota_over_the_wire(self, served):
        with PreferenceClient(port=served.port) as client:
            client.login("greedy")
            for z in (1, 2, 3):
                client.subscribe(
                    "car",
                    prefer={"type": "around", "attribute": "price", "z": z},
                )
            with pytest.raises(ClientError, match="subscription quota"):
                client.subscribe(
                    "car",
                    prefer={"type": "around", "attribute": "price", "z": 4},
                )


class TestReconnect:
    def test_reconnect_replays_tenant_subscription(self):
        service = PreferenceService({"car": [dict(r) for r in ROWS]})
        handle = run_in_thread(service)
        client = PreferenceClient(
            port=handle.port, reconnect=True,
            reconnect_backoff=0.05, reconnect_max_backoff=0.2,
            reconnect_attempts=20,
        )
        try:
            client.login("alice")
            client.profile_set("deal", HI_PRICE)
            sub = client.subscribe("car")
            port = handle.port
            handle.stop()
            time.sleep(0.1)
            handle = run_in_thread(service, port=port)
            # The next request redials, replays login + subscription...
            rows = client.query(spec={"relation": "car"})
            assert client.reconnects == 1
            assert rows and all(r["price"] == 5 for r in rows)
            # ...and the replayed subscription still streams deltas
            # under the handle the caller originally received.
            client.insert("car", [{"price": 10, "age": 7}])
            delta = client.wait_delta(timeout=10)
            assert delta["subscription"] == sub["subscription"]
            assert _canon(delta["enter"]) == _canon([{"price": 10, "age": 7}])
        finally:
            client.close()
            handle.stop()
            service.close()

    def test_reconnect_disabled_raises_transport_error(self):
        service = PreferenceService({"car": [dict(r) for r in ROWS]})
        handle = run_in_thread(service)
        client = PreferenceClient(port=handle.port)
        try:
            client.ping()
            handle.stop()
            with pytest.raises(ClientError) as excinfo:
                client.query(spec={"relation": "car"})
            assert excinfo.value.code == "transport"
        finally:
            client.close()
            service.close()

    def test_reconnect_gives_up_when_server_stays_down(self):
        service = PreferenceService({"car": [dict(r) for r in ROWS]})
        handle = run_in_thread(service)
        client = PreferenceClient(
            port=handle.port, reconnect=True, reconnect_attempts=2,
            reconnect_backoff=0.01, reconnect_max_backoff=0.02,
        )
        try:
            client.ping()
            handle.stop()
            with pytest.raises(ClientError) as excinfo:
                client.ping()
            assert excinfo.value.code == "transport"
        finally:
            client.close()
            service.close()
