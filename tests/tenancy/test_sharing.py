"""Shared views across tenants: one canonical window, LRU-bounded,
quota-fenced, and isolated — one tenant's churn never perturbs another's
answers or pinned views."""

import pytest

from hypothesis import given, settings, strategies as st

from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import pareto, prioritized
from repro.datasets.cars import generate_cars
from repro.query.bmo import winnow
from repro.server.service import PreferenceService
from repro.tenancy import TenancyError

HI_PRICE = {"type": "highest", "attribute": "price"}
LO_AGE = {"type": "lowest", "attribute": "age"}
PARETO_AB = {"type": "pareto", "children": [HI_PRICE, LO_AGE]}
PARETO_BA = {"type": "pareto", "children": [LO_AGE, HI_PRICE]}
ROWS = [{"price": p, "age": a} for p in range(1, 6) for a in (1, 2, 3)]


def _canon(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


def _service(**kwargs):
    return PreferenceService({"car": [dict(r) for r in ROWS]}, **kwargs)


def _around(z):
    return {"type": "around", "attribute": "price", "z": z}


def _spellings(z, chain):
    """Three wire spellings of one term over ``generate_cars`` rows, and
    the term: a Pareto of AROUND(price, z) and HIGHEST(horsepower), or a
    prioritized chain of those two and LOWEST(mileage)."""
    around = _around(z)
    power = {"type": "highest", "attribute": "horsepower"}
    if chain:
        mileage = {"type": "lowest", "attribute": "mileage"}
        spellings = [
            {"type": "prioritized", "children": [
                around, {"type": "prioritized", "children": [power, mileage]},
            ]},
            {"type": "prioritized", "children": [
                {"type": "prioritized", "children": [around, power]}, mileage,
            ]},
            {"type": "prioritized", "children": [around, power, mileage]},
        ]
        return spellings, prioritized(
            AroundPreference("price", z), HighestPreference("horsepower"),
            LowestPreference("mileage"),
        )
    spellings = [
        {"type": "pareto", "children": [around, power]},
        {"type": "pareto", "children": [power, around]},
        {"type": "pareto", "children": [around, power, around]},
    ]
    return spellings, pareto(
        AroundPreference("price", z), HighestPreference("horsepower")
    )


class TestSharing:
    def test_equivalent_profiles_share_one_view(self):
        service = _service()
        t = service.tenancy
        t.set_profile("alice", "deal", PARETO_AB)
        t.set_profile("bob", "deal", PARETO_BA)  # commuted arms
        first = t.query("alice", spec={"relation": "car"})
        second = t.query("bob", spec={"relation": "car"})
        assert len(service.views) == 1
        assert second.source == "view"
        assert _canon(first.rows) == _canon(second.rows)
        stats = t.shared.stats()
        assert stats["entries"] == 1 and stats["hits"] == 1

    def test_profiled_query_matches_direct_composition(self):
        service = _service()
        t = service.tenancy
        t.set_profile("alice", "deal", {"type": "lowest",
                                        "attribute": "price"})
        # Base term breaks ties among the profile's best matches:
        # prio(user, base) == winnow by user, then by base.
        answer = t.query(
            "alice", spec={"relation": "car", "prefer": LO_AGE}
        )
        cheapest = winnow(
            service.tenancy.profiles.resolve("alice"), ROWS
        )
        expected = winnow(LowestPreference("age"), cheapest)
        assert _canon(answer.rows) == _canon(expected)

    def test_ten_tenants_two_shapes_high_hit_rate(self):
        service = _service()
        t = service.tenancy
        for i in range(10):
            shape = PARETO_AB if i % 2 == 0 else PARETO_BA
            t.set_profile(f"user-{i}", "deal", shape)
            t.query(f"user-{i}", spec={"relation": "car"})
        snapshot = t.metrics.snapshot()
        assert len(service.views) == 1
        assert snapshot["total_queries"] == 10
        assert snapshot["total_view_hits"] == 9  # all but the seeding query

    def test_syntactic_variants_share_one_view_per_shape(self):
        """Six shapes, each spelled three ways (commuted Pareto arms, a
        laundered duplicate arm, regrouped prioritized chains): every
        spelling lands on its shape's one view, so only the first query
        of each shape misses."""
        cars = generate_cars(300, seed=11).rows()
        service = PreferenceService({"car": cars}, shared_view_capacity=8)
        t = service.tenancy
        shapes = [_spellings(10_000 + 1_000 * i, i % 2) for i in range(6)]
        for user in range(72):
            spellings, pref = shapes[user % 6]
            t.set_profile(f"user-{user}", "deal", spellings[(user // 6) % 3])
            answer = t.query(f"user-{user}", spec={"relation": "car"})
            assert _canon(answer.rows) == _canon(winnow(pref, cars))
        snapshot = t.metrics.snapshot()
        assert snapshot["total_queries"] == 72
        assert snapshot["total_view_hits"] == 72 - 6
        assert snapshot["view_hit_rate"] >= 0.9
        assert len(t.shared) == len(service.views) == 6
        assert t.shared.evictions == 0

    def test_untenanted_service_path_still_works(self):
        service = _service()
        answer = service.query(spec={"relation": "car", "prefer": HI_PRICE})
        assert answer.source == "plan"
        assert _canon(answer.rows) == _canon(
            [r for r in ROWS if r["price"] == 5]
        )


class TestLRUAndResurrection:
    def test_eviction_and_resurrection_never_serve_stale_rows(self):
        service = _service(shared_view_capacity=2, max_views_per_tenant=50)
        t = service.tenancy
        t.query("alice", spec={"relation": "car", "prefer": _around(1)})
        t.query("alice", spec={"relation": "car", "prefer": _around(2)})
        t.query("alice", spec={"relation": "car", "prefer": _around(3)})
        assert len(t.shared) == 2  # LRU evicted around(1)
        assert t.shared.evictions == 1
        # Mutate while the view is dead, then resurrect it: the reseeded
        # window must reflect the mutation, not the evicted history.
        service.insert("car", [{"price": 1, "age": 99}])
        revived = t.query(
            "alice", spec={"relation": "car", "prefer": _around(1)}
        )
        live = service.session.catalog.get("car").rows()
        assert _canon(revived.rows) == _canon(
            winnow(AroundPreference("price", 1), live)
        )
        assert any(r["age"] == 99 for r in revived.rows)

    def test_eviction_never_crosses_tenants_pins(self):
        service = _service(shared_view_capacity=1, max_views_per_tenant=50)
        t = service.tenancy
        t.subscribe("pinner", "car", prefer=PARETO_AB)
        # A second tenant churning through distinct terms overflows the
        # capacity-1 index, but the pinned view must survive every purge.
        for z in range(1, 6):
            t.query("churner", spec={"relation": "car",
                                     "prefer": _around(z)})
        from repro.algebra import canonical_form
        from repro.server.views import ViewSpec

        pinned_spec = ViewSpec(
            "car",
            canonical_form(service._pref(PARETO_AB)),
        )
        assert service.views.get(pinned_spec) is not None
        assert t.shared.stats()["pinned"] == 1

    def test_distinct_terms_never_alias(self):
        service = _service(shared_view_capacity=4, max_views_per_tenant=50)
        t = service.tenancy
        t.set_profile("alice", "deal", HI_PRICE)
        t.set_profile("bob", "deal", LO_AGE)
        a = t.query("alice", spec={"relation": "car"})
        b = t.query("bob", spec={"relation": "car"})
        assert _canon(a.rows) == _canon(
            [r for r in ROWS if r["price"] == 5]
        )
        assert _canon(b.rows) == _canon([r for r in ROWS if r["age"] == 1])


class TestQuotasAndIsolation:
    def test_view_quota_denies_without_evicting_others(self):
        service = _service(max_views_per_tenant=2, shared_view_capacity=64)
        t = service.tenancy
        t.subscribe("bob", "car", prefer=PARETO_AB)
        for z in range(1, 5):
            answer = t.query(
                "greedy", spec={"relation": "car", "prefer": _around(z)}
            )
            assert answer.rows  # over quota still answers, from a plan
        snapshot = t.metrics.snapshot()["tenants"]["greedy"]
        assert snapshot["quota_denials"] == 2
        assert t.shared.created_count("greedy") == 2
        # Bob's pinned view is untouched by greedy's quota exhaustion.
        assert t.shared.stats()["pinned"] == 1

    def test_subscription_quota_raises(self):
        service = _service(max_subscriptions_per_tenant=2)
        t = service.tenancy
        t.subscribe("alice", "car", prefer=_around(1))
        t.subscribe("alice", "car", prefer=_around(2))
        with pytest.raises(TenancyError, match="subscription quota"):
            t.subscribe("alice", "car", prefer=_around(3))
        # Another tenant's quota is its own.
        t.subscribe("bob", "car", prefer=_around(4))

    def test_profile_mutation_never_changes_other_tenants_answers(self):
        service = _service()
        t = service.tenancy
        t.set_profile("alice", "deal", PARETO_AB)
        t.set_profile("bob", "deal", PARETO_BA)
        before = t.query("bob", spec={"relation": "car"})
        t.set_profile("alice", "deal", LO_AGE)  # alice revises...
        t.delete_profile("alice")               # ...then vanishes
        after = t.query("bob", spec={"relation": "car"})
        assert _canon(before.rows) == _canon(after.rows)
        assert after.rows  # and they are real rows, not an empty window

    def test_sole_pinner_revision_migrates_in_place(self):
        service = _service()
        t = service.tenancy
        t.set_profile("alice", "deal", HI_PRICE)
        view = t.subscribe("alice", "car")
        old_key = view.spec.key
        profile, migrations = t.set_profile("alice", "deal", LO_AGE)
        assert profile.version == 2
        assert len(migrations) == 1
        (sub,) = service.subscriptions.records()
        assert sub.key != old_key  # re-keyed with its view, in place
        assert migrations[0]["strategy"] in (
            "none", "view", "frontier", "full"
        )
        assert service.views.get(sub.spec) is view
        assert _canon(view.rows()) == _canon(
            [r for r in ROWS if r["age"] == 1]
        )

    def test_shared_pin_revision_rebinds_without_disturbing(self):
        service = _service()
        t = service.tenancy
        t.set_profile("alice", "deal", PARETO_AB)
        t.set_profile("bob", "deal", PARETO_BA)
        t.subscribe("alice", "car")
        bob_view = t.subscribe("bob", "car")  # same canonical view
        _, migrations = t.set_profile("alice", "deal", HI_PRICE)
        assert len(migrations) == 1
        assert migrations[0]["strategy"] == "rebind"
        # Bob's pinned view survives, still keyed where he subscribed.
        assert service.views.get(bob_view.spec) is not None
        holders = service.subscriptions.holding(bob_view.spec.key)
        assert {s.tenant for s in holders} == {"bob"}


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from(["q-ab", "q-ba", "q-hi", "mutate", "evict"]),
                min_size=1, max_size=30))
def test_churn_always_matches_batch_answers(script):
    """Randomized query/mutation/eviction churn: every tenant answer must
    equal the batch winnow of its composed term over the live rows."""
    from repro.core.base_numerical import HighestPreference
    from repro.core.constructors import pareto
    from repro.core.base_numerical import LowestPreference

    service = PreferenceService(
        {"car": [dict(r) for r in ROWS]},
        shared_view_capacity=1, max_views_per_tenant=50,
    )
    t = service.tenancy
    t.set_profile("ab", "deal", PARETO_AB)
    t.set_profile("ba", "deal", PARETO_BA)
    pareto_pref = pareto(HighestPreference("price"), LowestPreference("age"))
    hi = HighestPreference("price")
    next_price = 100
    for step in script:
        live = service.session.catalog.get("car").rows()
        if step == "q-ab":
            got = t.query("ab", spec={"relation": "car"})
            assert _canon(got.rows) == _canon(winnow(pareto_pref, live))
        elif step == "q-ba":
            got = t.query("ba", spec={"relation": "car"})
            assert _canon(got.rows) == _canon(winnow(pareto_pref, live))
        elif step == "q-hi":
            got = t.query("hi", spec={"relation": "car", "prefer": HI_PRICE})
            assert _canon(got.rows) == _canon(winnow(hi, live))
        elif step == "mutate":
            service.insert("car", [{"price": next_price, "age": 1}])
            next_price += 1
        else:  # force churn through the capacity-1 LRU
            t.query("churn", spec={"relation": "car", "prefer": _around(2)})
