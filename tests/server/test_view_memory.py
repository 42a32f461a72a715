"""A view is its window: the rows it is a winnow of stay in the catalog.

Every continuous view's maintainer holds a *reference* to the catalog's
immutable relation snapshot — handed over at seed time and again with
every mutation — instead of a private copy of the relation.  These tests
pin that down from the serving layer: identity of the row storage,
memory growth far below one relation copy for sixteen views, the bag
following ``view.version`` through insert / delete / revise, and a
poisoned view letting go.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.base_nonnumerical import PosPreference
from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import ParetoPreference
from repro.datasets.cars import generate_cars
from repro.faults.plan import FaultPlan, FaultRule
from repro.query.algorithms import naive_nested_loop
from repro.server.service import PreferenceService

N_ROWS = 5_000

NUMERIC = ("price", "mileage", "horsepower", "year", "fuel_economy",
           "commission")


def _sixteen_views():
    """Sixteen distinct standing queries: chains, skylines, a layered
    term with a wide window, grouped and ranked shapes."""
    views = [(LowestPreference(a), {}) for a in NUMERIC[:5]]
    views += [(HighestPreference(a), {}) for a in NUMERIC[:3]]
    views += [
        (ParetoPreference((LowestPreference("price"),
                           HighestPreference("horsepower"))), {}),
        (ParetoPreference((LowestPreference("mileage"),
                           HighestPreference("year"))), {}),
        (ParetoPreference((AroundPreference("price", 20_000),
                           HighestPreference("fuel_economy"))), {}),
        (PosPreference("color", {"red"}), {}),
        (LowestPreference("price"), {"groupby": ("category",)}),
        (HighestPreference("horsepower"), {"groupby": ("make",)}),
        (LowestPreference("price"), {"top": 10}),
        (HighestPreference("year"), {"top": 5, "ties": "all"}),
    ]
    assert len(views) == 16
    return views


@pytest.fixture
def service():
    svc = PreferenceService({"car": generate_cars(N_ROWS)})
    yield svc
    svc.close()


def _storage(service):
    return service.session.catalog.get("car")._rows


def _traced_growth(fn):
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = fn()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, kept
    finally:
        tracemalloc.stop()


def test_sixteen_views_hold_one_relation(service):
    storage = _storage(service)
    one_copy, _ = _traced_growth(lambda: [dict(r) for r in storage])

    growth, views = _traced_growth(lambda: [
        service.materialize("car", pref, **mode)
        for pref, mode in _sixteen_views()
    ])
    assert len(service.views) == 16
    for view in views:
        assert view._live._bag is storage
        assert view._live.seen() == N_ROWS
    # The parent kept a relation-sized history per view: ~16 copies here.
    assert growth < one_copy / 2, (growth, one_copy)


def test_the_bag_is_the_snapshot_of_the_view_version(service):
    catalog = service.session.catalog
    price = LowestPreference("price")
    view = service.materialize("car", price)

    def check():
        assert view.version == catalog.version("car")
        assert view._live._bag is _storage(service)
        assert view._live.seen() == len(catalog.get("car"))

    check()
    cheapest = dict(view.rows()[0])
    service.insert("car", [dict(cheapest, oid=N_ROWS + 1, price=1)])
    check()
    service.delete("car", where=[["oid", "=", N_ROWS + 1]])  # a maximum
    check()
    service.delete("car", where=[["oid", "=", 17]])           # dominated?
    check()
    refined = price & HighestPreference("year")
    service.revise("car", price, refined)
    check()
    service.revise("car", refined, HighestPreference("horsepower"))
    check()
    rows = [dict(r) for r in _storage(service)]
    expected = naive_nested_loop(HighestPreference("horsepower"), rows)
    assert sorted(r["oid"] for r in view.rows()) == sorted(
        r["oid"] for r in expected
    )


def test_a_poisoned_view_drops_its_reference(service):
    doomed = service.materialize("car", LowestPreference("price"))
    healthy = service.materialize("car", HighestPreference("year"))
    with FaultPlan([FaultRule("view.refresh", action="error", times=1)]):
        service.insert("car", [dict(_storage(service)[0], oid=N_ROWS + 1)])
    poisoned = doomed if doomed.poisoned else healthy
    survivor = healthy if poisoned is doomed else doomed
    assert poisoned.poisoned is not None and survivor.poisoned is None
    assert poisoned._live._bag is not _storage(service)
    assert poisoned._live.seen() == 0 and poisoned.stats()["size"] == 0
    assert survivor._live._bag is _storage(service)
