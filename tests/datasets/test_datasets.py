"""Workload generator tests: determinism, shapes, correlations."""

import datetime

import pytest

from repro.datasets.cars import CAR_MAKES, example6_preferences, generate_cars
from repro.datasets.logs import generate_query_log
from repro.datasets.skyline_data import (
    anticorrelated,
    correlated,
    independent,
    skyline_relation,
)
from repro.datasets.trips import generate_trips


class TestCars:
    def test_deterministic(self):
        assert generate_cars(50, seed=1).rows() == generate_cars(50, seed=1).rows()
        assert generate_cars(50, seed=1).rows() != generate_cars(50, seed=2).rows()

    def test_schema(self):
        cars = generate_cars(10)
        expected = {
            "oid", "make", "category", "color", "transmission", "year",
            "horsepower", "mileage", "price", "fuel_economy",
            "insurance_rating", "commission",
        }
        assert set(cars.attributes) == expected
        assert len(cars) == 10

    def test_value_ranges(self):
        cars = generate_cars(300, seed=3)
        for row in cars:
            assert row["make"] in CAR_MAKES
            assert 1990 <= row["year"] <= 2001
            assert row["price"] >= 500
            assert 40 <= row["horsepower"] <= 300
            assert row["mileage"] >= 0
            assert 1 <= row["insurance_rating"] <= 10

    def test_price_year_correlation(self):
        cars = generate_cars(1000, seed=5)
        newer = [r["price"] for r in cars if r["year"] >= 1999]
        older = [r["price"] for r in cars if r["year"] <= 1992]
        assert sum(newer) / len(newer) > sum(older) / len(older)

    def test_mileage_age_correlation(self):
        cars = generate_cars(1000, seed=5)
        newer = [r["mileage"] for r in cars if r["year"] >= 1999]
        older = [r["mileage"] for r in cars if r["year"] <= 1992]
        assert sum(newer) / len(newer) < sum(older) / len(older)


class TestExample6Preferences:
    def test_all_terms_present(self):
        prefs = example6_preferences()
        assert set(prefs) == {
            "P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8",
            "Q1", "Q2", "Q1_star", "Q2_star",
        }

    def test_terms_run_on_catalog(self):
        from repro.query.bmo import winnow

        prefs = example6_preferences()
        cars = generate_cars(200, seed=7)
        for key in ("Q1", "Q2", "Q1_star", "Q2_star"):
            best = winnow(prefs[key], cars)
            assert 0 < len(best) <= len(cars)


class TestSkylineData:
    def test_shapes(self):
        for gen in (independent, correlated, anticorrelated):
            rows = gen(100, 4, seed=2)
            assert len(rows) == 100
            assert set(rows[0]) == {"d0", "d1", "d2", "d3"}
            assert all(0.0 <= v <= 1.0 for r in rows for v in r.values())

    def test_deterministic(self):
        assert independent(50, 2, seed=9) == independent(50, 2, seed=9)

    def test_skyline_size_ordering(self):
        # The defining property: anticorrelated >> independent >> correlated.
        from repro.core.base_numerical import HighestPreference
        from repro.core.constructors import pareto
        from repro.query.bmo import winnow

        pref = pareto(*(HighestPreference(f"d{i}") for i in range(3)))
        sizes = {}
        for kind in ("anticorrelated", "independent", "correlated"):
            rel = skyline_relation(kind, 400, 3, seed=13)
            sizes[kind] = len(winnow(pref, rel))
        assert sizes["anticorrelated"] > sizes["independent"] > sizes["correlated"]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            skyline_relation("sideways", 10, 2)


class TestTrips:
    def test_schema_and_season(self):
        trips = generate_trips(50, seed=4)
        assert set(trips.attributes) == {
            "tid", "destination", "start_date", "duration", "price",
        }
        for row in trips:
            assert isinstance(row["start_date"], datetime.date)
            assert datetime.date(2001, 11, 1) <= row["start_date"]
            assert row["duration"] >= 6

    def test_deterministic(self):
        assert generate_trips(20, seed=8).rows() == generate_trips(20, seed=8).rows()


class TestLogs:
    def test_loyalty_dominates(self):
        log = generate_query_log(200, seed=6, favorite_makes=("VW",), loyalty=0.9)
        makes = [v for a, v in log if a == "make"]
        assert makes.count("VW") / len(makes) > 0.7

    def test_entries_shape(self):
        log = generate_query_log(10, seed=6)
        assert all(attr in ("make", "price", "color") for attr, _ in log)
