"""The paper's quantitative and structural claims beyond the worked examples.

* Proposition 13's filter-effect inequalities (randomized),
* the AND/OR interpretation of Pareto vs. prioritized filters,
* the O(n^2) better-than-test complexity of naive Pareto evaluation,
* the [KFH01] result-size claim ("a few to a few dozens"),
* Example 6's preference engineering scenario end to end.
"""

import pytest
from hypothesis import given, settings

from tests.conftest import nonempty_rows_st

from repro.core.base_nonnumerical import ExplicitPreference, PosPreference
from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import (
    intersection,
    pareto,
    prioritized,
    union,
)
from repro.datasets.cars import example6_preferences, generate_cars
from repro.query.algorithms import ComparisonCounter, naive_nested_loop
from repro.query.bmo import result_size, winnow


class TestProposition13FilterEffects:
    """size inequalities: +/<>/&/(x) ordered by filter strength."""

    @given(nonempty_rows_st)
    @settings(max_examples=40)
    def test_union_is_stronger_than_components(self, rows):
        p1 = ExplicitPreference("a", [(0, 1)], rank_others=False)
        p2 = ExplicitPreference("a", [(3, 4)], rank_others=False)
        u = union(p1, p2)
        assert result_size(u, rows) <= result_size(p1, rows)
        assert result_size(u, rows) <= result_size(p2, rows)

    @given(nonempty_rows_st)
    @settings(max_examples=40)
    def test_intersection_is_weaker_than_components(self, rows):
        p1 = AroundPreference("a", 2)
        p2 = LowestPreference("a")
        i = intersection(p1, p2)
        assert result_size(i, rows) >= result_size(p1, rows)
        assert result_size(i, rows) >= result_size(p2, rows)

    @given(nonempty_rows_st)
    @settings(max_examples=40)
    def test_prioritized_is_stronger_than_head(self, rows):
        # Proposition 13c; per the paper's proof, both sizes are measured by
        # projecting onto the union attributes A = A1 u A2.
        p1 = PosPreference("a", {1, 3})
        p2 = AroundPreference("b", 2)
        union_attrs = ("a", "b")
        assert result_size(
            prioritized(p1, p2), rows, attributes=union_attrs
        ) <= result_size(p1, rows, attributes=union_attrs)

    @given(nonempty_rows_st)
    @settings(max_examples=40)
    def test_pareto_is_weaker_than_prioritized(self, rows):
        p1 = PosPreference("a", {1, 3})
        p2 = AroundPreference("b", 2)
        px = pareto(p1, p2)
        assert result_size(px, rows) >= result_size(prioritized(p1, p2), rows)
        assert result_size(px, rows) >= result_size(prioritized(p2, p1), rows)

    def test_and_or_interpretation(self):
        # The paper's reading: & resembles AND (stronger filter), (x)
        # resembles OR (weaker filter) — demonstrated on a concrete set.
        rows = [{"a": a, "b": b} for a in range(4) for b in range(4)]
        p1, p2 = PosPreference("a", {1}), PosPreference("b", {2})
        assert (
            result_size(prioritized(p1, p2), rows)
            <= result_size(p1, rows)
            <= result_size(pareto(p1, p2), rows)
        )


class TestComplexityClaim:
    """Naive Pareto evaluation performs O(n^2) better-than tests (§5.1)."""

    def test_quadratic_worst_case_is_exact(self):
        # Worst case: a conflicting Pareto preference ranks nothing, so no
        # candidate is ever eliminated early — exactly n(n-1) tests.
        for n in (20, 40):
            rows = [{"x": float(i)} for i in range(n)]
            counter = ComparisonCounter()
            pref = counter.wrap(
                pareto(HighestPreference("x"), LowestPreference("x"))
            )
            naive_nested_loop(pref, rows)
            assert counter.comparisons == n * (n - 1)

    def test_superlinear_growth_on_anticorrelated_data(self):
        import math

        from repro.datasets.skyline_data import anticorrelated

        counts = {}
        for n in (50, 400):
            rows = anticorrelated(n, 2, seed=17)
            counter = ComparisonCounter()
            pref = counter.wrap(
                pareto(HighestPreference("d0"), HighestPreference("d1"))
            )
            naive_nested_loop(pref, rows)
            counts[n] = counter.comparisons
        # Anticorrelated data keeps most candidates undominated; the fitted
        # exponent sits clearly above linear (short-circuiting keeps it a
        # bit below the n(n-1) worst case, which the test above pins down).
        exponent = math.log(counts[400] / counts[50]) / math.log(400 / 50)
        assert exponent > 1.3
        assert counts[400] <= 400 * 399


class TestResultSizeClaim:
    """[KFH01]: typical Pareto BMO result sizes are a few to a few dozens."""

    def test_car_shop_result_sizes(self):
        # Realistic shop sessions: a hard constraint narrows the catalog
        # (the paper's queries all carry a WHERE clause), then 2-3 soft
        # criteria rank the survivors.
        cars = generate_cars(2000, seed=11).select(
            lambda r: r["make"] == "Opel"
        )
        wishes = [
            pareto(AroundPreference("price", 25000),
                   LowestPreference("mileage")),
            pareto(AroundPreference("price", 25000),
                   LowestPreference("mileage"),
                   HighestPreference("horsepower")),
            pareto(PosPreference("color", {"red", "black"}),
                   AroundPreference("price", 30000),
                   HighestPreference("year")),
        ]
        for wish in wishes:
            size = result_size(wish, cars)
            assert 1 <= size <= 60, size  # "a few to a few dozens"


class TestExample6Scenario:
    """The preference engineering story runs end to end."""

    def test_wish_lists_compose_and_run(self):
        prefs = example6_preferences()
        cars = generate_cars(400, seed=7)
        q1 = winnow(prefs["Q1"], cars)
        q2 = winnow(prefs["Q2"], cars)
        q1s = winnow(prefs["Q1_star"], cars)
        q2s = winnow(prefs["Q2_star"], cars)
        for res in (q1, q2, q1s, q2s):
            assert 0 < len(res) < len(cars)
        # Refining Q1 with Michael's P6/P7 prioritizations can only narrow
        # (Proposition 13c applied twice).
        assert len(q2) <= len(q1)
        assert len(q2s) <= len(q1s)

    def test_conflicting_colors_do_not_crash(self):
        # Julia dislikes gray; Leslie likes blue and dislikes gray AND red.
        # Mixing them (Q1*) must simply work — desideratum 4.
        prefs = example6_preferences()
        cars = generate_cars(100, seed=3)
        assert len(winnow(prefs["Q1_star"], cars)) > 0

    def test_vendor_preference_respected_last(self):
        prefs = example6_preferences()
        cars = generate_cars(400, seed=7)
        q2 = winnow(prefs["Q2"], cars)
        # Within Q2's result, commission refined groups that Q1 & P6 left
        # tied; Q2 is a subset of the Q1 & P6 result.
        q1_p6 = winnow(prioritized(prioritized(prefs["Q1"], prefs["P6"]),
                                prefs["P7"]), cars)
        key = lambda r: tuple(sorted(r.items()))
        assert {key(r) for r in q2} == {key(r) for r in q1_p6}
