"""Algorithm tests: unit behaviour plus the agreement property — every
engine must compute exactly the maxima the naive evaluator defines."""

import pytest
from hypothesis import given, settings

from tests.conftest import nonempty_rows_st, preference_st

from repro.core.base_nonnumerical import PosPreference
from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    LowestPreference,
    ScorePreference,
)
from repro.core.constructors import dual, pareto, prioritized, rank
from repro.core.preference import AntiChain, ChainPreference
from repro.engine.columnar import sort_based_maxima
from repro.query.algorithms import (
    ALGORITHMS,
    ComparisonCounter,
    block_nested_loop,
    chain_axis,
    compatible_sort_key,
    naive_nested_loop,
    sort_filter_skyline,
)


def _key(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


SKYLINE_3D = pareto(
    HighestPreference("a"), LowestPreference("b"), HighestPreference("c")
)


class TestNaive:
    def test_trivial(self):
        rows = [{"x": 1}, {"x": 3}, {"x": 2}]
        assert naive_nested_loop(HighestPreference("x"), rows) == [{"x": 3}]

    def test_duplicates_fan_out(self):
        rows = [{"x": 3, "i": 1}, {"x": 3, "i": 2}, {"x": 1, "i": 3}]
        out = naive_nested_loop(HighestPreference("x"), rows)
        assert {r["i"] for r in out} == {1, 2}


class TestAgreementProperties:
    @given(preference_st(max_depth=3), nonempty_rows_st)
    @settings(max_examples=60)
    def test_bnl_agrees_with_naive(self, pref, rows):
        assert _key(block_nested_loop(pref, rows)) == _key(
            naive_nested_loop(pref, rows)
        )

    @given(preference_st(max_depth=3), nonempty_rows_st)
    @settings(max_examples=60)
    def test_sfs_agrees_with_naive_when_key_exists(self, pref, rows):
        if compatible_sort_key(pref) is None:
            pytest.skip("no compatible key")
        assert _key(sort_filter_skyline(pref, rows)) == _key(
            naive_nested_loop(pref, rows)
        )

    @given(nonempty_rows_st)
    def test_two_arm_pass_agrees(self, rows):
        """Two chains: ``vsfs`` runs the engine's two-arm pass."""
        pref = pareto(HighestPreference("a"), LowestPreference("b"))
        assert _key(ALGORITHMS["vsfs"](pref, rows)) == _key(
            naive_nested_loop(pref, rows)
        )

    @given(nonempty_rows_st)
    def test_sort_based_agrees_for_score_prefs(self, rows):
        pref = AroundPreference("a", 2)
        assert _key(sort_based_maxima(pref, rows)) == _key(
            naive_nested_loop(pref, rows)
        )


class TestCompatibleSortKey:
    def test_score_pref(self):
        key = compatible_sort_key(AroundPreference("x", 10))
        assert key({"x": 10}) > key({"x": 0})

    def test_layered_pref(self):
        key = compatible_sort_key(PosPreference("c", {"red"}))
        assert key({"c": "red"}) > key({"c": "blue"})

    def test_dual_reverses(self):
        key = compatible_sort_key(dual(HighestPreference("x")))
        assert key({"x": 1}) > key({"x": 5})

    def test_compound_tuple_key(self):
        pref = prioritized(PosPreference("a", {1}), HighestPreference("b"))
        key = compatible_sort_key(pref)
        assert key({"a": 1, "b": 0}) > key({"a": 0, "b": 9})

    def test_antichain_constant(self):
        key = compatible_sort_key(AntiChain("x"))
        assert key({"x": 1}) == key({"x": 2})

    def test_property_dominance_implies_key_order(self, probe_rows):
        pref = pareto(
            PosPreference("a", {1, 2}), AroundPreference("b", 2)
        )
        key = compatible_sort_key(pref)
        for x in probe_rows[::6]:
            for y in probe_rows[::7]:
                if pref.lt(x, y):
                    assert key(x) < key(y)

    def test_sfs_without_key_raises(self):
        from repro.core.base_nonnumerical import ExplicitPreference
        from repro.core.constructors import union

        p = union(
            ExplicitPreference("x", [(1, 2)], rank_others=False),
            ExplicitPreference("x", [(3, 4)], rank_others=False),
        )
        assert compatible_sort_key(p) is None
        with pytest.raises(ValueError):
            sort_filter_skyline(p, [{"x": 1}])


class TestSkylineAxes:
    """``chain_axis``: the injective axis of one chain arm, which the code
    engine builds its composite arms on."""

    def test_chains_accepted(self):
        axes = [chain_axis(child) for child in SKYLINE_3D.children]
        assert all(axis is not None for axis in axes)
        better, worse = {"a": 2, "b": 1, "c": 2}, {"a": 1, "b": 2, "c": 1}
        assert all(axis(worse) < axis(better) for axis in axes)

    def test_around_children_refused(self):
        # Score equality is not projection equality for AROUND — one axis
        # would rank -5 with 5 (Example 2), so it must be refused (the
        # code engine gives such an arm two axes instead).
        assert chain_axis(AroundPreference("a", 0)) is None

    def test_dual_and_chain_preference_children(self):
        flipped = chain_axis(dual(LowestPreference("a")))
        assert flipped({"a": 1}) < flipped({"a": 2})
        keyed = chain_axis(ChainPreference("b", key=lambda v: -v))
        assert keyed({"b": 2}) < keyed({"b": 1})

    def test_prioritized_chain_is_one_lexicographic_axis(self):
        arm = prioritized(LowestPreference("a"), HighestPreference("b"))
        axis = chain_axis(arm)
        assert axis({"a": 2, "b": 9}) < axis({"a": 1, "b": 0})
        assert axis({"a": 1, "b": 0}) < axis({"a": 1, "b": 1})
        assert chain_axis(prioritized(PosPreference("a", {1}), arm)) is None


class TestSortBased:
    def test_requires_score(self):
        from repro.core.base_nonnumerical import ExplicitPreference

        with pytest.raises(ValueError):
            sort_based_maxima(
                ExplicitPreference("c", [("x", "y")]), [{"c": "x"}]
            )

    def test_rank_preferences_supported(self):
        pref = rank(
            lambda a, b: a + b,
            HighestPreference("a"),
            HighestPreference("b"),
            name="sum",
        )
        rows = [{"a": 1, "b": 1}, {"a": 0, "b": 3}, {"a": 2, "b": 0}]
        out = sort_based_maxima(pref, rows)
        assert out == [{"a": 0, "b": 3}]


class TestNaNScores:
    """A NaN score ranks against nothing: its row is maximal on its own,
    whatever position it holds in the input."""

    ROWS = [{"n": float("nan"), "i": 0}, {"n": 0, "i": 1}, {"n": 1, "i": 2},
            {"n": 3, "i": 3}, {"n": float("nan"), "i": 4}]

    @pytest.mark.parametrize("pref", [
        dual(ScorePreference(("n",), lambda v: v % 3, name="mod3")),
        AroundPreference("n", 0),
    ])
    def test_argmax_keeps_the_best_and_every_nan(self, pref):
        for rows in (self.ROWS, self.ROWS[::-1]):
            assert _key(sort_based_maxima(pref, rows)) == _key(
                naive_nested_loop(pref, rows)
            )

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_evaluator_keeps_every_nan(self, name):
        """Rows 0 and 4 score NaN; the best scored rows are 1 and 3 (both
        0 mod 3) under the dual, 1 alone (at the target) under AROUND."""
        evaluate = ALGORITHMS[name]
        for pref, kept in (
            (dual(ScorePreference(("n",), lambda v: v % 3, name="mod3")),
             {0, 1, 3, 4}),
            (AroundPreference("n", 0), {0, 1, 4}),
        ):
            for rows in (self.ROWS, self.ROWS[::-1]):
                assert {r["i"] for r in evaluate(pref, rows)} == kept

    def test_sfs_places_rows_its_key_cannot_order(self):
        """A NaN inside the presort key leaves ``sorted`` no consistent
        order; in some input orders 3 would land after 1, its dominator."""
        import itertools

        from repro.core.constructors import intersection

        mod3 = ScorePreference(("n",), lambda v: v % 3, name="mod3")
        pref = intersection(mod3, AroundPreference("n", 0))
        for order in itertools.permutations(self.ROWS[1:] + self.ROWS[:1]):
            rows = list(order)
            assert {r["i"] for r in sort_filter_skyline(pref, rows)} == {
                0, 1, 2, 4,
            }
            assert _key(sort_filter_skyline(pref, rows)) == _key(
                naive_nested_loop(pref, rows)
            )


class TestLowestOnAnyOrderedDomain:
    """LOWEST is ``x < y iff x > y`` (Definition 7c); only its score
    negates.  The simplifier writes ``HIGHEST(w)^d`` as ``LOWEST(w)``, so
    every evaluator must take it over words too."""

    ROWS = [{"w": w, "i": i} for i, w in enumerate(("bay", "elm", "ash"))]

    def test_every_row_evaluator(self):
        pref = LowestPreference("w")
        expected = [{"w": "ash", "i": 2}]
        assert naive_nested_loop(pref, self.ROWS) == expected
        assert sort_based_maxima(pref, self.ROWS) == expected
        assert ALGORITHMS["vsfs"](pref, self.ROWS) == expected

    def test_planned_dual_of_highest(self):
        from repro.query.api import PreferenceQuery

        pref = pareto(PosPreference("w", {"bay", "ash"}),
                      dual(HighestPreference("w")))
        planned = PreferenceQuery.over(self.ROWS).prefer(pref)
        assert "LOWEST(w)" in planned.explain()
        assert _key(planned.run()) == _key(naive_nested_loop(pref, self.ROWS))


class TestComparisonCounter:
    def test_counts_lt_calls(self):
        counter = ComparisonCounter()
        pref = counter.wrap(HighestPreference("x"))
        # Descending order maximizes work: the maximum (first candidate)
        # must scan everyone, every loser finds its dominator immediately.
        rows = [{"x": v} for v in reversed(range(10))]
        naive_nested_loop(pref, rows)
        assert counter.comparisons == 9 + 9  # 9 for the max, 1 per loser

    def test_counter_upper_bound_is_all_pairs(self):
        counter = ComparisonCounter()
        pref = counter.wrap(HighestPreference("x"))
        rows = [{"x": v} for v in range(10)]
        naive_nested_loop(pref, rows)
        assert 0 < counter.comparisons <= 10 * 9

    def test_bnl_uses_fewer_comparisons_on_chains(self):
        c_naive, c_bnl = ComparisonCounter(), ComparisonCounter()
        rows = [{"x": v} for v in range(50)]
        naive_nested_loop(c_naive.wrap(HighestPreference("x")), rows)
        block_nested_loop(c_bnl.wrap(HighestPreference("x")), rows)
        assert c_bnl.comparisons < c_naive.comparisons
