"""Propositions 2-6, checked semantically on randomized instances.

Each law's two sides are built from hypothesis-generated preferences and
compared with Definition 13 equivalence over the probe universe.  This file
is the machine-checked version of the paper's Section 4.
"""

import pytest
from hypothesis import given, settings

from tests.conftest import all_rows, preference_st

from repro.algebra.equivalence import equivalent_on
from repro.algebra.laws import ALL_LAWS, Law, law, laws_for
from repro.core.base_nonnumerical import ExplicitPreference, NegPreference, PosPreference
from repro.core.base_numerical import HighestPreference, LowestPreference
from repro.core.constructors import (
    DualPreference,
    LinearSumPreference,
    PrioritizedPreference,
)
from repro.core.domains import FiniteDomain
from repro.core.preference import AntiChain
from repro.core.validate import is_chain_on

PROBE = all_rows()[::4]


def _check(law_obj: Law, *prefs):
    lhs, rhs = law_obj.sides(*prefs)
    assert equivalent_on(lhs, rhs, PROBE), law_obj.name


single_attr_st = preference_st(max_depth=2).filter(
    lambda p: len(p.attributes) == 1
)
any_pref_st = preference_st(max_depth=2)


class TestProposition2:
    @given(any_pref_st, any_pref_st)
    def test_pareto_commutative(self, p1, p2):
        _check(law("pareto_commutative"), p1, p2)

    @given(any_pref_st, any_pref_st, any_pref_st)
    @settings(max_examples=25)
    def test_pareto_associative(self, p1, p2, p3):
        _check(law("pareto_associative"), p1, p2, p3)

    @given(any_pref_st, any_pref_st, any_pref_st)
    @settings(max_examples=25)
    def test_prioritized_associative(self, p1, p2, p3):
        _check(law("prioritized_associative"), p1, p2, p3)

    @given(single_attr_st, single_attr_st)
    def test_intersection_commutative(self, p1, p2):
        if p1.attribute_set != p2.attribute_set:
            pytest.skip("law needs identical attribute sets")
        _check(law("intersection_commutative"), p1, p2)

    def test_union_commutative_on_disjoint_ranges(self):
        p1 = ExplicitPreference("a", [(0, 1)], rank_others=False)
        p2 = ExplicitPreference("a", [(2, 3)], rank_others=False)
        _check(law("union_commutative"), p1, p2)

    def test_union_associative_on_disjoint_ranges(self):
        p1 = ExplicitPreference("a", [(0, 1)], rank_others=False)
        p2 = ExplicitPreference("a", [(2, 3)], rank_others=False)
        p3 = ExplicitPreference("a", [(4, 0)], rank_others=False)
        # ranges of p1, p3 overlap on 0: build genuinely disjoint ones
        p3 = ExplicitPreference("a", [(4, 5)], rank_others=False)
        lhs, rhs = law("union_associative").sides(p1, p2, p3)
        probe = [0, 1, 2, 3, 4, 5]
        assert equivalent_on(lhs, rhs, probe)

    def test_linear_sum_associative(self):
        a = AntiChain("x", FiniteDomain([1, 2]))
        b = AntiChain("y", FiniteDomain([3, 4]))
        c = AntiChain("z", FiniteDomain([5, 6]))
        lhs, rhs = law("linear_sum_associative").sides(a, b, c)
        probe = [1, 2, 3, 4, 5, 6]
        assert equivalent_on(lhs, rhs, probe)


class TestProposition3:
    @given(any_pref_st)
    def test_dual_involution(self, p):
        _check(law("dual_involution"), p)

    def test_dual_antichain(self):
        _check(law("dual_antichain"), AntiChain("a"))

    def test_dual_linear_sum(self):
        p = LinearSumPreference(
            ExplicitPreference(
                "x", [(1, 2)], domain=FiniteDomain([1, 2]), rank_others=False
            ),
            ExplicitPreference(
                "y", [(3, 4)], domain=FiniteDomain([3, 4]), rank_others=False
            ),
            attribute="xy",
        )
        lhs, rhs = law("dual_linear_sum").sides(p)
        assert equivalent_on(lhs, rhs, [1, 2, 3, 4])

    def test_highest_is_dual_lowest(self):
        _check(law("highest_is_dual_lowest"), HighestPreference("a"))

    def test_pos_dual_is_neg(self):
        _check(law("pos_dual_is_neg"), PosPreference("a", {1, 2}))

    def test_neg_dual_is_pos(self):
        _check(law("neg_dual_is_pos"), NegPreference("a", {3}))

    @given(any_pref_st)
    def test_intersection_idempotent(self, p):
        _check(law("intersection_idempotent"), p)

    @given(any_pref_st)
    def test_intersection_with_dual(self, p):
        _check(law("intersection_with_dual"), p)

    @given(any_pref_st)
    def test_intersection_with_antichain(self, p):
        _check(law("intersection_with_antichain"), p)

    @given(any_pref_st)
    def test_prioritized_idempotent(self, p):
        _check(law("prioritized_idempotent"), p)

    @given(any_pref_st)
    def test_prioritized_with_dual(self, p):
        _check(law("prioritized_with_dual"), p)

    @given(any_pref_st)
    def test_prioritized_antichain_right(self, p):
        _check(law("prioritized_antichain_right"), p)

    @given(any_pref_st)
    def test_prioritized_antichain_left(self, p):
        _check(law("prioritized_antichain_left"), p)

    @given(any_pref_st)
    def test_pareto_idempotent(self, p):
        _check(law("pareto_idempotent"), p)

    @given(any_pref_st)
    def test_pareto_antichain_is_grouping(self, p):
        _check(law("pareto_antichain_is_grouping"), p)

    @given(any_pref_st)
    def test_pareto_with_antichain(self, p):
        _check(law("pareto_with_antichain"), p)

    @given(any_pref_st)
    def test_pareto_with_dual(self, p):
        _check(law("pareto_with_dual"), p)

    def test_3h_prioritized_chains_are_chains(self):
        p = PrioritizedPreference(
            (LowestPreference("a"), HighestPreference("b"))
        )
        assert is_chain_on(p, PROBE)


class TestPropositions4to6:
    @given(single_attr_st, single_attr_st)
    def test_discrimination_shared(self, p1, p2):
        if p1.attribute_set != p2.attribute_set:
            pytest.skip("law needs identical attribute sets")
        _check(law("discrimination_shared"), p1, p2)

    @given(single_attr_st, single_attr_st)
    def test_discrimination_disjoint(self, p1, p2):
        if p1.attribute_set & p2.attribute_set:
            pytest.skip("law needs disjoint attribute sets")
        _check(law("discrimination_disjoint"), p1, p2)

    @given(any_pref_st, any_pref_st)
    @settings(max_examples=60)
    def test_non_discrimination(self, p1, p2):
        _check(law("non_discrimination"), p1, p2)

    @given(single_attr_st, single_attr_st)
    def test_pareto_is_intersection_shared(self, p1, p2):
        if p1.attribute_set != p2.attribute_set:
            pytest.skip("law needs identical attribute sets")
        _check(law("pareto_is_intersection"), p1, p2)


class TestLawRegistry:
    def test_all_laws_have_provenance(self):
        for l in ALL_LAWS:
            assert l.reference.startswith("Proposition")

    def test_laws_for_prefix(self):
        assert {l.reference for l in laws_for("Proposition 3")} == {
            f"Proposition 3{x}" for x in "abcdefgijklmn"
        } - {"Proposition 3h"}  # 3h is a chain property, not an equivalence

    def test_unknown_law(self):
        with pytest.raises(KeyError):
            law("nonexistent")

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            law("dual_involution").sides()

    def test_every_law_holds_on_fixed_operands(self):
        """Every unary and binary law of the registry, over each pairing
        of four fixed operands: a new law is checked without a test of
        its own.  Union and linear sum need disjoint ranges or domains;
        their tests above build such operands."""
        import itertools

        from repro.core.base_numerical import AroundPreference

        operands = [
            PosPreference("a", {1, 2}),
            NegPreference("a", {0}),
            AroundPreference("a", 2),
            LowestPreference("a"),
        ]
        probe = [{"a": x, "b": y} for x in range(4) for y in range(4)]
        checked = 0
        for law_obj in ALL_LAWS:
            if law_obj.arity > 2 or law_obj.name.startswith(
                ("union", "linear_sum")
            ):
                continue
            for args in itertools.product(operands, repeat=law_obj.arity):
                try:
                    lhs, rhs = law_obj.sides(*args)
                except (ValueError, TypeError):
                    continue
                assert equivalent_on(lhs, rhs, probe), law_obj.name
                checked += 1
        assert checked > 50
