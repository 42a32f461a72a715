"""Rewriter tests: the normal form preserves Definition 13 equivalence,
plus targeted shape checks for the individual rules."""

from hypothesis import given, settings

from tests.conftest import all_rows, preference_st

from repro.algebra.equivalence import canonical_form, equivalent_on
from repro.algebra.rewriter import normalize
from repro.core.base_nonnumerical import NegPreference, PosPreference
from repro.core.base_numerical import (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import (
    DualPreference,
    IntersectionPreference,
    ParetoPreference,
    PrioritizedPreference,
    dual,
    pareto,
    prioritized,
)
from repro.core.preference import AntiChain

PROBE = all_rows()[::4]


class TestShapeRules:
    def test_dual_dual_cancels(self):
        p = PosPreference("a", {1})
        assert canonical_form(dual(dual(p))).signature == p.signature

    def test_dual_of_lowest_is_highest(self):
        assert isinstance(canonical_form(dual(LowestPreference("a"))), HighestPreference)
        assert isinstance(canonical_form(dual(HighestPreference("a"))), LowestPreference)

    def test_dual_of_pos_is_neg(self):
        out = canonical_form(dual(PosPreference("a", {1, 2})))
        assert isinstance(out, NegPreference)
        assert out.neg_set == frozenset({1, 2})

    def test_flattening(self):
        p = pareto(
            pareto(HighestPreference("a"), HighestPreference("b")),
            HighestPreference("c"),
        )
        out = canonical_form(p)
        assert isinstance(out, ParetoPreference)
        assert len(out.children) == 3

    def test_prioritized_covered_children_dropped(self):
        p = prioritized(
            HighestPreference("a"),
            LowestPreference("a"),  # same attribute: unreachable
            HighestPreference("b"),
        )
        out = canonical_form(p)
        assert isinstance(out, PrioritizedPreference)
        assert len(out.children) == 2

    def test_prioritized_idempotent(self):
        p = PosPreference("a", {1})
        assert canonical_form(prioritized(p, p)).signature == p.signature

    def test_pareto_duplicate_children(self):
        p = PosPreference("a", {1})
        assert canonical_form(pareto(p, p)).signature == p.signature

    def test_pareto_dual_pair_collapses(self):
        p = PosPreference("a", {1})
        out = canonical_form(pareto(p, dual(p)))
        assert isinstance(out, AntiChain)

    def test_pareto_pos_neg_pair_collapses(self):
        # POS(A, S) (x) NEG(A, S) is a dual pair in disguise.
        out = canonical_form(
            pareto(PosPreference("a", {1}), NegPreference("a", {1}))
        )
        assert isinstance(out, AntiChain)

    def test_pareto_antichain_becomes_grouping(self):
        out = canonical_form(pareto(AntiChain("g"), AroundPreference("p", 10)))
        assert isinstance(out, PrioritizedPreference)
        assert isinstance(out.children[0], AntiChain)

    def test_pareto_same_attrs_becomes_intersection(self):
        out = canonical_form(
            pareto(AroundPreference("a", 0), LowestPreference("a"))
        )
        assert isinstance(out, IntersectionPreference)

    def test_intersection_annihilated_by_dual_pair(self):
        p = LowestPreference("a")
        out = canonical_form(IntersectionPreference((p, dual(p))))
        assert isinstance(out, AntiChain)

    def test_between_point_is_around(self):
        out = canonical_form(BetweenPreference("a", 3, 3))
        assert isinstance(out, AroundPreference)
        assert out.z == 3

    def test_between_interval_untouched(self):
        out = canonical_form(BetweenPreference("a", 1, 3))
        assert not isinstance(out, AroundPreference)

    def test_simplify_once_reports_rule(self):
        _, steps = normalize(dual(dual(PosPreference("a", {1}))))
        assert steps[0][0] == "dual"

    def test_trace_records_steps(self):
        p = PosPreference("a", {1})
        _, trace = normalize(pareto(p, dual(p)))
        assert any(rule == "pareto_dual_pair" for rule, _, _ in trace)

    def test_commute_orders_commutative_arms(self):
        hi, lo = HighestPreference("b"), LowestPreference("a")
        out, steps = normalize(pareto(hi, lo))
        assert [c.signature for c in out.children] == [
            hi.signature, lo.signature
        ]
        assert [rule for rule, _, _ in steps] == []
        out, steps = normalize(pareto(lo, hi))
        assert [c.signature for c in out.children] == [
            hi.signature, lo.signature
        ]
        assert [rule for rule, _, _ in steps] == ["commute"]
        # Prioritized accumulation is not commutative: its order stays.
        assert canonical_form(prioritized(lo, hi)) == prioritized(lo, hi)


class TestSemanticPreservation:
    @given(preference_st(max_depth=4))
    @settings(max_examples=80)
    def test_simplify_preserves_equivalence(self, pref):
        simplified = canonical_form(pref)
        assert simplified.attribute_set == pref.attribute_set
        assert equivalent_on(pref, simplified, PROBE)

    @given(preference_st(max_depth=4))
    @settings(max_examples=40)
    def test_simplify_is_idempotent(self, pref):
        once = canonical_form(pref)
        twice = canonical_form(once)
        assert once.signature == twice.signature
