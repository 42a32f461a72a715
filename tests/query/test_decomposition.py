"""Propositions 8-12: decomposition evaluators must agree with direct BMO.

Each proposition is tested both on the paper's own example data and as a
hypothesis property against the naive evaluation of the composite term.
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
    DisjointUnionPreference,
    IntersectionPreference,
    ParetoPreference,
    PrioritizedPreference,
    pareto,
    prioritized,
)
from repro.core.preference import AntiChain
from repro.query.bmo import winnow
from repro.query.decomposition import (
    better_than_in,
    eval_by_decomposition,
    eval_intersection,
    eval_pareto_decomposition,
    eval_prioritized_cascade,
    eval_prioritized_grouping,
    eval_union,
    nmax_projections,
    yy_set,
)
from repro.relations.relation import Relation


def _distinct_keys(rows):
    return sorted({tuple(sorted(r.items())) for r in rows})


class TestDefinition17:
    def test_nmax(self):
        rows = [{"x": 1}, {"x": 2}, {"x": 3}]
        assert nmax_projections(HighestPreference("x"), rows) == {(1,), (2,)}

    def test_better_than_in(self):
        rows = [{"x": 1}, {"x": 2}, {"x": 3}]
        up = better_than_in(HighestPreference("x"), {"x": 1}, rows)
        assert up == {(2,), (3,)}

    def test_yy_example11(self):
        # Example 11: R = {3, 6, 9}, P1 = LOWEST, P2 = HIGHEST.
        p1, p2 = LowestPreference("A"), HighestPreference("A")
        rel = Relation.from_tuples("R", ["A"], [(3,), (6,), (9,)])
        yy = yy_set(
            prioritized(p1, p2), prioritized(p2, p1), rel
        )
        assert [r["A"] for r in yy] == [6]


class TestProposition8:
    def test_union_example(self):
        p1 = ExplicitPreference("x", [(1, 2)], rank_others=False)
        p2 = ExplicitPreference("x", [(3, 4)], rank_others=False)
        rows = [{"x": v} for v in (1, 2, 3, 4)]
        out = eval_union(p1, p2, rows)
        assert _distinct_keys(out) == _distinct_keys(
            winnow(DisjointUnionPreference((p1, p2)), rows)
        )

    @given(nonempty_rows_st)
    def test_union_property(self, rows):
        # Disjoint ranges via explicit orders on separate value islands.
        p1 = ExplicitPreference("a", [(0, 1)], rank_others=False)
        p2 = ExplicitPreference("a", [(3, 4)], rank_others=False)
        direct = winnow(DisjointUnionPreference((p1, p2)), rows)
        decomposed = eval_union(p1, p2, rows)
        assert _distinct_keys(direct) == _distinct_keys(decomposed)


class TestProposition9:
    @given(nonempty_rows_st)
    @settings(max_examples=50)
    def test_intersection_property(self, rows):
        p1 = AroundPreference("a", 2)
        p2 = LowestPreference("a")
        direct = winnow(IntersectionPreference((p1, p2)), rows)
        decomposed = eval_intersection(p1, p2, rows)
        assert _distinct_keys(direct) == _distinct_keys(decomposed)

    @given(nonempty_rows_st)
    @settings(max_examples=50)
    def test_intersection_property_cross_attribute(self, rows):
        # The YY machinery also handles components on different attributes
        # (needed by Proposition 12's third term).
        p1 = prioritized(HighestPreference("a"), LowestPreference("b"))
        p2 = prioritized(LowestPreference("b"), HighestPreference("a"))
        direct = winnow(pareto(HighestPreference("a"), LowestPreference("b")), rows)
        decomposed = eval_intersection(p1, p2, rows)
        assert _distinct_keys(direct) == _distinct_keys(decomposed)


class TestProposition10:
    def test_example10(self):
        p1 = AntiChain("Make")
        p2 = AroundPreference("Price", 40000)
        cars = Relation.from_tuples(
            "Cars",
            ["Make", "Price", "Oid"],
            [("Audi", 40000, 1), ("BMW", 35000, 2), ("VW", 20000, 3),
             ("BMW", 50000, 4)],
        )
        out = eval_prioritized_grouping(p1, p2, cars)
        assert sorted(r["Oid"] for r in out) == [1, 2, 3]

    @given(nonempty_rows_st)
    @settings(max_examples=50)
    def test_grouping_property(self, rows):
        p1 = PosPreference("a", {1, 2})
        p2 = AroundPreference("b", 2)
        direct = winnow(prioritized(p1, p2), rows)
        decomposed = eval_prioritized_grouping(p1, p2, rows)
        assert _distinct_keys(direct) == _distinct_keys(decomposed)

    def test_shared_attributes_collapse_to_p1(self):
        # Proposition 4a degenerate case.
        p1 = PosPreference("a", {1})
        p2 = PosPreference("a", {2})
        rows = [{"a": v} for v in (1, 2, 3)]
        out = eval_prioritized_grouping(p1, p2, rows)
        assert _distinct_keys(out) == _distinct_keys(winnow(p1, rows))

    def test_partial_overlap_rejected(self):
        p1 = pareto(PosPreference("a", {1}), PosPreference("b", {1}))
        p2 = PosPreference("b", {2})
        with pytest.raises(ValueError):
            eval_prioritized_grouping(p1, p2, [{"a": 1, "b": 1}])


class TestProposition11:
    @given(nonempty_rows_st)
    @settings(max_examples=50)
    def test_cascade_property(self, rows):
        p1 = LowestPreference("a")  # a chain
        p2 = AroundPreference("b", 2)
        direct = winnow(prioritized(p1, p2), rows)
        cascaded = eval_prioritized_cascade(p1, p2, rows)
        assert _distinct_keys(direct) == _distinct_keys(cascaded)

    def test_requires_chain(self):
        with pytest.raises(ValueError):
            eval_prioritized_cascade(
                PosPreference("a", {1}), LowestPreference("b"), [{"a": 1, "b": 1}]
            )


class TestProposition12:
    @given(nonempty_rows_st)
    @settings(max_examples=50)
    def test_pareto_master_theorem(self, rows):
        p1 = AroundPreference("a", 2)
        p2 = LowestPreference("b")
        direct = winnow(pareto(p1, p2), rows)
        decomposed = eval_pareto_decomposition(p1, p2, rows)
        assert _distinct_keys(direct) == _distinct_keys(decomposed)

    @given(nonempty_rows_st)
    @settings(max_examples=30)
    def test_pareto_master_theorem_layered(self, rows):
        p1 = PosPreference("a", {1, 4})
        p2 = PosPreference("b", {2})
        direct = winnow(pareto(p1, p2), rows)
        decomposed = eval_pareto_decomposition(p1, p2, rows)
        assert _distinct_keys(direct) == _distinct_keys(decomposed)

    def test_example11_full_result(self):
        p1, p2 = LowestPreference("A"), HighestPreference("A")
        rel = Relation.from_tuples("R", ["A"], [(3,), (6,), (9,)])
        out = winnow(pareto(p1, p2), rel)
        assert sorted(r["A"] for r in out) == [3, 6, 9]


class TestDispatch:
    def test_dispatch_by_type(self):
        rows = [{"a": v, "b": w} for v in (0, 1) for w in (0, 1)]
        pref = prioritized(LowestPreference("a"), HighestPreference("b"))
        out = eval_by_decomposition(pref, rows)
        assert _distinct_keys(out) == _distinct_keys(winnow(pref, rows))

    def test_dispatch_shared_attribute_pareto_uses_prop6(self):
        pref = pareto(AroundPreference("a", 1), LowestPreference("a"))
        rows = [{"a": v} for v in (0, 1, 2, 3)]
        out = eval_by_decomposition(pref, rows)
        assert _distinct_keys(out) == _distinct_keys(winnow(pref, rows))

    def test_dispatch_rejects_leaves(self):
        with pytest.raises(ValueError):
            eval_by_decomposition(LowestPreference("a"), [{"a": 1}])
