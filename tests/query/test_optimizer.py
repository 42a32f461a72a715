"""Optimizer tests: algorithm choice, cascades, plan shapes, EXPLAIN, and
the master property — optimized execution equals naive BMO."""

import pytest
from hypothesis import given, settings

from tests.conftest import canon_rows, nonempty_rows_st, preference_st

from repro.core.base_nonnumerical import PosPreference
from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import dual, pareto, prioritized, rank
from repro.psql.ast import Comparison
from repro.query.api import WhereSpec
from repro.query.bmo import winnow
from repro.datasets.cars import generate_cars
from repro.query.algorithms import ALGORITHMS, naive_nested_loop
from repro.query.optimizer import (
    choose_algorithm,
    execute,
    explain,
    full_winnow,
    plan,
)
from repro.query.rewrite import cascade_stages
from repro.query.plan import Cascade, PreferenceSelect, TopK
from repro.query.quality import QualityCondition
from repro.relations.relation import Relation


def rel(rows):
    return Relation.from_dicts("r", rows) if rows else Relation.from_dicts(
        "r", [{"a": 0, "b": 0, "c": 0}]
    ).limit(0)


class TestChooseAlgorithm:
    def test_score_prefs_sort(self):
        assert choose_algorithm(AroundPreference("x", 1)) == "sort"
        assert choose_algorithm(
            rank(lambda a, b: a + b, HighestPreference("x"), LowestPreference("y"))
        ) == "sort"

    def test_2d_skyline(self):
        pref = pareto(HighestPreference("x"), LowestPreference("y"))
        assert choose_algorithm(pref) == "vsfs"

    def test_multi_d_skyline(self):
        assert choose_algorithm(
            pareto(
                HighestPreference("x"),
                LowestPreference("y"),
                HighestPreference("z"),
            )
        ) == "vsfs"

    def test_weak_order_arms_lower_to_codes(self):
        pref = pareto(PosPreference("c", {"x"}), AroundPreference("p", 1))
        assert choose_algorithm(pref) == "vsfs"

    def test_sfs_when_key_exists(self):
        """An EXPLICIT arm has no code axes but a level key."""
        from repro.core.base_nonnumerical import ExplicitPreference

        pref = pareto(
            ExplicitPreference("c", [("x", "y")]), AroundPreference("p", 1)
        )
        assert choose_algorithm(pref) == "sfs"

    def test_bare_chain_prioritization_stays_row(self):
        pref = prioritized(LowestPreference("x"), HighestPreference("y"))
        assert choose_algorithm(pref) == "sfs"

    def test_bnl_fallback(self):
        from repro.core.base_nonnumerical import ExplicitPreference
        from repro.core.constructors import union

        pref = union(
            ExplicitPreference("x", [(1, 2)], rank_others=False),
            ExplicitPreference("x", [(3, 4)], rank_others=False),
        )
        assert choose_algorithm(pref) == "bnl"


class TestPlanShapes:
    def test_cascade_for_chain_heads(self):
        pref = prioritized(
            LowestPreference("a"), pareto(HighestPreference("b"), LowestPreference("c"))
        )
        rows = [{"a": i % 3, "b": i % 5, "c": i % 7} for i in range(20)]
        p = plan(pref, rel(rows))
        assert isinstance(p.root, Cascade)
        assert len(p.root.stages) == 2
        assert "split_prio" in p.rewrite_rules()

    def test_full_winnow_runs_the_planned_cascade(self, monkeypatch):
        """A view rebuild's winnow decides like the planner: the refined
        churn term ``LOWEST(price) & HIGHEST(year)`` runs as the two argmax
        stages ``split_prio`` plans, never the row SFS, and keeps the
        naive nested loop's rows (as a bag, the caller's own dicts)."""
        pref = prioritized(LowestPreference("price"), HighestPreference("year"))
        assert [a for _, a in cascade_stages(pref)] == ["sort", "sort"]
        rows = generate_cars(300, seed=5).rows()
        rows += [dict(rows[0]), dict(rows[0], year=rows[0]["year"] + 1)]
        ran = []
        for name in ("sort", "sfs", "bnl", "vsfs"):
            real = ALGORITHMS[name]
            monkeypatch.setitem(
                ALGORITHMS, name,
                lambda p, r, real=real, name=name: ran.append(name) or real(p, r),
            )
        got = full_winnow(pref, rows)
        assert ran == ["sort", "sort"]
        assert all(any(g is r for r in rows) for g in got)
        assert canon_rows(got) == canon_rows(naive_nested_loop(pref, rows))

    def test_no_cascade_without_chain_head(self):
        pref = prioritized(PosPreference("a", {1}), LowestPreference("b"))
        rows = [{"a": i % 3, "b": i % 5} for i in range(20)]
        p = plan(pref, rel(rows))
        assert isinstance(p.root, PreferenceSelect)

    def test_single_tuple_shortcut(self):
        """Rule 4: winnows over provably <=1-row inputs are the identity."""
        pref = prioritized(LowestPreference("a"), HighestPreference("b"))
        p = plan(pref, rel([{"a": 1, "b": 1}]))
        assert not isinstance(p.root, (Cascade, PreferenceSelect))
        assert "drop_trivial_winnow" in p.rewrite_rules()
        assert p.execute().rows() == [{"a": 1, "b": 1}]

    def test_top_k_plan(self):
        p = plan(AroundPreference("a", 1), rel([{"a": 1}]), top_k=3)
        assert isinstance(p.root, TopK)

    def test_rewrites_recorded(self):
        pref = prioritized(PosPreference("a", {1}), PosPreference("a", {1}))
        p = plan(pref, rel([{"a": 1}]))
        assert p.rewrites  # prioritized_covered fired

    def test_rewriter_can_be_disabled(self):
        pref = dual(dual(PosPreference("a", {1})))
        p = plan(pref, rel([{"a": 1}]), use_rewriter=False)
        assert not p.rewrites


class TestExecute:
    def test_hard_selection_applied_first(self):
        rows = [{"a": 1, "b": 5}, {"a": 2, "b": 9}]
        out = execute(
            HighestPreference("b"),
            rel(rows),
            wheres=[WhereSpec(
                lambda r: r["a"] == 1, "a = 1", Comparison("a", "=", 1)
            )],
        )
        assert out.rows() == [{"a": 1, "b": 5}]

    def test_but_only_applied_after(self):
        rows = [{"a": 7, "b": 1}]
        out = execute(
            AroundPreference("a", 0),
            rel(rows),
            but_only=[QualityCondition("distance", "a", "<=", 2)],
        )
        assert len(out) == 0

    def test_projection_and_limit(self):
        rows = [{"a": 1, "b": 5}, {"a": 2, "b": 5}]
        out = execute(
            HighestPreference("b"), rel(rows), select=["a"], limit=1
        )
        assert out.attributes == ("a",)
        assert len(out) == 1

    def test_groupby(self):
        rows = [
            {"a": 1, "b": 10},
            {"a": 1, "b": 20},
            {"a": 2, "b": 5},
        ]
        out = execute(HighestPreference("b"), rel(rows), groupby=["a"])
        assert sorted(r["b"] for r in out) == [5, 20]

    def test_explain_mentions_algorithm_and_laws(self):
        pref = prioritized(
            LowestPreference("a"), prioritized(PosPreference("b", {1}),
                                               PosPreference("b", {1}))
        )
        text = explain(pref, rel([{"a": 1, "b": 1}]))
        assert "Cascade" in text or "PreferenceSelect" in text
        assert "rewrites applied:" in text


class TestOptimizerCorrectnessProperty:
    @given(preference_st(max_depth=3), nonempty_rows_st)
    @settings(max_examples=60)
    def test_optimized_equals_naive(self, pref, rows):
        relation = Relation.from_dicts("r", rows)
        optimized = execute(pref, relation)
        naive = winnow(pref, relation, algorithm="naive")
        assert optimized == naive
