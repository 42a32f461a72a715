"""The semantic rewrite rules: winnow_to_sort and remove_redundant_winnow.

Explain-trace assertions pin *when* each rule fires and what constraint
provenance it records; the hypothesis suite asserts the load-bearing
property — on random constraint-satisfying instances, the optimized plan
returns **tuple-identical** results to the unoptimized winnow.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.base_numerical import (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import pareto, prioritized
from repro.query.plan import PreferenceSelect
from repro.relations.schema import Key
from repro.session import Session


def _session(rows, name="t"):
    return Session({name: rows})


def _assert_rebuilt_as_argmax(plan, provenance):
    """winnow_to_sort rebuilt the winnow over the reduced weak order: the
    planner's one-pass argmax, with the proof's constraints named once."""
    root = plan.root
    assert isinstance(root, PreferenceSelect) and root.algorithm == "sort"
    assert "winnow_to_sort" in plan.rewrite_rules()
    assert plan.explain().count(provenance) == 1


class TestWinnowToSort:
    def test_key_chain_head_collapses_prioritization(self):
        rows = [
            {"rating": float(i), "price": (i * 37) % 100, "power": i % 7}
            for i in range(50)
        ]
        q = _session(rows).query("t").prefer(prioritized(
            HighestPreference("rating"),
            pareto(AroundPreference("price", 50), HighestPreference("power")),
        ))
        text = q.explain()
        assert "winnow_to_sort" in text
        assert "key(rating)" in text
        assert "later stages never apply" in text
        _assert_rebuilt_as_argmax(q.plan(), "key(rating)")
        assert q.run().rows() == q.optimize(False).run().rows()

    def test_declared_key_used_when_stats_cannot_prove_one(self):
        # Values repeat *per column pair* but the declared key is trusted.
        rows = [{"id": i, "v": i % 3} for i in range(20)]
        session = _session(rows)
        session.declare_constraints("t", Key(("id",)))
        text = session.query("t").prefer(LowestPreference("id")).explain()
        assert "winnow_to_sort" in text
        assert "key(id) [declared]" in text

    def test_no_key_no_singleton_certification(self):
        rows = [{"a": i % 5, "b": i % 3} for i in range(30)]
        q = _session(rows).query("t").prefer(prioritized(
            LowestPreference("a"), HighestPreference("b"),
        ))
        text = q.explain()
        assert "winnow_to_sort" not in text
        assert "split_prio" in text  # the traditional cascade still fires

    def test_forced_algorithm_suppresses_rule(self):
        rows = [{"rating": float(i)} for i in range(10)]
        q = (
            _session(rows).query("t")
            .prefer(HighestPreference("rating"))
            .using("bnl")
        )
        assert "winnow_to_sort" not in q.explain()

    def test_forced_code_kernel_keeps_the_term_whole(self):
        """The constant ``n1`` reduces the automatic plan to an argmax;
        ``using("vsfs")`` runs the unreduced Pareto term, same answer."""
        rows = [{"a": a, "n1": 1} for a in (2.0, 1.0, 3.0, 3.0)]
        pref = pareto(HighestPreference("a"), AroundPreference("n1", 0))
        auto = _session(rows).query("t").prefer(pref)
        _assert_rebuilt_as_argmax(auto.plan(), "n1 = 1")
        forced = auto.using("vsfs").plan()
        assert isinstance(forced.root, PreferenceSelect)
        assert forced.root.algorithm == "vsfs"
        assert forced.root.pref.attribute_set == {"a", "n1"}
        assert "winnow_to_sort" not in forced.rewrite_rules()
        assert auto.using("vsfs").run().rows() == auto.run().rows()

    @pytest.mark.parametrize("pref, kept", [
        # The constant n1 prunes each term to one arm proved a weak order;
        # the NaN row is comparable to nothing, so it is maximal beside
        # the best scored row (the column fast path, then the score path).
        (pareto(HighestPreference("a"), AroundPreference("n1", 0)), [2.0]),
        (pareto(AroundPreference("a", 0), AroundPreference("n1", 0)), [1.0]),
    ])
    def test_nan_rows_form_their_own_maximal_class(self, pref, kept):
        from repro.query.algorithms import naive_nested_loop

        rows = [{"a": a, "n1": 1} for a in (float("nan"), 2.0, 1.0)]
        q = _session(rows).query("t").prefer(pref)
        _assert_rebuilt_as_argmax(q.plan(), "n1 = 1")
        result = [r["a"] for r in q.run().rows()]
        assert result[0] != result[0] and result[1:] == kept
        assert len(naive_nested_loop(pref, rows)) == len(result)

    def test_all_nan_scores_keep_every_row(self):
        rows = [{"n0": float("nan"), "n1": 1.0} for _ in range(3)]
        q = _session(rows).query("t").prefer(pareto(
            AroundPreference("n0", 0), AroundPreference("n1", 0),
        ))
        _assert_rebuilt_as_argmax(q.plan(), "n1 = 1.0")
        assert q.count() == 3


class TestRemoveRedundantWinnow:
    def test_key_equality_makes_winnow_identity(self):
        rows = [
            {"id": i, "price": (i * 13) % 50, "power": i % 4}
            for i in range(40)
        ]
        q = (
            _session(rows).query("t")
            .where(id=7)
            .prefer(pareto(
                AroundPreference("price", 25), HighestPreference("power"),
            ))
        )
        text = q.explain()
        assert "remove_redundant_winnow" in text
        assert "key(id)" in text
        assert "one tuple" in text
        result = q.run().rows()
        assert result == q.optimize(False).run().rows()
        assert len(result) == 1

    def test_constant_columns_make_preference_indifferent(self):
        rows = [{"k": 5, "v": i} for i in range(10)]
        q = _session(rows).query("t").prefer(pareto(
            HighestPreference("k"), BetweenPreference("v", -100, 100),
        ))
        text = q.explain()
        assert "remove_redundant_winnow" in text
        assert "indifferent" in text
        assert q.run().rows() == q.optimize(False).run().rows()
        assert q.count() == len(rows)

    def test_unconstrained_winnow_survives(self):
        rows = [{"a": i % 4, "b": i % 5} for i in range(30)]
        q = _session(rows).query("t").prefer(pareto(
            HighestPreference("a"), HighestPreference("b"),
        ))
        assert "remove_redundant_winnow" not in q.explain()


# -- hypothesis equivalence: optimized == unoptimized, tuple for tuple ------

rating_lists = st.lists(
    st.integers(min_value=-1000, max_value=1000),
    min_size=2, max_size=40, unique=True,
)
small_ints = st.integers(min_value=-20, max_value=20)


@given(
    ratings=rating_lists,
    prices=st.lists(small_ints, min_size=40, max_size=40),
    powers=st.lists(small_ints, min_size=40, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_winnow_to_sort_equivalence(ratings, prices, powers):
    """Key-headed chains: winnow_to_sort output == unoptimized winnow."""
    rows = [
        {"rating": r, "price": prices[i], "power": powers[i]}
        for i, r in enumerate(ratings)
    ]
    q = _session(rows).query("t").prefer(prioritized(
        HighestPreference("rating"),
        pareto(AroundPreference("price", 0), HighestPreference("power")),
    ))
    assert "winnow_to_sort" in q.explain()
    assert q.run().rows() == q.optimize(False).run().rows()


@given(
    values=st.lists(small_ints, min_size=2, max_size=30),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_remove_redundant_winnow_equivalence(values, data):
    """Key-pinning WHERE: removed winnow == unoptimized winnow."""
    rows = [{"id": i, "v": v} for i, v in enumerate(values)]
    target = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
    q = (
        _session(rows).query("t")
        .where(id=target)
        .prefer(pareto(HighestPreference("v"), LowestPreference("id")))
    )
    assert "remove_redundant_winnow" in q.explain()
    assert q.run().rows() == q.optimize(False).run().rows()


@given(
    constant=small_ints,
    values=st.lists(small_ints, min_size=1, max_size=30),
)
@settings(max_examples=40, deadline=None)
def test_constant_prune_equivalence(constant, values):
    """Constant-column arms pruned by semantic rules keep results equal."""
    rows = [{"k": constant, "v": v} for v in values]
    q = _session(rows).query("t").prefer(pareto(
        HighestPreference("k"), LowestPreference("v"),
    ))
    assert q.run().rows() == q.optimize(False).run().rows()


class TestSortedWinnowNode:
    # A bare chain only gets a trace-level certification; the winnow is
    # rebuilt as the argmax when constraints *change* the term, as in the
    # key-headed prioritization collapse.
    def _chain_query(self):
        rows = [{"a": float(i), "b": i % 3} for i in range(5)]
        return _session(rows).query("t").prefer(prioritized(
            HighestPreference("a"), LowestPreference("b"),
        ))

    def test_plan_nodes_are_frozen(self):
        plan = self._chain_query().plan()
        _assert_rebuilt_as_argmax(plan, "key(a)")
        root = plan.root
        with pytest.raises(Exception):
            root.pref = None  # frozen dataclass

    def test_explain_lines_name_constraint(self):
        plan = self._chain_query().plan()
        _assert_rebuilt_as_argmax(plan, "key(a)")
        assert "constraint: key(a)" in plan.explain()
        # The rebuilt node is not certified again.
        assert plan.rewrite_rules() == ("winnow_to_sort",)
        assert len(plan.rewrites) == 1

    def test_general_sort_path_matches_winnow(self):
        # AROUND has a score function but no single-column argmax path.
        rows = [{"a": float(i)} for i in range(20)]
        q = _session(rows).query("t").prefer(AroundPreference("a", 7.2))
        assert q.run().rows() == q.optimize(False).run().rows()
