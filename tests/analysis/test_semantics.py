"""Constraint-driven semantic reasoning: prune, weak orders, reductions.

Unit tests for :mod:`repro.analysis.semantics` — the proofs behind the
``winnow_to_sort`` and ``remove_redundant_winnow`` rewrite rules.
"""

from repro.analysis.constraints import ConstraintSet
from repro.analysis.semantics import (
    indifference_proof,
    is_weak_order,
    semantic_facts,
    semantic_prune,
    weak_order_reduction,
)
from repro.core.base_nonnumerical import PosPreference
from repro.core.base_numerical import (
    BetweenPreference,
    HighestPreference,
    LowestPreference,
    ScorePreference,
)
from repro.core.constructors import DualPreference, pareto, prioritized
from repro.relations.schema import Check, Key


def _cs(*constraints):
    return ConstraintSet(constraints)


class TestIndifference:
    def test_constant_attribute_is_indifferent(self):
        proof = indifference_proof(
            HighestPreference("a"), _cs(Check("a", "=", 5)),
        )
        assert proof is not None and "a = 5" in proof

    def test_between_covering_value_range_is_indifferent(self):
        pref = BetweenPreference("a", 0, 100)
        proof = indifference_proof(
            pref, _cs(Check("a", ">=", 10), Check("a", "<=", 90)),
        )
        assert proof is not None and "BETWEEN interval" in proof

    def test_between_not_covering_is_kept(self):
        pref = BetweenPreference("a", 0, 50)
        assert indifference_proof(
            pref, _cs(Check("a", ">=", 10), Check("a", "<=", 90)),
        ) is None

    def test_unconstrained_attribute_is_kept(self):
        assert indifference_proof(HighestPreference("a"), _cs()) is None


class TestSemanticPrune:
    def test_prunes_constant_pareto_arm(self):
        pref = pareto(HighestPreference("a"), LowestPreference("b"))
        pruned, notes = semantic_prune(pref, _cs(Check("a", "=", 5)))
        assert pruned == LowestPreference("b")
        assert notes

    def test_whole_term_constant_prunes_to_none(self):
        pref = pareto(HighestPreference("a"), LowestPreference("b"))
        pruned, notes = semantic_prune(
            pref, _cs(Check("a", "=", 1), Check("b", "=", 2)),
        )
        assert pruned is None
        assert "a = 1" in notes[0] and "b = 2" in notes[0]

    def test_untouched_term_returned_identically(self):
        pref = pareto(HighestPreference("a"), LowestPreference("b"))
        pruned, notes = semantic_prune(pref, _cs(Key(("a",))))
        assert pruned is pref and notes == ()

    def test_dual_wraps_pruned_base(self):
        pref = DualPreference(
            pareto(HighestPreference("a"), LowestPreference("b"))
        )
        pruned, _ = semantic_prune(pref, _cs(Check("a", "=", 5)))
        assert pruned == DualPreference(LowestPreference("b"))

    def test_entangled_constructors_left_alone(self):
        pref = PosPreference("a", {1, 2})
        pruned, _ = semantic_prune(pref, _cs(Key(("a",))))
        assert pruned is pref


    def test_unordered_arm_with_distinct_values_is_kept(self):
        """A BETWEEN covering the value range orders nothing, but rows
        that differ on it are incomparable under Definition 8's ``=``
        clause — dropping the arm would let its siblings decide alone."""
        covered = _cs(Check("a", ">=", 0), Check("a", "<=", 1))
        between = BetweenPreference("a", 0, 1)
        for build in (pareto, prioritized):
            pref = build(between, LowestPreference("b"))
            assert semantic_prune(pref, covered) == (pref, ())
        rows = [{"a": 0, "b": 0}, {"a": 1, "b": 1}]
        from repro.query.api import PreferenceQuery
        from repro.query.bmo import winnow

        pref = pareto(LowestPreference("b"), between)
        assert PreferenceQuery.over(rows).prefer(pref).run() == winnow(
            pref, rows, algorithm="naive"
        ) == rows

    def test_all_unordered_arms_still_make_the_winnow_the_identity(self):
        covered = _cs(
            Check("a", ">=", 0), Check("a", "<=", 1), Check("b", "=", 5),
        )
        pref = pareto(BetweenPreference("a", 0, 1), LowestPreference("b"))
        pruned, notes = semantic_prune(pref, covered)
        assert pruned is None and len(notes) == 2


class TestWeakOrder:
    def test_chains_and_scores_are_weak_orders(self):
        assert is_weak_order(HighestPreference("a"))
        assert is_weak_order(ScorePreference("a", lambda v: v))
        assert not is_weak_order(
            pareto(HighestPreference("a"), LowestPreference("b"))
        )

    def test_chain_with_key_is_singleton(self):
        reduction = weak_order_reduction(
            HighestPreference("a"), _cs(Key(("a",))),
        )
        assert reduction is not None
        assert reduction.singleton and not reduction.changed
        assert any("key(a)" in p for p in reduction.provenance)

    def test_chain_without_key_is_plain_weak_order(self):
        reduction = weak_order_reduction(
            HighestPreference("a"), _cs(Key(("b",))),
        )
        assert reduction is not None and not reduction.singleton

    def test_key_headed_prioritization_collapses_to_head(self):
        pref = prioritized(
            HighestPreference("a"),
            pareto(LowestPreference("b"), HighestPreference("c")),
        )
        reduction = weak_order_reduction(pref, _cs(Key(("a",))))
        assert reduction is not None
        assert reduction.pref == HighestPreference("a")
        assert reduction.changed and reduction.singleton
        assert any("later stages never apply" in p
                   for p in reduction.provenance)

    def test_pareto_without_proofs_is_not_reducible(self):
        pref = pareto(HighestPreference("a"), LowestPreference("b"))
        assert weak_order_reduction(pref, _cs(Key(("a", "b")))) is None

    def test_pruning_can_expose_a_weak_order(self):
        pref = pareto(HighestPreference("a"), LowestPreference("b"))
        reduction = weak_order_reduction(pref, _cs(Check("a", "=", 5)))
        assert reduction is not None
        assert reduction.pref == LowestPreference("b")
        assert reduction.changed

    def test_fully_indifferent_term_is_not_a_reduction(self):
        assert weak_order_reduction(
            HighestPreference("a"), _cs(Check("a", "=", 5)),
        ) is None


class TestSemanticFacts:
    def test_identity_fact(self):
        facts = semantic_facts(
            HighestPreference("a"), _cs(Check("a", "=", 5)),
        )
        assert facts and "identity" in facts[0]

    def test_reduction_fact_names_constraint(self):
        facts = semantic_facts(HighestPreference("a"), _cs(Key(("a",))))
        assert facts and "key(a)" in facts[0]

    def test_no_facts_without_constraints(self):
        assert semantic_facts(HighestPreference("a"), _cs()) == ()
