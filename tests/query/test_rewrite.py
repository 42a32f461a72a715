"""The plan rewrite engine: rigidity analysis, rule firing, and traces.

Rule *soundness* (rewritten == unrewritten == naive, over random terms,
relations, and selections) lives in ``test_rewrite_properties.py``; this
file pins the analyses and the plan shapes the rules are supposed to
produce.
"""

import pytest

from repro.core.base_nonnumerical import PosPreference
from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import dual, intersection, pareto, prioritized, union
from repro.core.preference import AntiChain
from repro.psql.ast import BoolOp, Comparison
from repro.query.api import PreferenceQuery
from repro.query.bmo import winnow
from repro.query.plan import (
    ButOnly,
    Cascade,
    ColumnarPreferenceSelect,
    HardSelect,
    PreferenceSelect,
    Scan,
)
from repro.query.rewrite import (
    RULESET_VERSION,
    fixed_attributes,
    is_rigid,
    monotone_direction,
    prune_constant,
    quality_rigid,
)
from repro.query.quality import QualityCondition
from repro.session import Session

LOW_P = LowestPreference("price")
HIGH_W = HighestPreference("power")


def rows(n=24):
    return [
        {"price": (i * 7) % 13, "power": (i * 5) % 11, "make": "ab"[i % 2]}
        for i in range(n)
    ]


def row_set(result):
    return {tuple(sorted(r.items())) for r in result}


def _winnow_node(node):
    while not isinstance(node, (PreferenceSelect, ColumnarPreferenceSelect)):
        node = node.child
    return node


@pytest.fixture
def session():
    # Plan-shape assertions below describe the storage-less pipeline;
    # pin the memory backend so a REPRO_STORAGE matrix leg doesn't
    # plant StorageScan nodes under these plans.
    return Session({"car": rows()}, storage="memory")


class TestMonotoneDirection:
    def test_bases(self):
        assert monotone_direction(LOW_P, "price") == "down"
        assert monotone_direction(HIGH_W, "power") == "up"
        assert monotone_direction(AntiChain("price"), "price") == "const"
        assert monotone_direction(LOW_P, "power") is None

    def test_dual_flips(self):
        assert monotone_direction(dual(LOW_P), "price") == "up"
        assert monotone_direction(dual(dual(LOW_P)), "price") == "down"

    def test_score_terms_are_opaque(self):
        assert monotone_direction(AroundPreference("price", 5), "price") is None
        assert monotone_direction(PosPreference("make", {"a"}), "make") is None

    def test_pareto_conjoins_guarantees(self):
        assert monotone_direction(pareto(LOW_P, HIGH_W), "price") == "down"
        # Opposing guarantees on one attribute force equality.
        assert (
            monotone_direction(pareto(LOW_P, HighestPreference("price")), "price")
            == "const"
        )

    def test_prioritization_only_trusts_the_head(self):
        assert monotone_direction(prioritized(LOW_P, HIGH_W), "price") == "down"
        assert monotone_direction(prioritized(LOW_P, HIGH_W), "power") is None
        assert (
            monotone_direction(prioritized(PosPreference("make", {"a"}), LOW_P), "price")
            is None
        )

    def test_intersection_and_union(self):
        assert (
            monotone_direction(
                intersection(LOW_P, LowestPreference("price")), "price"
            )
            == "down"
        )
        assert (
            monotone_direction(
                union(LOW_P, LowestPreference("price")), "price"
            )
            == "down"
        )
        assert (
            monotone_direction(union(LOW_P, HighestPreference("price")), "price")
            is None
        )


class TestIsRigid:
    def test_upper_bound_needs_down(self):
        pref = prioritized(LOW_P, HIGH_W)
        assert is_rigid(Comparison("price", "<=", 9), pref)
        assert is_rigid(Comparison("price", "<", 9), pref)
        assert not is_rigid(Comparison("price", ">=", 9), pref)
        assert not is_rigid(Comparison("power", "<=", 9), pref)

    def test_lower_bound_needs_up(self):
        assert is_rigid(Comparison("power", ">=", 3), pareto(LOW_P, HIGH_W))

    def test_equality_needs_const(self):
        assert not is_rigid(Comparison("price", "=", 3), LOW_P)
        assert is_rigid(
            Comparison("price", "=", 3), pareto(LOW_P, HighestPreference("price"))
        )

    def test_and_conjunctions(self):
        pref = pareto(LOW_P, HIGH_W)
        both = BoolOp(
            "AND",
            (Comparison("price", "<=", 9), Comparison("power", ">=", 2)),
        )
        assert is_rigid(both, pref)
        assert not is_rigid(
            BoolOp("OR", (Comparison("price", "<=", 9),) * 2), pref
        )

    def test_opaque_conditions_are_not_rigid(self):
        assert not is_rigid(None, LOW_P)
        assert not is_rigid(lambda r: True, LOW_P)


class TestQualityRigid:
    def test_distance_on_the_term_itself(self):
        pref = AroundPreference("price", 40)
        assert quality_rigid(QualityCondition("distance", "price", "<=", 5), pref)
        assert not quality_rigid(QualityCondition("distance", "price", ">=", 5), pref)

    def test_position_matters_for_prioritization(self):
        around = AroundPreference("price", 40)
        cond = QualityCondition("distance", "price", "<=", 5)
        assert quality_rigid(cond, prioritized(around, HIGH_W))
        assert not quality_rigid(cond, prioritized(HIGH_W, around))
        assert quality_rigid(cond, pareto(HIGH_W, around))

    def test_level_conditions(self):
        pos = PosPreference("make", {"a"})
        cond = QualityCondition("level", "make", "<=", 1)
        assert quality_rigid(cond, pareto(pos, LOW_P))
        assert not quality_rigid(cond, prioritized(LOW_P, pos))

    def test_level_ambiguity_with_explicit_base_blocks_pushdown(self):
        """level_of() resolves against the first layered-OR-explicit base;
        certification must refuse when an EXPLICIT base coexists, else the
        pushed prefilter measures the wrong (non-monotone) levels."""
        from repro.core.base_nonnumerical import ExplicitPreference

        pref = prioritized(
            PosPreference("color", {"red"}),
            ExplicitPreference("color", [("green", "blue")]),
        )
        cond = QualityCondition("level", "color", "<=", 2)
        assert not quality_rigid(cond, pref)
        rows = [{"color": c} for c in ("red", "green", "blue")]
        q = PreferenceQuery.over(rows).prefer(pref).but_only(cond)
        assert q.run() == q.optimize(False).run()


class TestConstantPruning:
    def test_fixed_attributes(self):
        assert fixed_attributes(Comparison("make", "=", "a")) == {"make"}
        assert fixed_attributes(Comparison("make", "<=", "a")) == frozenset()
        both = BoolOp(
            "AND", (Comparison("make", "=", "a"), Comparison("price", "=", 1))
        )
        assert fixed_attributes(both) == {"make", "price"}

    def test_prune_drops_fixed_components(self):
        pref = pareto(PosPreference("make", {"a"}), LOW_P)
        pruned = prune_constant(pref, frozenset({"make"}))
        assert pruned is not None
        assert pruned.signature == LOW_P.signature

    def test_prune_to_identity(self):
        assert prune_constant(LOW_P, frozenset({"price"})) is None

    def test_prune_leaves_entangled_terms_alone(self):
        from repro.core.constructors import rank

        entangled = rank(lambda a, b: a + b, AroundPreference("price", 1),
                         AroundPreference("power", 1))
        assert (
            prune_constant(entangled, frozenset({"price"})) is entangled
        )


class TestPlanRules:
    def test_acceptance_scenario(self, session):
        """Rigid hard filter over a prioritized preference: both rules fire."""
        q = (
            session.query("car")
            .where(price__le=9)
            .prefer(LOW_P)
            .cascade(HIGH_W)
        )
        text = q.explain()
        assert "push_select_below_winnow" in text
        assert "split_prio" in text
        plan = q.plan()
        assert isinstance(plan.root, Cascade)
        assert isinstance(plan.root.child, HardSelect)  # pushed below
        reference = winnow(
            prioritized(LOW_P, HIGH_W),
            [r for r in rows() if r["price"] <= 9],
            algorithm="naive",
        )
        assert row_set(q.run().rows()) == row_set(reference)
        assert row_set(q.optimize(False).run().rows()) == row_set(reference)

    def test_non_rigid_filters_stay_below_without_trace(self, session):
        q = session.query("car").where(power__ge=3).prefer(LOW_P)
        text = q.explain()
        assert "push_select_below_winnow" not in text
        assert isinstance(q.plan().root, PreferenceSelect)

    def test_quality_condition_becomes_prefilter(self, session):
        q = (
            session.query("car")
            .prefer(AroundPreference("price", 6))
            .but_only(("distance", "price", "<=", 1))
        )
        plan = q.plan()
        assert "push_select_below_winnow" in q.explain()
        assert not isinstance(plan.root, ButOnly)  # fully absorbed
        assert row_set(plan.execute().rows()) == row_set(
            q.optimize(False).run().rows()
        )
        # The work it saves: the winnow reads only the rows within the
        # distance, where the unrewritten plan's winnow reads them all.
        winnowed = len(_winnow_node(plan.root).child.execute())
        assert 0 < winnowed < len(rows()) // 2
        canonical = q.optimize(False).plan()
        assert len(_winnow_node(canonical.root).child.execute()) == len(rows())

    def test_unpushable_quality_condition_stays(self, session):
        q = (
            session.query("car")
            .prefer(prioritized(HIGH_W, AroundPreference("price", 6)))
            .but_only(("distance", "price", "<=", 1))
        )
        assert isinstance(q.plan().root, ButOnly)
        assert row_set(q.run().rows()) == row_set(q.optimize(False).run().rows())

    def test_prune_constant_pref(self, session):
        q = (
            session.query("car")
            .where(make="a")
            .prefer(pareto(PosPreference("make", {"b"}), LOW_P))
        )
        text = q.explain()
        assert "prune_constant_pref" in text
        assert "algorithm=sort" in text  # pruned to bare LOWEST
        reference = winnow(
            pareto(PosPreference("make", {"b"}), LOW_P),
            [r for r in rows() if r["make"] == "a"],
            algorithm="naive",
        )
        assert row_set(q.run().rows()) == row_set(reference)

    def test_drop_trivial_winnow_on_antichain(self, session):
        q = session.query("car").prefer(pareto(LOW_P, dual(LOW_P)))
        text = q.explain()
        assert "drop_trivial_winnow" in text
        assert text.startswith("Scan[car]")  # the winnow node is gone
        assert len(q.run()) == len(rows())

    def test_drop_trivial_winnow_on_tiny_input(self):
        q = (
            Session({"one": rows(1)})
            .query("one")
            .prefer(prioritized(LOW_P, HIGH_W))
        )
        assert "drop_trivial_winnow" in q.explain()
        assert q.run().rows() == rows(1)

    def test_empty_domain_noop(self, session):
        restricted = LOW_P.restrict_to([])
        q = session.query("car").prefer(restricted)
        text = q.explain()
        assert "empty_domain_noop" in text
        assert "drop_trivial_winnow" in text
        assert len(q.run()) == len(rows())

    def test_decompose_pareto(self):
        data = [
            {"a": i % 17, "b": (i * 3) % 19, "c": (i * 7) % 23}
            for i in range(600)
        ]
        s = Session({"t": data})
        pref = pareto(
            prioritized(LowestPreference("a"), HighestPreference("b")),
            HighestPreference("c"),
        )
        q = s.query("t").prefer(pref)
        assert "decompose_pareto" in q.explain()
        reference = winnow(pref, data, algorithm="bnl")
        assert row_set(q.run().rows()) == row_set(reference)

    def test_decompose_pareto_certifies_beside_a_weak_order_arm(self):
        """The code engine accepts what the deleted row vector skyline
        refused: a composite arm next to an AROUND arm."""
        data = [
            {"a": i % 17, "b": (i * 3) % 19, "c": (i * 7) % 23}
            for i in range(600)
        ]
        pref = pareto(
            prioritized(LowestPreference("a"), HighestPreference("b")),
            AroundPreference("c", 11),
        )
        q = Session({"t": data}).query("t").prefer(pref)
        assert "decompose_pareto" in q.plan().rewrite_rules()
        assert "composite axes" in q.explain()
        reference = winnow(pref, data, algorithm="naive")
        assert row_set(q.run().rows()) == row_set(reference)

    def test_pruned_winnow_is_decided_like_a_planned_one(self):
        """prune_constant_pref rebuilds its node through the planner's own
        ``winnow_node``: the same node, decision included, as planning the
        pruned term directly."""
        from repro.analysis.constraints import constraint_registry
        from repro.query.optimizer import winnow_node
        from repro.query.rewrite import RewriteContext, _rule_prune_constant
        from repro.relations.relation import Relation

        rel = Relation.from_dicts("t", [
            {"a": i % 2, "b": i % 17, "c": (i * 3) % 19, "d": 7}
            for i in range(400)
        ])
        pref = pareto(
            HighestPreference("a"), HighestPreference("b"),
            LowestPreference("c"), HighestPreference("d"),
        )
        constraints = constraint_registry(rel, ["a", "b", "c", "d"])
        assert constraints.constant("d")
        select = HardSelect(
            Scan(rel), lambda r: r["a"] == 1, "a = 1", Comparison("a", "=", 1)
        )
        node = winnow_node(select, pref)
        pruned_node, _, _ = _rule_prune_constant(
            node, RewriteContext(constraints=constraints)
        )
        direct = winnow_node(select, pruned_node.pref)
        assert pruned_node.pref.attributes == ("b", "c", "d")
        assert pruned_node == direct
        assert pruned_node.reason == direct.reason

    def test_forced_algorithm_disables_plan_rules(self, session):
        q = (
            session.query("car")
            .where(make="a")
            .prefer(prioritized(LOW_P, HIGH_W))
            .using("bnl")
        )
        text = q.explain()
        assert "split_prio" not in text
        assert "prune_constant_pref" not in text


class TestTraceSurface:
    def test_compact_summary_line(self, session):
        q = session.query("car").where(price__le=9).prefer(LOW_P).cascade(HIGH_W)
        text = q.explain()
        assert "rewrites: [" in text
        assert "rewrites applied:" in text
        plan = q.plan()
        assert plan.rewrite_rules() == tuple(
            dict.fromkeys(rule for rule, _, _ in plan.rewrites)
        )

    def test_fingerprint_embeds_ruleset_version(self, session):
        q = session.query("car").prefer(LOW_P)
        assert RULESET_VERSION in q.fingerprint()

    def test_cached_plans_replay_their_trace(self, session):
        q = session.query("car").where(price__le=9).prefer(LOW_P).cascade(HIGH_W)
        first = q.explain()
        second = q.explain()
        assert first == second
        assert session.cache_info().hits >= 1

    def test_optimize_false_plans_the_canonical_form(self, session):
        q = (
            session.query("car")
            .where(price__le=9)
            .prefer(LOW_P)
            .cascade(HIGH_W)
            .optimize(False)
        )
        text = q.explain()
        assert "rewrites applied: (none)" in text
        assert not isinstance(q.plan().root, Cascade)


class TestFrontEndsShareTheRules:
    def test_psql_gets_the_rewrites_for_free(self, session):
        text = session.explain_sql(
            "SELECT * FROM car WHERE price <= 9 "
            "PREFERRING LOWEST(price) CASCADE HIGHEST(power)"
        )
        assert "push_select_below_winnow" in text
        assert "split_prio" in text

    def test_where_operator_suffixes(self, session):
        q = session.query("car").where(price__lt=9, power__ge=2).prefer(LOW_P)
        expected = [
            r for r in rows() if r["price"] < 9 and r["power"] >= 2
        ]
        best = min(r["price"] for r in expected)
        assert row_set(q.run().rows()) == row_set(
            [r for r in expected if r["price"] == best]
        )

    def test_only_known_suffixes_are_reserved(self):
        """A keyword with an unknown (or no) suffix stays a plain equality
        on the full attribute name — double underscores included."""
        data = [{"max__power": 5, "x": 1}, {"max__power": 7, "x": 2}]
        out = PreferenceQuery.over(data).where(max__power=5).run()
        assert out == [data[0]]


class TestReviewRegressions:
    def test_conjunct_order_is_preserved(self, session):
        """Suffix-lifting must never run a later opaque predicate before
        the earlier rigid conjunct that guards it."""
        data = [{"price": 50}, {"price": 100}]
        q = (
            PreferenceQuery.over(data)
            .where(price__lt=100)
            .where(lambda r: 1 / (r["price"] - 100) < 0)
            .prefer(LOW_P)
        )
        assert q.run() == [{"price": 50}]
        assert q.optimize(False).run() == [{"price": 50}]
        # The reverse order lifts the rigid suffix and still agrees.
        q2 = (
            PreferenceQuery.over(data)
            .where(lambda r: r["price"] != 100, label="price != 100")
            .where(price__lt=100)
            .prefer(LOW_P)
        )
        assert "push_select_below_winnow" in q2.explain()
        assert q2.run() == [{"price": 50}]

    def test_prune_skipped_under_forced_algorithm(self, session):
        """A forced evaluator runs the user's whole term: the constant
        ``price`` arm is not pruned, and the answer is still the winnow's."""
        pref = pareto(LOW_P, HIGH_W)
        q = session.query("car").where(price=7).prefer(pref).using("vsfs")
        text = q.explain()
        assert "prune_constant_pref" not in text
        assert "algorithm=vsfs" in text
        auto = session.query("car").where(price=7).prefer(pref)
        assert "prune_constant_pref" in auto.explain()
        reference = winnow(
            pref, [r for r in rows() if r["price"] == 7], algorithm="naive"
        )
        assert row_set(q.run().rows()) == row_set(reference)
        assert row_set(auto.run().rows()) == row_set(reference)
