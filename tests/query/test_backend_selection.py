"""Planner backend choice: the structural rule and the partition cost
model, surfaced.

Covers :func:`repro.query.optimizer.choose_backend` and
:func:`~repro.query.optimizer.estimate_cost`, the ``backend=`` hint on the
fluent API, the ColumnarPreferenceSelect plan node, explain() output (decision rationale,
cost estimates, partition count, stats provenance), plan-cache
fingerprinting, and the session's columnar-store / statistics caches.
"""

import pytest

from tests.conftest import LOWERED_TERMS, lowered_rows

from repro.core.base_nonnumerical import ExplicitPreference
from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import pareto, prioritized
from repro.datasets.skyline_data import skyline_relation
from repro.engine import backend as engine_backend
from repro.query import optimizer
from repro.query.optimizer import (
    BackendChoice,
    CostEstimate,
    choose_backend,
    estimate_cost,
    expected_skyline,
    plan,
)
from repro.query.plan import Cascade, ColumnarPreferenceSelect, PreferenceSelect
from repro.session import Session

SKY = pareto(HighestPreference("d0"), LowestPreference("d1"))
SKY3 = pareto(
    HighestPreference("d0"), LowestPreference("d1"), HighestPreference("d2")
)
#: A term with no columnar evaluation: EXPLICIT is no weak order.
EXPLICIT = ExplicitPreference("d0", [(0.25, 0.5)])
BIG = 5000


@pytest.fixture
def session():
    return Session(
        {
            "big": skyline_relation("independent", BIG, 3, seed=3),
            "small": skyline_relation("independent", 40, 2, seed=3),
        }
    )


class TestCostModel:
    def test_no_fixed_row_threshold_remains(self):
        assert not hasattr(optimizer, "COLUMNAR_ROW_THRESHOLD")

    def test_expected_skyline_shapes(self):
        assert expected_skyline(0, 3) == 0
        assert expected_skyline(1, 3) == 1
        assert expected_skyline(10_000, 1) == 1
        # (ln n)^(d-1)/(d-1)! grows with d and never exceeds n.
        assert expected_skyline(10_000, 2) < expected_skyline(10_000, 4)
        assert expected_skyline(10, 8) <= 10

    def test_estimate_monotone_in_cardinality(self):
        small = estimate_cost(SKY3, 1_000, cores=1)
        large = estimate_cost(SKY3, 100_000, cores=1)
        assert large.columnar_cost > small.columnar_cost
        assert small.stats_source == "cardinality-only"

    def test_stats_bound_distinct_projections(self):
        rel = skyline_relation("independent", 2_000, 3, seed=7)
        with_stats = estimate_cost(SKY3, len(rel), stats=rel.stats(), cores=1)
        without = estimate_cost(SKY3, len(rel), cores=1)
        assert with_stats.distinct <= without.distinct
        assert with_stats.stats_source.startswith("statistics(")
        # Distinct projections bound the dedup'ed kernel sweep, so the
        # stats-informed columnar estimate can only be cheaper.
        assert with_stats.columnar_cost <= without.columnar_cost

    def test_duplicate_heavy_columns_shrink_the_estimate(self):
        # 10 distinct values per axis -> at most 100 distinct projections.
        rows = [
            {"d0": i % 10, "d1": (i * 7) % 10} for i in range(5_000)
        ]
        from repro.relations.relation import Relation

        rel = Relation.from_dicts("dups", rows)
        estimate = estimate_cost(SKY, len(rel), stats=rel.stats(), cores=1)
        assert estimate.distinct <= 100
        assert estimate.skyline <= estimate.distinct

    def test_parallel_needs_cores_and_size(self):
        assert estimate_cost(SKY3, 200_000, cores=1).partitions == 1
        assert estimate_cost(SKY3, 500, cores=8).partitions == 1
        big = estimate_cost(SKY3, 200_000, cores=8)
        assert big.partitions > 1
        assert big.parallel_cost < big.columnar_cost

    def test_served_terms_stay_serial_on_two_cores(self):
        """The benchmark's winnow terms over the relations it serves, at
        10 000 rows: the cost model splits none of them on two cores."""
        from bench.workloads import WORKLOADS

        from repro.relations.relation import Relation

        data = WORKLOADS["adhoc"].relations(10_000)
        sky = Relation.from_dicts("sky", data["sky"])
        car = Relation.from_dicts("car", data["car"])
        for pref, rel in (
            (pareto(*(LowestPreference(f"d{i}") for i in range(3))), sky),
            (pareto(AroundPreference("price", 25_000.5),
                    HighestPreference("horsepower")), car),
        ):
            estimate = estimate_cost(pref, len(rel), rel.stats(), cores=2)
            assert estimate.partitions == 1

    @pytest.mark.parametrize("rows, term, partitions", [
        (10_000, "3 chains", 1),
        (10_000, "4 chains", 2),
        (100_000, "3 chains", 2),
        (100_000, "4 chains", 2),
        (1_000_000, "4 chains", 2),
        (10_000, "AROUND*HIGHEST", 1),
        (100_000, "AROUND*HIGHEST", 1),
    ])
    def test_documented_partition_counts(self, rows, term, partitions):
        """The planner column of docs/performance.md's thread-leg table, on
        two cores.  The measured relations have continuous columns, so
        their statistics bound no projection: the cardinality-only
        estimate is the one the planner makes over them."""
        if term == "AROUND*HIGHEST":
            pref = pareto(AroundPreference("d0", 0.5), HighestPreference("d1"))
        else:
            chains = int(term.split()[0])
            pref = pareto(*(LowestPreference(f"d{i}") for i in range(chains)))
        assert estimate_cost(pref, rows, cores=2).partitions == partitions

    def test_selectivity_is_a_fraction(self):
        estimate = estimate_cost(SKY3, 10_000, cores=4)
        assert 0.0 < estimate.selectivity <= 1.0
        assert estimate.skyline == round(
            estimate.selectivity * estimate.distinct
        )

    def test_describe_names_every_decision_input(self):
        text = estimate_cost(SKY3, 10_000, cores=4).describe()
        for needle in ("columnar=", "parallel", "selectivity", "stats="):
            assert needle in text


class TestChooseBackend:
    def test_rejects_unknown_hint(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            choose_backend(SKY, 10, hint="gpu")

    def test_parallel_is_not_a_backend(self):
        assert optimizer.BACKENDS == ("auto", "row", "columnar")
        with pytest.raises(ValueError, match="backend must be one of"):
            choose_backend(SKY, 10, hint="parallel")

    def test_row_hint_always_row(self):
        assert choose_backend(SKY, 10**6, "row") == BackendChoice(
            "row", "backend=row requested"
        )

    def test_columnar_hint_forces(self):
        assert choose_backend(SKY, 1, "columnar").columnar

    def test_columnar_hint_on_ineligible_raises(self):
        with pytest.raises(ValueError, match="no columnar evaluation"):
            choose_backend(EXPLICIT, BIG, "columnar")

    def test_auto_goes_columnar_when_big(self):
        choice = choose_backend(SKY3, BIG, "auto")
        assert choice.columnar and choice.reason == "lowers to code axes"
        assert isinstance(choice.cost, CostEstimate)

    def test_auto_is_structural_not_sized(self):
        for cardinality in (0, 1, 10, BIG):
            assert choose_backend(SKY3, cardinality, "auto") == BackendChoice(
                "columnar", "lowers to code axes"
            )

    def test_weak_order_arms_go_columnar(self):
        """The 1.4k-row Pareto the old constants kept on the row engine
        (31 ms there, 2.7 ms columnar).  Selectivity counts the two arms,
        the kernel the three code axes AROUND (x2) + HIGHEST occupy."""
        pref = pareto(AroundPreference("d0", 0.5), HighestPreference("d1"))
        choice = choose_backend(pref, 1_400, "auto")
        assert choice.columnar
        assert choice.cost.arity == 2
        assert choice.cost.skyline == expected_skyline(1_400, 2)
        three = estimate_cost(SKY3, 1_400, cores=1)
        sweep = estimate_cost(SKY, 1_400, cores=1)
        assert sweep.columnar_cost < choice.cost.columnar_cost
        assert choice.cost.columnar_cost < three.columnar_cost

    def test_arms_without_code_axes_have_no_columnar_form(self):
        from repro.core.base_nonnumerical import ExplicitPreference
        from repro.core.base_numerical import ScorePreference

        for arm in (
            ExplicitPreference("d1", [(1, 2)]),
            ScorePreference(("d1", "d2"), sum, name="sum"),
        ):
            choice = choose_backend(
                pareto(HighestPreference("d0"), arm), BIG, "auto"
            )
            assert choice == BackendChoice("row", "no columnar dominance form")

    def test_auto_parallelizes_huge_inputs_given_cores(self, monkeypatch):
        monkeypatch.setattr(optimizer, "cpu_count", lambda: 8)
        choice = choose_backend(SKY3, 500_000, "auto")
        serial = estimate_cost(SKY3, 500_000, cores=1)
        if not engine_backend.numpy_available():
            assert choice.columnar and not choice.parallel
            return
        assert choice.parallel and "cost model: parallel" in choice.reason
        assert choice.cost.parallel_cost < serial.columnar_cost

    def test_auto_never_partitions_without_numpy(self, monkeypatch):
        """Interpreted kernels hold the GIL: the one planning decision
        NumPy's absence changes."""
        monkeypatch.setattr(optimizer, "cpu_count", lambda: 8)
        monkeypatch.setattr(engine_backend, "_numpy", None)
        choice = choose_backend(SKY3, 500_000, "auto")
        assert choice == BackendChoice("columnar", "lowers to code axes")
        assert choice.partitions == 1 and choice.cost.partitions == 1

    def test_score_terms_stay_row_on_auto(self):
        choice = choose_backend(AroundPreference("d0", 1), BIG * 4, "auto")
        assert choice.backend == "row"

    def test_bare_chain_score_terms_stay_row_on_auto(self):
        # HIGHEST/LOWEST are 1-d skylines *and* argmaxes; the row `sort`
        # path is already linear, so auto must not columnarize them.
        for pref in (HighestPreference("d0"), LowestPreference("d0")):
            assert not choose_backend(pref, BIG * 4, "auto").columnar


class TestPlannerIntegration:
    def test_big_skyline_plans_columnar(self, session):
        q = session.query("big").prefer(SKY3)
        assert "ColumnarPreferenceSelect" in q.explain()
        assert "backend=columnar" in q.explain()

    def test_explain_shows_decision_costs_and_stats(self, session):
        text = session.query("big").prefer(SKY3).explain()
        assert "decision: lowers to code axes" in text
        assert "cost: columnar=" in text
        assert "NumPy unavailable" not in text
        assert "selectivity" in text
        assert "stats=statistics(big)" in text

    def test_paper_signature_query_plans_columnar_from_both_front_ends(self):
        """``price AROUND z AND HIGHEST(horsepower)`` (Def. 7a x Def. 8),
        as Preference SQL text and as a wire spec."""
        from repro.datasets.cars import generate_cars
        from repro.server.service import PreferenceService

        service = PreferenceService({"car": generate_cars(2_000)})
        try:
            sql = service.build_query(
                sql="SELECT * FROM car WHERE year >= 1992 PREFERRING "
                    "price AROUND 21000.5 AND HIGHEST(horsepower)"
            )
            spec = service.build_query(spec={
                "relation": "car",
                "where": [["year", ">=", 1992]],
                "prefer": {"type": "pareto", "children": [
                    {"type": "around", "attribute": "price", "z": 21000.5},
                    {"type": "highest", "attribute": "horsepower"},
                ]},
            })
            for q in (sql, spec):
                text = q.explain()
                assert "ColumnarPreferenceSelect" in text
                assert "decision: lowers to code axes" in text
            assert sql.run() == spec.run() == sql.backend("row").run()
        finally:
            service.close()

    def test_small_plans_like_big(self, session):
        text = session.query("small").prefer(SKY).explain()
        assert "ColumnarPreferenceSelect" in text
        rows = session.query("small").prefer(SKY).run()
        assert rows == session.query("small").prefer(SKY).backend("row").run()

    def test_backend_row_overrides_auto(self, session):
        text = session.query("big").prefer(SKY3).backend("row").explain()
        assert "ColumnarPreferenceSelect" not in text
        assert "algorithm=sfs" in text

    def test_backend_columnar_forces_small(self, session):
        text = session.query("small").prefer(SKY).backend("columnar").explain()
        assert "backend=columnar" in text and "kernel=vsfs" in text

    def test_results_identical_across_backends(self, session):
        base = session.query("big").prefer(SKY3)
        rows = base.backend("row").run()
        assert base.backend("columnar").run() == rows

    def test_key_headed_cascade_collapses_to_sorted_winnow(self, session):
        """``d0`` is continuous, so statistics derive ``key(d0)``: the
        semantic ``winnow_to_sort`` rule proves the chain head alone picks a
        single best tuple and later stages never apply — the winnow is
        rebuilt over the head as the one-pass argmax."""
        pref = prioritized(LowestPreference("d0"), HighestPreference("d1"))
        p = plan(pref, session.catalog.get("big"))
        assert isinstance(p.root, PreferenceSelect)
        assert p.root.algorithm == "sort"
        assert "winnow_to_sort" in p.rewrite_rules()
        assert "constraint: key(d0)" in p.explain()

    def test_cascades_unaffected(self):
        """Without a key on the chain head, prioritizations keep their
        row-engine cascade even though they now have a columnar form (one
        composite lexicographic axis): split_prio's linear argmax stages
        beat the encode-and-sweep."""
        from repro.relations.relation import Relation
        from repro.relations.schema import Schema

        rows = [
            {"d0": i % 50, "d1": (i * 7) % 40, "d2": i % 3} for i in range(BIG)
        ]
        rel = Relation("dup", Schema.infer(rows), rows)
        pref = prioritized(LowestPreference("d0"), HighestPreference("d1"))
        p = plan(pref, rel)
        assert isinstance(p.root, Cascade)

    def test_composite_pareto_arm_goes_columnar_when_big(self, session):
        """Prioritized-chain *arms* of a Pareto term do go columnar: the
        decompose_pareto rule encodes each arm as one composite axis."""
        pref = pareto(
            prioritized(LowestPreference("d0"), HighestPreference("d1")),
            HighestPreference("d2"),
        )
        p = plan(pref, session.catalog.get("big"))
        assert isinstance(p.root, ColumnarPreferenceSelect)
        assert "decompose_pareto" in p.rewrite_rules()
        big = session.catalog.get("big")
        from repro.query.bmo import winnow

        assert p.execute().rows() == winnow(pref, big, algorithm="bnl").rows()

    def test_invalid_backend_name_rejected_early(self, session):
        with pytest.raises(ValueError, match="backend must be one of"):
            session.query("big").prefer(SKY).backend("gpu")

    def test_backend_with_forced_algorithm_rejected(self, session):
        q = session.query("big").prefer(SKY).using("sfs").backend("row")
        with pytest.raises(ValueError, match="algorithm= already forces"):
            q.explain()

    def test_columnar_with_top_rejected(self, session):
        q = (
            session.query("big")
            .prefer(AroundPreference("d0", 0.5))
            .top(3)
            .backend("columnar")
        )
        with pytest.raises(ValueError, match="top-k"):
            q.explain()

    def test_groupby_columnar_hint_uses_vsfs(self, session):
        q = session.query("big").prefer(SKY).groupby("d0").backend("columnar")
        assert "algorithm=vsfs" in q.explain()
        assert q.run() == session.query("big").prefer(SKY).groupby("d0").run()

    def test_auto_groupby_runs_the_code_kernels_per_group(self, session):
        base = session.query("big").prefer(SKY3).groupby("d0")
        assert "algorithm=vsfs" in base.explain()
        assert "algorithm=sfs" in base.backend("row").explain()
        assert base.run() == base.backend("row").run()

    def test_using_vsfs_names_columnar_kernel(self, session):
        q = session.query("small").prefer(SKY).using("vsfs")
        assert "algorithm=vsfs" in q.explain()
        assert q.run() == session.query("small").prefer(SKY).run()

    def test_ineligible_forced_columnar_raises_at_plan_time(self, session):
        q = (
            session.query("big")
            .prefer(EXPLICIT)
            .backend("columnar")
        )
        with pytest.raises(ValueError, match="no columnar evaluation"):
            q.explain()


class TestOnePlanOnBothPlatforms:
    """NumPy's presence changes which leg the engine runs, never the plan."""

    @pytest.mark.parametrize("name", sorted(LOWERED_TERMS))
    def test_same_node_and_evaluator_with_and_without_numpy(
        self, name, monkeypatch
    ):
        from repro.relations.relation import Relation

        pref = LOWERED_TERMS[name]
        rel = Relation.from_dicts("t", lowered_rows(200, seed=2))

        def decisions():
            plain, grouped = plan(pref, rel), plan(pref, rel, groupby=["w"])
            assert "NumPy unavailable" not in plain.explain()
            node = plain.root
            return (
                type(node), node.strategy, node.partitions,
                node.cost.backend, node.cost.reason,
                type(grouped.root), grouped.root.algorithm,
            )

        monkeypatch.setattr(optimizer, "cpu_count", lambda: 8)
        with_numpy = decisions()
        monkeypatch.setattr(engine_backend, "_numpy", None)
        assert decisions() == with_numpy
        assert with_numpy[:3] == (ColumnarPreferenceSelect, "sfs", 1)
        assert with_numpy[-1] == "vsfs"


class TestFingerprintAndCache:
    def test_backend_in_fingerprint(self, session):
        q = session.query("big").prefer(SKY)
        assert q.fingerprint() != q.backend("row").fingerprint()
        assert q.fingerprint() == q.backend("auto").fingerprint()

    def test_plans_cached_per_backend(self, session):
        session.query("big").prefer(SKY).backend("row").run()
        session.query("big").prefer(SKY).backend("row").run()
        info = session.cache_info()
        assert info.hits >= 1 and info.misses >= 1


class TestSessionColumnStore:
    def test_cached_per_version(self, session):
        first = session.column_store("big")
        assert session.column_store("big") is first
        session.register(
            "big", skyline_relation("independent", 20, 2, seed=9), replace=True
        )
        second = session.column_store("big")
        assert second is not first and len(second) == 20

    def test_store_matches_relation(self, session):
        store = session.column_store("small")
        rel = session.catalog.get("small")
        assert store.column("d0") == tuple(rel.column("d0"))
