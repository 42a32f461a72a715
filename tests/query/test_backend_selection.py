"""Planner evaluator choice: the structural rule, surfaced.

Covers :func:`repro.query.optimizer.choose_algorithm` and
:func:`~repro.query.optimizer.row_reason`, ``using()`` as the one
override, the ColumnarPreferenceSelect plan node, explain() output (the
decision rationale), plan-cache fingerprinting, and the session's
columnar-store cache.
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
from repro.query.optimizer import choose_algorithm, plan, row_reason
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
        """No size threshold and no cost model: the backend is structural
        and the code kernels run serially."""
        for name in (
            "COLUMNAR_ROW_THRESHOLD", "estimate_cost", "CostEstimate",
            "expected_skyline",
        ):
            assert not hasattr(optimizer, name), name

    @pytest.mark.parametrize("retired", [
        "cost constants",
        "engine.parallel",
        "columnar_winnow(partitions=)",
        "ColumnarPreferenceSelect.partitions",
        "BackendChoice.partitions/cost",
        "choose_backend(cardinality=, stats=, constraints=)",
        "winnow_node(cardinality=, stats=, constraints=)",
        "RewriteContext.cardinality/stats",
        "storage cardinality",
        "storage.cardinality fault site",
        "PreferenceQuery.backend",
        "backend= parameters",
        "plan(hard=, hard_label=)",
        "RewriteContext.backend",
        "optimizer.BACKENDS",
    ])
    def test_retired_option_is_gone(self, retired):
        """Each option the serial kernel retired, and each evaluator knob
        besides ``using()``, absent from the API rather than accepted and
        ignored."""
        import dataclasses
        import importlib
        import inspect

        from repro.engine import columnar
        from repro.engine.columnar import columnar_winnow
        from repro.faults.__main__ import SITES
        from repro.query.api import PreferenceQuery
        from repro.query.rewrite import RewriteContext, cascade_stages
        from repro.storage import MemoryBackend
        from repro.storage.backend import StorageBackend
        from repro.storage.breaker import GuardedBackend
        from repro.storage.sqlbackend import SQLBackend

        def params(fn):
            return list(inspect.signature(fn).parameters)

        def fields(cls):
            return [f.name for f in dataclasses.fields(cls)]

        if retired == "cost constants":
            for name in (
                "MIN_PARTITION_ROWS", "ENCODE_COST", "VEC_COMPARE_COST",
                "VEC_SWEEP_COST", "FANOUT_COST", "COLUMNAR_SETUP_COST",
                "PARTITION_OVERHEAD", "cpu_count",
            ):
                assert not hasattr(optimizer, name), name
                assert not hasattr(columnar, name), name
        elif retired == "engine.parallel":
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module("repro.engine.parallel")
        elif retired == "columnar_winnow(partitions=)":
            assert "partitions" not in params(columnar_winnow)
            with pytest.raises(TypeError):
                columnar_winnow(SKY, [{"d0": 1, "d1": 2}], partitions=2)
        elif retired == "ColumnarPreferenceSelect.partitions":
            assert "partitions" not in fields(ColumnarPreferenceSelect)
        elif retired == "BackendChoice.partitions/cost":
            # The whole decision record went: a node keeps only its reason.
            assert not hasattr(optimizer, "BackendChoice")
            assert "cost" not in fields(ColumnarPreferenceSelect)
            assert "cost" not in fields(PreferenceSelect)
        elif retired.startswith("choose_backend"):
            assert not hasattr(optimizer, "choose_backend")
        elif retired.startswith("winnow_node"):
            assert params(optimizer.winnow_node) == ["child", "pref"]
        elif retired == "RewriteContext.cardinality/stats":
            for name in ("cardinality", "stats"):
                assert name not in fields(RewriteContext)
        elif retired == "storage cardinality":
            for cls in (StorageBackend, MemoryBackend, SQLBackend,
                        GuardedBackend):
                assert not hasattr(cls, "cardinality"), cls
        elif retired == "storage.cardinality fault site":
            assert "storage.cardinality" not in SITES
            assert "storage.prefilter" in SITES
        elif retired == "PreferenceQuery.backend":
            assert not hasattr(PreferenceQuery, "backend")
            assert "_backend" not in PreferenceQuery.__slots__
        elif retired == "backend= parameters":
            for fn in (optimizer.plan, choose_algorithm, cascade_stages):
                assert "backend" not in params(fn), fn
            assert params(choose_algorithm) == ["pref", "store"]
            assert params(cascade_stages) == ["pref", "store"]
        elif retired == "plan(hard=, hard_label=)":
            for name in ("hard", "hard_label"):
                assert name not in params(optimizer.plan)
            assert not hasattr(optimizer, "_conjuncts")
        elif retired == "RewriteContext.backend":
            assert "backend" not in fields(RewriteContext)
        else:
            assert not hasattr(optimizer, "BACKENDS")


class TestChooseAlgorithm:
    def test_auto_goes_columnar_when_big(self):
        assert choose_algorithm(SKY3) == "vsfs"
        assert row_reason(SKY3) is None

    def test_auto_is_structural_not_sized(self, session):
        assert choose_algorithm(SKY3) == "vsfs"
        for name in ("big", "small"):
            node = plan(SKY, session.catalog.get(name)).root
            assert isinstance(node, ColumnarPreferenceSelect)

    @pytest.mark.parametrize("rows", [2, 10, 100, BIG])
    def test_every_size_plans_the_one_serial_node(self, rows):
        """Two rows to five thousand: one node, one kernel, one decision,
        and the row engine's answer, whatever the input size.  (One row
        has a key, so its winnow is removed as redundant.)"""
        relation = skyline_relation("independent", rows, 3, seed=5)
        node = plan(SKY3, relation).root
        assert isinstance(node, ColumnarPreferenceSelect)
        assert node.strategy == "sfs"
        assert node.reason == "lowers to code axes"
        assert node.execute().rows() == (
            PreferenceSelect(node.child, SKY3, "bnl").execute().rows()
        )

    def test_weak_order_arms_go_columnar(self):
        """The 1.4k-row Pareto the old size threshold kept on the row
        engine (31 ms there, 2.7 ms columnar): AROUND lowers to two code
        axes, HIGHEST to one."""
        pref = pareto(AroundPreference("d0", 0.5), HighestPreference("d1"))
        assert choose_algorithm(pref) == "vsfs"
        assert row_reason(pref) is None

    def test_arms_without_code_axes_have_no_columnar_form(self):
        from repro.core.base_nonnumerical import ExplicitPreference
        from repro.core.base_numerical import ScorePreference

        for arm in (
            ExplicitPreference("d1", [(1, 2)]),
            ScorePreference(("d1", "d2"), sum, name="sum"),
        ):
            pref = pareto(HighestPreference("d0"), arm)
            assert row_reason(pref) == "no columnar dominance form"
            assert choose_algorithm(pref) != "vsfs"

    def test_score_terms_stay_row_on_auto(self):
        pref = AroundPreference("d0", 1)
        assert choose_algorithm(pref) == "sort"
        assert row_reason(pref) == "weak order: one argmax pass"

    def test_bare_chain_score_terms_stay_row_on_auto(self):
        # HIGHEST/LOWEST are 1-d skylines *and* argmaxes; the row `sort`
        # path is already linear, so the planner must not columnarize them.
        for pref in (HighestPreference("d0"), LowestPreference("d0")):
            assert choose_algorithm(pref) == "sort"

    def test_winnow_node_builds_what_choose_algorithm_names(self, session):
        """One decider: the code-kernel node exactly when the planner says
        ``vsfs``, else the row node with that evaluator and its reason."""
        child = plan(None, session.catalog.get("small")).root
        for pref in (
            SKY, SKY3, EXPLICIT, HighestPreference("d0"),
            AroundPreference("d0", 0.5), prioritized(SKY, EXPLICIT),
            prioritized(HighestPreference("d0"), LowestPreference("d1")),
        ):
            node = optimizer.winnow_node(child, pref)
            algorithm = choose_algorithm(pref)
            if algorithm == "vsfs":
                assert isinstance(node, ColumnarPreferenceSelect), pref
                assert node.reason == "lowers to code axes"
            else:
                assert type(node) is PreferenceSelect, pref
                assert node.algorithm == algorithm
                assert node.reason == row_reason(pref)

    def test_using_rejects_unknown_algorithm(self, session):
        q = session.query("small").prefer(SKY).using("gpu")
        with pytest.raises(ValueError, match="unknown algorithm 'gpu'"):
            q.run()


class TestPlannerIntegration:
    def test_big_skyline_plans_columnar(self, session):
        q = session.query("big").prefer(SKY3)
        assert "ColumnarPreferenceSelect" in q.explain()
        assert "backend=columnar" in q.explain()

    def test_explain_shows_the_decision_and_no_cost_line(self, session):
        text = session.query("big").prefer(SKY3).explain()
        assert "decision: lowers to code axes" in text
        assert "NumPy unavailable" not in text
        for gone in ("cost:", "selectivity", "stats=", "partitions="):
            assert gone not in text

    @pytest.mark.parametrize("shape, decision", [
        ("skyline", "lowers to code axes"),
        ("around", "lowers to code axes"),
        ("filtered", "lowers to code axes"),
        ("explicit", "no columnar dominance form"),
        ("highest", "weak order: one argmax pass"),
        ("pos", "weak order: one argmax pass"),
        ("grouped", None),
        ("top", None),
        ("cascade", None),
    ])
    def test_every_node_explains_its_decision_and_no_cost(
        self, shape, decision
    ):
        """Each winnow node prints the planner's decision and nothing
        priced: no ``cost:`` line, no ``partitions=`` suffix, no
        statistics provenance."""
        from repro.core.base_nonnumerical import PosPreference

        rows = [
            {"d0": i % 7, "d1": (i * 3) % 11, "d2": (i * 5) % 13,
             "g": i % 3, "c": ("red", "blue")[i % 2]}
            for i in range(200)
        ]
        q = Session({"t": rows}).query("t")
        query = {
            "skyline": lambda: q.prefer(SKY3),
            "around": lambda: q.prefer(
                pareto(AroundPreference("d0", 3), HighestPreference("d1"))
            ),
            "filtered": lambda: q.where(g=1).prefer(SKY3),
            "explicit": lambda: q.prefer(ExplicitPreference("d1", [(1, 2)])),
            "highest": lambda: q.prefer(HighestPreference("d0")),
            "pos": lambda: q.prefer(PosPreference("c", {"red"})),
            "grouped": lambda: q.prefer(SKY3).groupby("g"),
            "top": lambda: q.prefer(HighestPreference("d0")).top(3),
            "cascade": lambda: q.prefer(
                prioritized(HighestPreference("d0"), LowestPreference("d1"))
            ),
        }[shape]()
        text = query.explain()
        decisions = [
            line.strip() for line in text.splitlines() if "decision:" in line
        ]
        assert decisions == ([] if decision is None else [
            f"decision: {decision}"
        ])
        for gone in ("cost:", "selectivity", "stats=", "partitions="):
            assert gone not in text
        assert query.run() == query.using("bnl").run()

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
            assert sql.run() == spec.run() == sql.using("bnl").run()
        finally:
            service.close()

    def test_small_plans_like_big(self, session):
        text = session.query("small").prefer(SKY).explain()
        assert "ColumnarPreferenceSelect" in text
        rows = session.query("small").prefer(SKY).run()
        assert rows == session.query("small").prefer(SKY).using("bnl").run()

    def test_using_overrides_auto(self, session):
        """``using()`` is the one override: the forced evaluator runs on
        the row node, and no planner decision is printed."""
        text = session.query("big").prefer(SKY3).using("sfs").explain()
        assert "ColumnarPreferenceSelect" not in text
        assert "algorithm=sfs" in text
        assert "decision:" not in text

    def test_results_identical_across_backends(self, session):
        base = session.query("big").prefer(SKY3)
        rows = base.run()
        assert base.using("sfs").run() == rows
        assert base.using("bnl").run() == rows

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

    def test_auto_groupby_runs_the_code_kernels_per_group(self, session):
        base = session.query("big").prefer(SKY3).groupby("d0")
        assert "algorithm=vsfs" in base.explain()
        assert base.run() == base.using("bnl").run()

    def test_using_vsfs_names_columnar_kernel(self, session):
        q = session.query("small").prefer(SKY).using("vsfs")
        assert "algorithm=vsfs" in q.explain()
        assert q.run() == session.query("small").prefer(SKY).run()

    def test_forced_vsfs_on_ineligible_term_raises(self, session):
        """The planner never picks the code kernels for a term without a
        code form; forcing them anyway fails loudly, not silently."""
        from repro.engine.columnar import NotColumnarError

        assert choose_algorithm(EXPLICIT) != "vsfs"
        q = session.query("big").prefer(EXPLICIT).using("vsfs")
        assert "algorithm=vsfs" in q.explain()
        with pytest.raises(NotColumnarError, match="use another algorithm"):
            q.run()

    def test_groupby_using_vsfs(self, session):
        base = session.query("big").prefer(SKY).groupby("d0")
        forced = base.using("vsfs")
        assert "algorithm=vsfs" in forced.explain()
        assert forced.run() == base.run() == base.using("bnl").run()


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
                type(node), node.strategy, node.reason,
                type(grouped.root), grouped.root.algorithm,
            )

        with_numpy = decisions()
        monkeypatch.setattr(engine_backend, "_numpy", None)
        assert decisions() == with_numpy
        assert with_numpy[:2] == (ColumnarPreferenceSelect, "sfs")
        assert with_numpy[-1] == "vsfs"


class TestFingerprintAndCache:
    def test_forced_algorithm_in_fingerprint(self, session):
        q = session.query("big").prefer(SKY)
        assert q.fingerprint() != q.using("sfs").fingerprint()
        assert q.using("sfs").fingerprint() == q.using("sfs").fingerprint()

    def test_plans_cached_per_forced_algorithm(self, session):
        session.query("big").prefer(SKY).using("sfs").run()
        session.query("big").prefer(SKY).using("sfs").run()
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
