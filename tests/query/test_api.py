"""Tests for the fluent PreferenceQuery API — the unified entry point.

Covers builder chaining (order independence, immutability), every clause,
terminal methods, the deprecated functional shims, and the acceptance
property that all three front ends (fluent, Preference SQL, Preference
XPath) funnel through the same planning pipeline.
"""

import pytest

from repro.core.base_nonnumerical import PosPreference
from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import dual, pareto, prioritized
from repro.query import optimizer
from repro.query.api import PreferenceQuery, preference_to_ast
from repro.query.bmo import winnow, winnow_groupby
from repro.query.quality import QualityCondition
from repro.query.topk import k_best
from repro.relations.relation import Relation
from repro.session import Session

CAR_ROWS = [
    {"oid": 1, "make": "Opel", "category": "roadster", "price": 38000,
     "power": 110, "color": "red", "mileage": 20000},
    {"oid": 2, "make": "Opel", "category": "cabriolet", "price": 42000,
     "power": 130, "color": "red", "mileage": 15000},
    {"oid": 3, "make": "Opel", "category": "passenger", "price": 30000,
     "power": 90, "color": "blue", "mileage": 70000},
    {"oid": 4, "make": "BMW", "category": "roadster", "price": 55000,
     "power": 200, "color": "black", "mileage": 10000},
    {"oid": 5, "make": "Opel", "category": "suv", "price": 39000,
     "power": 120, "color": "gray", "mileage": 40000},
]


@pytest.fixture
def session() -> Session:
    return Session({"car": CAR_ROWS})


def oids(result) -> list[int]:
    return sorted(r["oid"] for r in result)


class TestChaining:
    def test_order_independence(self, session):
        wish = pareto(PosPreference("color", {"red"}), AroundPreference("price", 40000))
        a = session.query("car").prefer(wish).groupby("make").limit(3)
        b = session.query("car").limit(3).groupby("make").prefer(wish)
        assert a.fingerprint() == b.fingerprint()
        assert a == b
        assert a.run() == b.run()

    def test_builders_are_immutable_prefixes_shared(self, session):
        base = session.query("car").prefer(LowestPreference("price"))
        top2 = base.top(2)
        assert base._top is None  # original untouched
        assert oids(base.run()) == [3]
        assert len(top2.run()) == 2

    def test_where_forms_conjoin(self, session):
        q = (
            session.query("car")
            .where(lambda r: r["price"] < 50000, label="price < 50000")
            .where(make="Opel")
            .prefer(HighestPreference("power"))
        )
        assert oids(q.run()) == [2]
        # Each conjunct plans as its own HardSelect so the rewrite engine
        # can analyse (and move) them independently.
        text = q.explain()
        assert "HardSelect[price < 50000]" in text
        assert "HardSelect[make = 'Opel']" in text

    def test_where_requires_a_condition(self, session):
        with pytest.raises(TypeError):
            session.query("car").where()

    def test_prefer_rejects_non_preference(self, session):
        with pytest.raises(TypeError):
            session.query("car").prefer("LOWEST(price)")

    def test_cascade_prioritizes(self, session):
        q = (
            session.query("car")
            .prefer(PosPreference("category", {"roadster"}))
            .cascade(LowestPreference("price"))
        )
        assert oids(q.run()) == [1]

    def test_but_only_tuples_and_objects(self, session):
        pref = AroundPreference("price", 40000)
        q1 = session.query("car").prefer(pref).but_only(
            ("distance", "price", "<=", 1000)
        )
        q2 = session.query("car").prefer(pref).but_only(
            QualityCondition("distance", "price", "<=", 1000)
        )
        assert q1.run() == q2.run()
        assert oids(q1.run()) == [5]

    def test_top_validates_eagerly(self, session):
        with pytest.raises(ValueError):
            session.query("car").top(0)
        with pytest.raises(ValueError):
            session.query("car").top(1, ties="fuzzy")

    def test_select_order_by_limit(self, session):
        q = (
            session.query("car")
            .prefer(AroundPreference("price", 40000))
            .groupby("make")
            .order_by(("price", True))
            .select("oid", "price")
            .limit(1)
        )
        out = q.run()
        assert out.attributes == ("oid", "price")
        assert out.rows() == [{"oid": 4, "price": 55000}]

    def test_groupby_without_preference_fails_at_plan(self, session):
        with pytest.raises(ValueError, match="preference term"):
            session.query("car").groupby("make").run()

    def test_plain_exact_match_query(self, session):
        out = session.query("car").where(make="BMW").select("oid").run()
        assert out.rows() == [{"oid": 4}]


class TestSources:
    def test_over_rows_returns_rows(self):
        out = PreferenceQuery.over(CAR_ROWS).prefer(LowestPreference("price")).run()
        assert isinstance(out, list)
        assert oids(out) == [3]

    def test_over_relation_returns_relation(self):
        rel = Relation.from_dicts("car", CAR_ROWS)
        out = PreferenceQuery.over(rel).prefer(LowestPreference("price")).run()
        assert isinstance(out, Relation)

    def test_over_empty_rows(self):
        assert PreferenceQuery.over([]).prefer(LowestPreference("x")).run() == []

    def test_iteration(self, session):
        q = session.query("car").prefer(LowestPreference("price"))
        assert [r["oid"] for r in q] == [3]
        assert [r["oid"] for r in q.iter()] == [3]
        assert q.count() == 1

    def test_using_callable_engine(self, session):
        calls = []

        def engine(pref, rows):
            calls.append(len(rows))
            return rows

        session.query("car").prefer(LowestPreference("price")).using(engine).run()
        assert calls == [len(CAR_ROWS)]


class TestExplain:
    def test_example14_bmo_query_explains_algorithm_and_rewrites(self, session):
        """The paper's Section 5 car query (Example 14 shape): BMO over a
        Pareto wish behind a hard filter."""
        q = (
            session.query("car")
            .where(make="Opel")
            .prefer(pareto(
                PosPreference("category", {"roadster"}),
                AroundPreference("price", 40000),
            ))
        )
        text = q.explain()
        assert "ColumnarPreferenceSelect" in text
        assert "kernel=vsfs" in text
        assert "decision: lowers to code axes" in text
        assert "rewrites applied:" in text
        assert "HardSelect[make = 'Opel']" in text

    def test_example15_grouped_query_explains(self, session):
        """Grouped BMO (Example 15 shape, Definition 16): best price per
        make."""
        q = (
            session.query("car")
            .prefer(AroundPreference("price", 40000))
            .groupby("make")
        )
        text = q.explain()
        assert "GroupedPreferenceSelect" in text and "groupby" in text
        assert "algorithm=sort" in text
        assert "rewrites applied:" in text
        assert oids(q.run()) == [4, 5]

    def test_fired_laws_are_listed(self, session):
        q = session.query("car").prefer(dual(dual(LowestPreference("price"))))
        assert "rewrites applied:" in q.explain()
        assert "(none)" not in q.explain()


class TestToSql:
    def test_fluent_to_sql_roundtrip(self, session):
        q = (
            session.query("car")
            .where(make="Opel")
            .prefer(pareto(
                PosPreference("color", {"red"}),
                AroundPreference("price", 40000),
            ))
        )
        sql = q.to_sql()
        assert "NOT EXISTS" in sql and "FROM car" in sql
        from repro.psql.sqlgen import to_sql92

        assert sql == to_sql92(q._ast_query())

    def test_sql_text_roundtrips_verbatim(self, session):
        text = (
            "SELECT * FROM car WHERE make = 'Opel' "
            "PREFERRING price AROUND 40000"
        )
        q = session.sql_query(text)
        assert "ABS(u.price - 40000)" in q.to_sql()

    def test_callable_where_is_not_translatable(self, session):
        q = session.query("car").where(lambda r: True).prefer(
            LowestPreference("price")
        )
        with pytest.raises(ValueError, match="callable"):
            q.to_sql()

    def test_unsupported_preference_raises(self, session):
        from repro.core.base_numerical import ScorePreference

        q = session.query("car").prefer(
            ScorePreference("price", lambda v: -v, name="f")
        )
        with pytest.raises(ValueError, match="no Preference SQL syntax"):
            q.to_sql()

    def test_preference_to_ast_covers_named_constructors(self):
        from repro.core.base_nonnumerical import (
            ExplicitPreference,
            NegPreference,
            PosNegPreference,
            PosPosPreference,
        )
        from repro.core.base_numerical import BetweenPreference

        for pref in [
            PosPreference("a", {1}),
            NegPreference("a", {1}),
            PosNegPreference("a", {1}, {2}),
            PosPosPreference("a", {1}, {2}),
            ExplicitPreference("a", [(1, 2)]),
            AroundPreference("a", 1),
            BetweenPreference("a", 1, 2),
            HighestPreference("a"),
            LowestPreference("a"),
            prioritized(PosPreference("a", {1}), LowestPreference("b")),
            pareto(HighestPreference("a"), LowestPreference("b")),
        ]:
            assert preference_to_ast(pref) is not None


class TestDeprecatedShims:
    """``bmo`` / ``bmo_groupby`` / ``top_k`` are gone; the operators they
    wrapped were never shims."""

    def test_winnow_is_the_engine_and_does_not_warn(self, recwarn):
        assert oids(winnow(LowestPreference("price"), CAR_ROWS)) == [3]
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_shims_are_gone(self):
        import repro.query as query

        for name in ("bmo", "bmo_groupby", "top_k"):
            # (``query.bmo`` is the module the operators live in.)
            assert not callable(getattr(query, name, None))


class TestEngineOperators:
    """The engine-level operators return what the planned pipeline does."""

    def test_winnow_matches_fluent(self):
        pref = pareto(PosPreference("color", {"red"}), LowestPreference("price"))
        assert winnow(pref, CAR_ROWS) == (
            PreferenceQuery.over(CAR_ROWS).prefer(pref).run()
        )

    def test_winnow_groupby_matches_fluent(self):
        pref = AroundPreference("price", 40000)
        old = winnow_groupby(pref, ["make"], CAR_ROWS)
        new = PreferenceQuery.over(CAR_ROWS).prefer(pref).groupby("make").run()
        assert old == new

    def test_k_best_matches_fluent(self):
        pref = HighestPreference("power")
        old = k_best(pref, CAR_ROWS, 2)
        new = PreferenceQuery.over(CAR_ROWS).prefer(pref).top(2).run()
        assert old == new
        assert [r["oid"] for r in new] == [4, 2]


class TestUnifiedPipeline:
    """Acceptance: every front end funnels through optimizer.plan."""

    @pytest.fixture
    def plan_spy(self, monkeypatch):
        calls = []
        original = optimizer.plan

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(optimizer, "plan", spy)
        return calls

    def test_fluent_api_uses_planner(self, session, plan_spy):
        session.query("car").prefer(LowestPreference("price")).run()
        assert len(plan_spy) == 1

    def test_psql_executor_uses_planner(self, plan_spy):
        from repro.psql.executor import PreferenceSQL
        from repro.relations.catalog import Catalog

        psql = PreferenceSQL(Catalog({"car": Relation.from_dicts("car", CAR_ROWS)}))
        out = psql.execute("SELECT * FROM car PREFERRING LOWEST(price)")
        assert oids(out) == [3]
        assert len(plan_spy) == 1

    def test_pxpath_evaluator_uses_planner(self, plan_spy):
        from repro.pxpath.evaluator import PreferenceXPath
        from repro.pxpath.model import parse_xml

        doc = parse_xml(
            '<CARS><CAR color="red" price="1"/><CAR color="red" price="2"/></CARS>'
        )
        out = PreferenceXPath(doc).query("/CARS/CAR #[(@price) lowest]#")
        assert [n.get("price") for n in out] == [1]
        assert len(plan_spy) == 1
