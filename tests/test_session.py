"""Session tests: catalog management, the plan cache, and front-end parity.

The plan cache is keyed on (query fingerprint, relation name, relation
version); any catalog change to a relation bumps its version and
invalidates cached plans.  Parity: the same query expressed through the
fluent builder, Preference SQL text, and (where expressible) Preference
XPath must return the same rows — they share one pipeline.
"""

from collections import OrderedDict

import pytest

from repro import session as session_module
from repro.core.base_nonnumerical import PosPreference
from repro.core.base_numerical import AroundPreference, LowestPreference
from repro.core.constructors import pareto, prioritized
from repro.relations.catalog import Catalog
from repro.relations.relation import Relation, RelationError
from repro.session import DEFAULT_FUNCTIONS, Session

ROWS = [
    {"oid": 1, "color": "black", "price": 9500, "mileage": 40000},
    {"oid": 2, "color": "white", "price": 12000, "mileage": 30000},
    {"oid": 3, "color": "red", "price": 10000, "mileage": 20000},
    {"oid": 4, "color": "black", "price": 10100, "mileage": 25000},
    {"oid": 5, "color": "blue", "price": 8000, "mileage": 60000},
]


def oids(result) -> list[int]:
    return sorted(r["oid"] for r in result)


class TestConstruction:
    def test_from_rows_mapping(self):
        s = Session({"car": ROWS})
        assert len(s.catalog.get("car")) == 5

    def test_from_relations_and_catalog(self):
        rel = Relation.from_dicts("car", ROWS)
        assert len(Session({"car": rel}).catalog.get("car")) == 5
        catalog = Catalog({"car": rel})
        s = Session(catalog)
        assert s.catalog is catalog

    def test_empty_session_register_later(self):
        s = Session()
        s.register("car", ROWS)
        assert "car" in s.catalog
        with pytest.raises(RelationError):
            s.register("car", ROWS)  # replace=False by default
        s.register("car", ROWS[:2], replace=True)
        assert len(s.catalog.get("car")) == 2

    def test_register_needs_rows_or_relation(self):
        with pytest.raises(TypeError):
            Session().register("car")

    def test_default_functions_present(self):
        s = Session()
        assert set(DEFAULT_FUNCTIONS) <= set(s.functions)
        s.register_function("double", lambda x: 2 * x)
        assert s.functions["double"](3) == 6

    def test_default_functions_are_callable(self):
        assert DEFAULT_FUNCTIONS["product"](2, 3, 4) == 24
        assert DEFAULT_FUNCTIONS["avg"](2, 4) == 3
        assert DEFAULT_FUNCTIONS["negate"](5) == -5


class TestPlanCache:
    def test_hit_on_identical_query(self):
        s = Session({"car": ROWS})
        pref = LowestPreference("price")
        s.query("car").prefer(pref).run()
        assert s.cache_info().misses == 1 and s.cache_info().hits == 0
        s.query("car").prefer(pref).run()
        assert s.cache_info().hits == 1 and s.cache_info().misses == 1

    def test_miss_on_different_query(self):
        s = Session({"car": ROWS})
        s.query("car").prefer(LowestPreference("price")).run()
        s.query("car").prefer(LowestPreference("mileage")).run()
        assert s.cache_info().misses == 2

    def test_relation_mutation_invalidates(self):
        s = Session({"car": ROWS})
        q = s.query("car").prefer(LowestPreference("price"))
        assert oids(q.run()) == [5]
        assert s.catalog.version("car") == 1
        s.register("car", ROWS[:1], replace=True)
        assert s.catalog.version("car") == 2
        # same builder object replans against the new version; the stale
        # entry for version 1 is evicted so it cannot pin the old relation
        assert oids(q.run()) == [1]
        assert s.cache_info().misses == 2
        assert s.cache_info().size == 1

    def test_drop_and_reregister_never_reuses_stale_plan(self):
        s = Session({"car": ROWS})
        q = s.query("car").prefer(LowestPreference("price"))
        q.run()
        s.catalog.drop("car")
        s.register("car", ROWS[1:2])
        assert s.catalog.version("car") == 3
        assert oids(q.run()) == [2]

    def test_sql_text_shares_cache_with_fluent(self):
        s = Session({"car": ROWS})
        s.sql("SELECT * FROM car PREFERRING price AROUND 10000")
        s.query("car").prefer(AroundPreference("price", 10000)).run()
        info = s.cache_info()
        assert info.hits == 1 and info.misses == 1

    def test_clear(self):
        s = Session({"car": ROWS})
        s.query("car").prefer(LowestPreference("price")).run()
        s.clear_plan_cache()
        assert s.cache_info() == (0, 0, 0)

    def test_sql_ranking_clauses_need_preferring(self):
        from repro.psql.translate import TranslationError

        s = Session({"car": ROWS})
        for text in (
            "SELECT * FROM car TOP 1",
            "SELECT * FROM car GROUPING color",
        ):
            with pytest.raises(TranslationError, match="PREFERRING"):
                s.sql(text)

    def test_explain_does_not_execute_but_caches(self):
        s = Session({"car": ROWS})
        q = s.query("car").prefer(LowestPreference("price"))
        q.explain()
        q.run()
        assert s.cache_info().hits == 1


class _CountingCache(OrderedDict):
    """A plan cache that counts full scans."""

    def __init__(self):
        super().__init__()
        self.scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


class TestBoundedPlanCache:
    """The plan cache is an LRU of :data:`PLAN_CACHE_ENTRIES` plans."""

    @staticmethod
    def _around(s, z):
        return s.query("car").prefer(AroundPreference("price", z)).run()

    def test_it_holds_at_most_the_bound(self, monkeypatch):
        monkeypatch.setattr(session_module, "PLAN_CACHE_ENTRIES", 3)
        s = Session({"car": ROWS})
        for z in range(5):
            self._around(s, z)
        assert s.cache_info().size == 3
        self._around(s, 0)  # the oldest went first
        assert s.cache_info() == (0, 6, 3)
        self._around(s, 4)
        assert s.cache_info().hits == 1

    def test_a_hit_keeps_a_plan_recent(self, monkeypatch):
        monkeypatch.setattr(session_module, "PLAN_CACHE_ENTRIES", 2)
        s = Session({"car": ROWS})
        self._around(s, 1)
        self._around(s, 2)
        self._around(s, 1)  # hit: now 2 is the least recently used
        self._around(s, 3)
        self._around(s, 1)
        assert s.cache_info().hits == 2
        self._around(s, 2)
        assert s.cache_info().misses == 4

    def test_a_new_version_evicts_the_old_ones_and_only_those(self):
        s = Session({"car": ROWS, "other": ROWS})
        for z in range(4):
            self._around(s, z)
        s.query("other").prefer(LowestPreference("price")).run()
        s.insert_rows("car", [dict(ROWS[0], oid=6)])
        version = s.catalog.version("car")
        assert sorted(k[1] for k in s._plan_cache) == ["other"]
        self._around(s, 0)
        assert {(k[1], k[2]) for k in s._plan_cache} == {
            ("other", 1), ("car", version),
        }

    def test_misses_at_one_version_do_not_scan_the_cache(self):
        s = Session({"car": ROWS})
        s._plan_cache = cache = _CountingCache()
        for z in range(20):
            self._around(s, z)
        assert cache.scans == 0
        s.insert_rows("car", [dict(ROWS[0], oid=6)])
        self._around(s, 0)
        assert cache.scans == 1


class TestFrontEndParity:
    """Same query text -> same rows as the fluent equivalent."""

    def test_psql_parity_prioritized(self):
        s = Session({"car": ROWS})
        sql_rows = s.sql(
            "SELECT * FROM car PREFERRING color IN ('black', 'white') "
            "PRIOR TO price AROUND 10000"
        )
        fluent_rows = (
            s.query("car")
            .prefer(prioritized(
                PosPreference("color", {"black", "white"}),
                AroundPreference("price", 10000),
            ))
            .run()
        )
        assert sql_rows == fluent_rows

    def test_psql_parity_where_groupby(self):
        s = Session({"car": ROWS})
        sql_rows = s.sql(
            "SELECT * FROM car WHERE price < 12000 "
            "PREFERRING LOWEST(mileage) GROUPING color"
        )
        fluent_rows = (
            s.query("car")
            .where(lambda r: r["price"] < 12000)
            .prefer(LowestPreference("mileage"))
            .groupby("color")
            .run()
        )
        assert sql_rows == fluent_rows

    def test_pxpath_parity(self):
        from repro.pxpath.evaluator import PreferenceXPath
        from repro.pxpath.model import parse_xml

        attrs = "".join(
            f'<CAR oid="{r["oid"]}" color="{r["color"]}" price="{r["price"]}" '
            f'mileage="{r["mileage"]}"/>'
            for r in ROWS
        )
        px = PreferenceXPath(parse_xml(f"<CARS>{attrs}</CARS>"))
        xpath_out = px.query(
            '/CARS/CAR #[(@color) in ("black", "white") prior to '
            "(@price) around 10000]#"
        )
        s = Session({"car": ROWS})
        fluent_out = (
            s.query("car")
            .prefer(prioritized(
                PosPreference("color", {"black", "white"}),
                AroundPreference("price", 10000),
            ))
            .run()
        )
        assert sorted(n.get("oid") for n in xpath_out) == oids(fluent_out)

    def test_executor_and_session_sql_agree(self):
        from repro.psql.executor import PreferenceSQL

        rel = Relation.from_dicts("car", ROWS)
        text = "SELECT oid FROM car PREFERRING price AROUND 10000"
        via_executor = PreferenceSQL(Catalog({"car": rel})).execute(text)
        via_session = Session({"car": rel}).sql(text)
        assert via_executor == via_session


class TestPaperExamples:
    """The paper's Section 5 queries through the unified API (Examples
    14/15 shapes: plain BMO and grouped BMO over the used-car set)."""

    def test_example14_query_and_explain(self):
        s = Session({"car": ROWS})
        wish = pareto(
            PosPreference("color", {"red"}), AroundPreference("price", 9500)
        )
        q = s.query("car").prefer(wish)
        assert oids(q.run()) == [1, 3]
        text = q.explain()
        assert "kernel=vsfs" in text and "rewrites applied:" in text

    def test_example15_grouped_query_and_explain(self):
        s = Session({"car": ROWS})
        q = s.query("car").prefer(LowestPreference("price")).groupby("color")
        assert oids(q.run()) == [1, 2, 3, 5]
        text = q.explain()
        assert "GroupedPreferenceSelect" in text
        assert "algorithm=" in text and "rewrites applied:" in text
