"""Relation (database set) tests."""

import pytest

from repro.relations.relation import Relation, RelationError
from repro.relations.schema import Schema, SchemaError


def cars() -> Relation:
    return Relation.from_dicts(
        "car",
        [
            {"make": "Opel", "price": 30000, "color": "red"},
            {"make": "BMW", "price": 50000, "color": "black"},
            {"make": "Opel", "price": 20000, "color": "red"},
            {"make": "VW", "price": 20000, "color": "blue"},
        ],
    )


class TestConstruction:
    def test_from_dicts_infers_schema(self):
        rel = cars()
        assert rel.attributes == ("make", "price", "color")
        assert len(rel) == 4

    def test_from_tuples(self):
        rel = Relation.from_tuples("r", ["a", "b"], [(1, 2), (3, 4)])
        assert rel.rows() == [{"a": 1, "b": 2}, {"a": 3, "b": 4}]

    def test_validation(self):
        schema = Schema([("a", int)])
        with pytest.raises(SchemaError):
            Relation("r", schema, [{"a": "not an int"}])

    def test_from_dicts_empty_needs_schema(self):
        with pytest.raises(RelationError):
            Relation.from_dicts("r", [])
        rel = Relation.from_dicts("r", [], schema=Schema(["a"]))
        assert len(rel) == 0

    def test_rows_are_copies(self):
        rel = cars()
        rel.rows()[0]["price"] = -1
        assert rel.rows()[0]["price"] == 30000


    def test_external_input_is_still_copied(self):
        source = [{"a": 1}, {"a": 2}]
        rel = Relation.from_dicts("r", source)
        source[0]["a"] = 99
        assert rel.rows() == [{"a": 1}, {"a": 2}]

    def test_derived_relations_share_rows_but_never_leak_them(self):
        """Internal derivations reuse the parent's row dicts (no per-row
        copy), which is sound only because nothing hands those dicts out:
        whatever a caller gets from a derived relation is a copy, so
        mutating it changes neither the derived relation nor its parent."""
        from repro.core.base_numerical import HighestPreference, LowestPreference
        from repro.core.constructors import pareto
        from repro.engine.columnar import columnar_winnow, sort_based_maxima
        from repro.query.bmo import winnow
        from repro.relations.schema import Key

        parent = cars()
        before = parent.rows()
        pref = pareto(LowestPreference("price"), HighestPreference("make"))
        derived = [
            parent.select(lambda r: r["make"] == "Opel"),
            sort_based_maxima(HighestPreference("price"), parent),
            parent.with_name("auto"),
            parent.declare(Key(("make", "price"))),
            winnow(pref, parent),
            columnar_winnow(pref, parent),
        ]
        for child in derived:
            assert len(child) >= 1
            snapshot = child.rows()
            for row in child.rows():
                row["price"] = -1
                row["extra"] = "leak"
            for row in child:
                row.clear()
            assert child.rows() == snapshot
        assert parent.rows() == before
        # select/take/with_name/declare really do share (that is the saving).
        assert derived[0]._rows[0] is parent._rows[0]
        assert derived[2]._rows is parent._rows


class TestOperators:
    def test_select(self):
        assert len(cars().select(lambda r: r["make"] == "Opel")) == 2

    def test_project_bag_vs_set(self):
        rel = cars()
        assert len(rel.project(["color"])) == 4
        assert len(rel.project(["color"], dedupe=True)) == 3

    def test_project_unknown_attribute(self):
        with pytest.raises(SchemaError):
            cars().project(["nope"])

    def test_distinct(self):
        rel = Relation.from_dicts("r", [{"a": 1}, {"a": 1}, {"a": 2}])
        assert len(rel.distinct()) == 2

    def test_extend_and_drop(self):
        rel = cars().extend("half", lambda r: r["price"] // 2, int)
        assert rel.rows()[0]["half"] == 15000
        assert "half" not in rel.drop(["half"]).attributes
        with pytest.raises(RelationError):
            rel.extend("half", lambda r: 0)

    def test_rename(self):
        rel = cars().rename({"price": "cost"})
        assert "cost" in rel.attributes and "price" not in rel.attributes

    def test_order_by_attributes_and_key(self):
        rel = cars().order_by(["price"])
        assert [r["price"] for r in rel] == [20000, 20000, 30000, 50000]
        rel2 = cars().order_by(lambda r: -r["price"])
        assert rel2.rows()[0]["make"] == "BMW"

    def test_order_by_descending(self):
        rel = cars().order_by(["price"], descending=True)
        assert rel.rows()[0]["price"] == 50000

    def test_limit(self):
        assert len(cars().limit(2)) == 2

    def test_group_by(self):
        groups = cars().group_by(["make"])
        assert len(groups[("Opel",)]) == 2
        assert set(groups) == {("Opel",), ("BMW",), ("VW",)}

    def test_union_all_keeps_duplicates(self):
        rel = cars()
        assert len(rel.union_all(rel)) == 8

    def test_intersect_and_difference(self):
        rel = cars()
        cheap = rel.select(lambda r: r["price"] <= 20000)
        assert rel.intersect(cheap) == cheap
        assert len(rel.difference(cheap)) == 2

    def test_set_ops_need_same_attributes(self):
        with pytest.raises(RelationError):
            cars().intersect(cars().project(["make"]))

    def test_natural_join(self):
        prices = Relation.from_dicts(
            "tax", [{"make": "Opel", "tax": 0.1}, {"make": "BMW", "tax": 0.2}]
        )
        joined = cars().natural_join(prices)
        assert len(joined) == 3  # VW has no tax row
        assert all("tax" in r for r in joined)

    def test_cross_join_via_disjoint_natural_join(self):
        colors = Relation.from_dicts("k", [{"k": 1}, {"k": 2}])
        assert len(cars().natural_join(colors)) == 8

    def test_column_and_tuples(self):
        rel = cars()
        assert rel.column("make")[0] == "Opel"
        assert rel.tuples(["make", "price"])[1] == ("BMW", 50000)
        with pytest.raises(RelationError):
            rel.column("nope")


class TestEquality:
    def test_bag_equality_ignores_order(self):
        r1 = Relation.from_dicts("a", [{"x": 1}, {"x": 2}])
        r2 = Relation.from_dicts("b", [{"x": 2}, {"x": 1}])
        assert r1 == r2

    def test_bag_equality_counts_duplicates(self):
        r1 = Relation.from_dicts("a", [{"x": 1}, {"x": 1}])
        r2 = Relation.from_dicts("b", [{"x": 1}])
        assert r1 != r2


class TestDisplay:
    def test_head(self):
        text = cars().head(2)
        assert "make" in text and "..." in text

    def test_repr(self):
        assert "4 rows" in repr(cars())
