"""Backend contract tests: memory no-ops, SQLite mirror fidelity, and the
blacklist discipline (anything the engine cannot store faithfully turns
pushdown off for that relation — it never stores an approximation).

The Postgres class runs only when ``$REPRO_PG_DSN`` points at a live
server (CI's ``storage-postgres`` job); everywhere else it skips.
"""

from __future__ import annotations

import os

import pytest

from repro.psql.ast import BoolOp, Comparison, HardBetween, InList, IsNull
from repro.psql.translate import translate_where
from repro.relations.relation import Relation
from repro.relations.schema import Attribute, Schema
from repro.storage import MemoryBackend, StorageError, open_backend
from repro.storage.sqlite import SQLiteBackend


def car_relation() -> Relation:
    return Relation.from_dicts("car", [
        {"id": 1, "make": "opel", "price": 40_000.0, "ok": True},
        {"id": 2, "make": "bmw", "price": None, "ok": False},
        {"id": 3, "make": "opel", "price": 35_000.0, "ok": True},
        {"id": 3, "make": "opel", "price": 35_000.0, "ok": True},  # dup
    ])


class TestOpenBackend:
    def test_default_is_memory(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORAGE", raising=False)
        assert open_backend().name == "memory"

    def test_explicit_specs(self, tmp_path):
        assert open_backend("memory").name == "memory"
        backend = open_backend("sqlite")
        assert backend.name == "sqlite" and backend.supports_pushdown
        backend.close()
        on_disk = open_backend(f"sqlite:{tmp_path / 'mirror.db'}")
        on_disk.sync(car_relation(), version=1)
        assert (tmp_path / "mirror.db").exists()
        on_disk.close()

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE", "sqlite")
        backend = open_backend()
        assert backend.name == "sqlite"
        backend.close()

    def test_unknown_backend_is_an_error(self):
        with pytest.raises(StorageError):
            open_backend("oracle")


class TestMemoryBackend:
    def test_contract_is_all_fallbacks(self):
        backend = MemoryBackend()
        backend.sync(car_relation(), version=1)
        assert backend.name == "memory"
        assert not backend.supports_pushdown
        assert not backend.mirrored("car")
        assert backend.table_version("car") is None
        assert backend.prefilter("car", [], 1) is None
        backend.insert("car", [{"id": 9}], 2)
        backend.delete("car", [{"id": 9}], 3)
        backend.drop("car")
        backend.close()


class BackendContract:
    """Shared mirror-semantics assertions; subclasses supply a backend."""

    @pytest.fixture
    def backend(self):
        raise NotImplementedError

    def test_prefilter_returns_exact_rows_in_insertion_order(self, backend):
        relation = car_relation()
        backend.sync(relation, version=1)
        assert backend.mirrored("car")
        assert backend.table_version("car") == 1
        got = backend.prefilter("car", [], 1)
        assert got == relation.rows()
        opels = backend.prefilter(
            "car", [Comparison("make", "=", "opel")], 1
        )
        assert opels == [r for r in relation.rows() if r["make"] == "opel"]

    def test_type_fidelity_across_the_mirror(self, backend):
        relation = Relation("t", Schema([
            Attribute("price", float), Attribute("flag", bool),
            Attribute("name", str),
        ]), [
            {"price": 100, "flag": True, "name": "a"},
            {"price": 99.5, "flag": False, "name": None},
        ])
        backend.sync(relation, version=1)
        rows = backend.prefilter("t", [], 1)
        # int-in-a-float-column survives as int; bool stays bool.
        assert rows == relation.rows()
        assert isinstance(rows[0]["price"], int)
        assert rows[0]["flag"] is True and rows[1]["flag"] is False

    def test_insert_and_first_match_bag_delete(self, backend):
        backend.sync(car_relation(), version=1)
        backend.insert("car", [
            {"id": 4, "make": "vw", "price": 20_000.0, "ok": True},
        ], version=2)
        assert backend.table_version("car") == 2
        # Two identical id=3 rows: deleting one must remove exactly one.
        backend.delete("car", [
            {"id": 3, "make": "opel", "price": 35_000.0, "ok": True},
        ], version=3)
        rows = backend.prefilter("car", [], 3)
        assert len([r for r in rows if r["id"] == 3]) == 1
        assert [r["id"] for r in rows] == [1, 2, 3, 4]  # order kept

    def test_null_safe_delete(self, backend):
        backend.sync(car_relation(), version=1)
        backend.delete("car", [
            {"id": 2, "make": "bmw", "price": None, "ok": False},
        ], version=2)
        rows = backend.prefilter("car", [], 2)
        assert all(r["id"] != 2 for r in rows)

    def test_stale_version_answers_none(self, backend):
        backend.sync(car_relation(), version=1)
        assert backend.prefilter("car", [], 99) is None

    def test_all_pushable_shapes_match_python(self, backend):
        relation = car_relation()
        backend.sync(relation, version=1)
        cases = [
            Comparison("price", "<=", 40_000.0),
            Comparison("make", "<>", "bmw"),
            InList("make", ("opel", "vw")),
            HardBetween("price", 30_000.0, 40_000.0),
            IsNull("price"),
            IsNull("price", negated=True),
            BoolOp("OR", (Comparison("make", "=", "bmw"),
                          Comparison("price", "<", 36_000.0))),
            BoolOp("AND", (Comparison("ok", "=", True),
                           Comparison("price", ">", 0))),
        ]
        for conjunct in cases:
            got = backend.prefilter("car", [conjunct], 1)
            expected = relation.select(translate_where(conjunct)).rows()
            assert got == expected, conjunct

    def test_unmirrorable_schema_is_blacklisted(self, backend):
        # An attribute with no declared type cannot mirror faithfully.
        bare = Relation("blob", Schema([Attribute("x")]), [{"x": 1}],
                        validate=False)
        backend.sync(bare, version=1)
        assert not backend.mirrored("blob")
        assert backend.table_version("blob") is None
        assert backend.prefilter("blob", [], 1) is None

    def test_drop_removes_the_mirror(self, backend):
        backend.sync(car_relation(), version=1)
        backend.drop("car")
        assert not backend.mirrored("car")
        assert backend.prefilter("car", [], 1) is None

    def test_render_prefilter_orders_by_rid(self, backend):
        backend.sync(car_relation(), version=1)
        sql, params = backend.render_prefilter(
            "car", [Comparison("make", "=", "opel")]
        )
        assert 'ORDER BY "_rid"' in sql
        assert params == ("opel",)


class TestSQLiteBackend(BackendContract):
    @pytest.fixture
    def backend(self):
        b = SQLiteBackend()
        yield b
        b.close()

    def test_nan_data_blacklists_the_mirror(self, backend):
        relation = Relation("m", Schema([Attribute("x", float)]),
                            [{"x": 1.0}])
        backend.sync(relation, version=1)
        assert backend.mirrored("m")
        # SQLite binds NaN as NULL — storing it would corrupt parity.
        backend.insert("m", [{"x": float("nan")}], version=2)
        assert not backend.mirrored("m")
        assert backend.prefilter("m", [], 2) is None

    def test_oversized_int_blacklists_the_mirror(self, backend):
        relation = Relation.from_dicts("m", [{"x": 1}])
        backend.sync(relation, version=1)
        backend.insert("m", [{"x": 2**70}], version=2)  # > 64-bit
        assert not backend.mirrored("m")

    def test_missed_delete_blacklists_the_mirror(self, backend):
        backend.sync(car_relation(), version=1)
        backend.delete("car", [
            {"id": 99, "make": "ghost", "price": 0.0, "ok": True},
        ], version=2)
        assert not backend.mirrored("car")

    def test_reserved_rid_attribute_blacklists(self, backend):
        relation = Relation.from_dicts("m", [{"_rid": 1}])
        backend.sync(relation, version=1)
        assert not backend.mirrored("m")


@pytest.mark.skipif(
    not os.environ.get("REPRO_PG_DSN"),
    reason="needs $REPRO_PG_DSN pointing at a live Postgres server",
)
class TestPostgresBackend(BackendContract):
    @pytest.fixture
    def backend(self):
        from repro.storage.postgres import PostgresBackend

        b = PostgresBackend(os.environ["REPRO_PG_DSN"])
        yield b
        b.close()

    def test_schemas_are_isolated_per_backend(self):
        from repro.storage.postgres import PostgresBackend

        first = PostgresBackend(os.environ["REPRO_PG_DSN"])
        second = PostgresBackend(os.environ["REPRO_PG_DSN"])
        try:
            first.sync(car_relation(), version=1)
            assert second.table_version("car") is None
        finally:
            first.close()
            second.close()
