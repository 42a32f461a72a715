"""The ``push_select_into_storage`` rewrite and its pushdown boundary.

Covers the full chain: ``pushable_where`` decides which conjuncts are
SQL-safe, the optimizer plants a version-stamped ``StorageScan``, the
``push_select_into_storage`` rule absorbs pushable ``HardSelect`` nodes
into it, and execution either runs the backend prefilter (version
matches) or silently falls back to the pinned in-memory snapshot —
bit-exact answers either way.  A code-kernel winnow whose selection
NumPy masks reads the snapshot instead (``mask_select_under_kernel``).
"""

from __future__ import annotations

import datetime

import pytest

from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import pareto
from repro.engine.backend import numpy_available
from repro.psql.ast import (
    BoolOp,
    Comparison,
    HardBetween,
    InList,
    IsNull,
    LikePattern,
    NotOp,
)
from repro.relations.relation import Relation
from repro.session import Session
from repro.storage import pushable_where
from repro.storage.sqlite import SQLiteBackend

ROWS = [
    {"make": "opel", "price": 20_000.0, "power": 90},
    {"make": "bmw", "price": 38_000.0, "power": 170},
    {"make": "opel", "price": 41_000.0, "power": 150},
    {"make": "vw", "price": 39_500.0, "power": 110},
    {"make": "opel", "price": 39_000.0, "power": 140},
]


@pytest.fixture
def sqlite_session():
    session = Session({"car": [dict(r) for r in ROWS]},
                      storage=SQLiteBackend())
    yield session
    session.close()


class TestPushableWhere:
    schema = Relation.from_dicts("car", ROWS).schema

    def ok(self, expr) -> bool:
        return pushable_where(expr, self.schema)

    def test_positive_monotone_fragment_is_pushable(self):
        assert self.ok(Comparison("make", "=", "opel"))
        assert self.ok(Comparison("price", "<=", 40_000.0))
        assert self.ok(Comparison("power", ">", True))  # bool vs numeric
        assert self.ok(InList("make", ("opel", "vw")))
        assert self.ok(HardBetween("price", 1.0, 2.0))
        assert self.ok(IsNull("price"))
        assert self.ok(IsNull("price", negated=True))
        assert self.ok(BoolOp("AND", (
            Comparison("make", "=", "opel"),
            BoolOp("OR", (Comparison("price", "<", 1.0),
                          Comparison("power", ">", 100))),
        )))

    def test_divergent_shapes_stay_in_python(self):
        # NOT resurrects UNKNOWN leaves; LIKE differs on case/coercion.
        assert not self.ok(NotOp(Comparison("make", "=", "opel")))
        assert not self.ok(LikePattern("make", "op%"))
        assert not self.ok(InList("make", ("opel",), negated=True))
        assert not self.ok(InList("make", ()))
        # Type-incompatible or unrepresentable literals.
        assert not self.ok(Comparison("make", "=", 7))
        assert not self.ok(Comparison("price", "=", "cheap"))
        assert not self.ok(Comparison("price", "=", None))
        assert not self.ok(Comparison("price", "<>", float("nan")))
        assert not self.ok(
            Comparison("price", "<", datetime.date(2002, 1, 1))
        )
        # Unknown or undeclared columns cannot be mirrored faithfully.
        assert not self.ok(Comparison("ghost", "=", 1))
        untyped = Relation("t", Relation.from_dicts(
            "t", [{"x": 1}]).schema, [{"x": 1}]).schema
        assert pushable_where(Comparison("x", "=", 1), untyped)
        # An empty BoolOp proves nothing.
        assert not self.ok(BoolOp("AND", ()))


class TestPushIntoStorage:
    def test_explain_shows_the_pushed_sql(self, sqlite_session):
        q = (sqlite_session.query("car")
             .where(Comparison("make", "=", "opel"))
             .prefer(pareto(LowestPreference("price"),
                            HighestPreference("power"))))
        text = q.explain()
        assert "StorageScan[car] backend=sqlite" in text
        assert 'WHERE ("make" = ?)' in text
        assert "params: ['opel']" in text
        assert "push_select_into_storage" in text
        # Fully absorbed: no HardSelect survives in the plan tree (the
        # rewrite trace below it legitimately mentions the node it ate).
        plan_tree = text.split("rewrites")[0]
        assert "HardSelect" not in plan_tree

    def test_pushed_plan_matches_the_unrewritten_plan(self, sqlite_session):
        q = (sqlite_session.query("car")
             .where(Comparison("make", "=", "opel"))
             .where(Comparison("price", "<", 41_000.0))
             .prefer(pareto(LowestPreference("price"),
                            HighestPreference("power"))))
        assert q.plan().execute().rows() == \
            q.optimize(False).plan().execute().rows()

    def test_memory_backend_never_plants_a_storage_scan(self):
        session = Session({"car": [dict(r) for r in ROWS]},
                          storage="memory")
        try:
            q = (session.query("car")
                 .where(Comparison("make", "=", "opel"))
                 .prefer(LowestPreference("price")))
            text = q.explain()
            assert "StorageScan" not in text
            assert "push_select_into_storage" not in text
        finally:
            session.close()

    def test_opaque_conjunct_stays_a_hard_select(self, sqlite_session):
        q = (sqlite_session.query("car")
             .where(LikePattern("make", "op%"))
             .where(Comparison("price", "<", 41_000.0))
             .prefer(LowestPreference("price")))
        text = q.explain()
        # The pushable comparison is absorbed; LIKE stays in Python.
        assert "StorageScan[car]" in text
        assert "HardSelect" in text and "LIKE" in text.upper()
        assert q.plan().execute().rows() == \
            q.optimize(False).plan().execute().rows()

    def test_lifted_rigid_conjunct_is_absorbed_too(self, sqlite_session):
        # BUT ONLY DISTANCE(price) <= 1500 is rigid: the PR-3 rule lifts
        # it into a hard prefilter, which the storage rule then absorbs —
        # the two rewrites compose into one pushed-down SQL scan.
        q = (sqlite_session.query("car")
             .prefer(pareto(AroundPreference("price", 40_000.0),
                            HighestPreference("power")))
             .but_only(("distance", "price", "<=", 1_500.0)))
        text = q.explain()
        assert "push_select_below_winnow" in text
        assert "push_select_into_storage" in text
        assert "StorageScan[car]" in text
        assert q.plan().execute().rows() == \
            q.optimize(False).plan().execute().rows()

    @pytest.mark.parametrize("storage", ["memory", "sqlite"])
    def test_but_only_at_a_float_boundary(self, storage):
        """``DISTANCE(price) <= 0.2`` under ``AROUND(price, 0.1)`` rejects
        0.30000000000000004 (its distance is 0.20000000000000004), though
        it lies inside ``[0.1 - 0.2, 0.1 + 0.2]``: the pushed interval is a
        prefilter, and the exact condition has the last word."""
        rows = [{"oid": 1, "price": 0.30000000000000004},
                {"oid": 2, "price": 0.5}]
        session = Session({"car": rows}, storage=(
            SQLiteBackend() if storage == "sqlite" else "memory"
        ))
        try:
            q = (session.query("car")
                 .prefer(AroundPreference("price", 0.1))
                 .but_only(("distance", "price", "<=", 0.2)))
            assert q.run().rows() == []
            assert q.optimize(False).run().rows() == []
            if storage == "sqlite":
                assert "push_select_into_storage" in q.explain()
        finally:
            session.close()

    def test_stale_plan_falls_back_to_the_pinned_snapshot(
        self, sqlite_session
    ):
        q = (sqlite_session.query("car")
             .where(Comparison("make", "=", "opel"))
             .prefer(LowestPreference("price")))
        stale = q.plan()
        baseline = q.optimize(False).plan()
        # The mirror moves on; the stale plan's version stamp no longer
        # matches, so execute() must answer from its pinned relation
        # snapshot — same rows as the stale unrewritten plan, and no
        # bleed-through from the newer catalog state.
        sqlite_session.insert_rows("car", [
            {"make": "opel", "price": 1.0, "power": 999},
        ])
        assert stale.execute().rows() == baseline.execute().rows()
        assert all(r["price"] != 1.0 for r in stale.execute().rows())
        # A fresh plan sees the new state, through the backend again.
        fresh = q.plan()
        assert any(r["price"] == 1.0 for r in fresh.execute().rows())

    def test_pushed_scan_answers_the_filtered_set(self, sqlite_session):
        q = (sqlite_session.query("car")
             .where(Comparison("make", "=", "bmw"))
             .prefer(LowestPreference("price")))
        text = q.explain()
        # One bmw row out of five, read through the mirror's prefilter.
        assert "StorageScan[car] backend=sqlite" in text
        assert q.plan().execute().rows() == [ROWS[1]]


def _many_cars(n: int = 200) -> list[dict]:
    """Enough rows for the engine's NumPy leg (ROWS has five)."""
    makes = ("opel", "bmw", "vw", "audi")
    return [
        {"make": makes[i % 4], "price": 10_000.0 + 997.0 * (i * 37 % n),
         "power": 60 + (i * 53 % 300)}
        for i in range(n)
    ]


class TestMaskUnderKernel:
    """A code-kernel winnow masks its selection over the snapshot instead
    of pushing it into storage — where NumPy masks it."""

    SKYLINE = pareto(LowestPreference("price"), HighestPreference("power"))

    @pytest.fixture
    def big_session(self):
        session = Session({"car": _many_cars()}, storage=SQLiteBackend())
        yield session
        session.close()

    def _plan_tree(self, query) -> str:
        return query.explain().split("rewrites")[0]

    @pytest.mark.skipif(not numpy_available(), reason="masks need NumPy")
    def test_kernel_winnow_reads_the_snapshot(self, big_session):
        q = (big_session.query("car")
             .where(Comparison("make", "=", "opel"))
             .where(Comparison("price", "<", 150_000.0))
             .prefer(self.SKYLINE))
        text = q.explain()
        assert "mask_select_under_kernel" in text
        assert "push_select_into_storage" not in text
        tree = self._plan_tree(q)
        assert "StorageScan" not in tree and "Scan[car]" in tree
        assert q.run().rows() == q.optimize(False).run().rows()

    @pytest.mark.skipif(not numpy_available(), reason="masks need NumPy")
    def test_but_only_prefilter_is_masked_and_rechecked(self, big_session):
        q = (big_session.query("car")
             .prefer(pareto(AroundPreference("price", 60_000.0),
                            HighestPreference("power")))
             .but_only(("distance", "price", "<=", 20_000.0)))
        text = q.explain()
        assert "mask_select_under_kernel" in text
        assert "BUT ONLY" in self._plan_tree(q)
        assert q.run().rows() == q.optimize(False).run().rows()

    def test_without_numpy_the_prefilter_stays(
        self, big_session, monkeypatch
    ):
        from repro.engine import backend as engine_backend

        monkeypatch.setattr(engine_backend, "_numpy", None)
        q = (big_session.query("car")
             .where(Comparison("make", "=", "opel"))
             .prefer(self.SKYLINE))
        text = q.explain()
        assert "push_select_into_storage" in text
        assert "mask_select_under_kernel" not in text
        assert q.run().rows() == q.optimize(False).run().rows()

    def test_unmaskable_column_keeps_the_prefilter(self):
        # A NULL makes the column inexact for NumPy: no mask, so SQL
        # keeps the selection.
        rows = _many_cars()
        rows[3]["make"] = None
        session = Session({"car": rows}, storage=SQLiteBackend())
        try:
            q = (session.query("car")
                 .where(Comparison("make", "=", "opel"))
                 .prefer(self.SKYLINE))
            assert "push_select_into_storage" in q.explain()
            assert q.run().rows() == q.optimize(False).run().rows()
        finally:
            session.close()

    def test_a_winnow_pruned_to_an_argmax_is_still_pushed(self, big_session):
        # The mask rule runs last: prune_constant_pref first turns the
        # skyline into an argmax, whose selection the mirror then takes.
        from repro.core.base_nonnumerical import PosPreference

        q = (big_session.query("car")
             .where(Comparison("make", "=", "opel"))
             .prefer(pareto(PosPreference("make", {"opel"}),
                            LowestPreference("price"))))
        rules = q.plan().rewrite_rules()
        assert "prune_constant_pref" in rules
        assert "push_select_into_storage" in rules
        assert "mask_select_under_kernel" not in rules
        assert q.run().rows() == q.optimize(False).run().rows()

    def test_argmax_winnow_is_still_pushed(self, big_session):
        q = (big_session.query("car")
             .where(Comparison("make", "=", "opel"))
             .prefer(LowestPreference("price")))
        text = q.explain()
        assert "push_select_into_storage" in text
        assert "mask_select_under_kernel" not in text


class TestFingerprints:
    def test_backend_identity_separates_plan_caches(self):
        memory = Session({"car": [dict(r) for r in ROWS]},
                         storage="memory")
        sqlite = Session({"car": [dict(r) for r in ROWS]},
                         storage=SQLiteBackend())
        try:
            build = lambda s: (s.query("car")  # noqa: E731
                               .where(Comparison("make", "=", "opel"))
                               .prefer(LowestPreference("price")))
            assert build(memory).fingerprint() != build(sqlite).fingerprint()
            # Same backend, same query: stable.
            assert build(sqlite).fingerprint() == build(sqlite).fingerprint()
        finally:
            memory.close()
            sqlite.close()
