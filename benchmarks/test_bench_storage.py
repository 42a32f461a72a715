"""DURABLE-PUSH: the PR-8 acceptance workloads as correctness runs.

``tools/bench_report.py`` owns the timed criteria (``durable_pushdown``
>= 2x, ``snapshot_restore`` under budget); this file pins the two
experiments' *correctness* at benchmark scale so a regression in either
shows up as a test failure, not a silently easier benchmark:

* the SQL-prefiltered plan answers bit-exactly like the unrewritten
  full scan, on the same 200-category workload the criterion times, and
  the rewrite is actually planted (no pushdown, no criterion); the
  skyline over the same selection masks it in memory instead, exactly;
* a checkpointed catalog restores exactly — rows, versions, and the
  mirror — in a fresh session over the same directory.
"""

from __future__ import annotations

import random

import pytest

from repro.core.base_numerical import HighestPreference, LowestPreference
from repro.core.constructors import pareto
from repro.datasets.cars import generate_cars
from repro.engine.backend import numpy_available
from repro.psql.ast import Comparison
from repro.session import Session

#: Benchmark-job scale: big enough for a real candidate-set gap,
#: small enough to keep the correctness run fast.
N_ROWS = 5_000


def _category_rows(n: int, seed: int = 31) -> list[dict]:
    rng = random.Random(seed)
    return [
        {
            "category": f"c{rng.randrange(200):03d}",
            "price": rng.uniform(0, 100_000),
            "power": rng.uniform(50, 400),
        }
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def sqlite_session():
    session = Session({"car": _category_rows(N_ROWS)}, storage="sqlite")
    yield session
    session.close()


def test_pushed_plan_is_planted_and_exact(sqlite_session):
    query = (
        sqlite_session.query("car")
        .where(Comparison("category", "=", "c007"))
        .prefer(LowestPreference("price"))
    )
    text = query.explain()
    assert "push_select_into_storage" in text
    assert "StorageScan[car] backend=sqlite" in text
    pushed = query.plan().execute().rows()
    fullscan = query.optimize(False).plan().execute().rows()
    assert pushed == fullscan
    assert pushed  # the filtered category is non-empty by construction
    assert all(r["category"] == "c007" for r in pushed)


def test_skyline_selection_is_masked_and_exact(sqlite_session):
    query = (
        sqlite_session.query("car")
        .where(Comparison("category", "=", "c007"))
        .prefer(pareto(LowestPreference("price"),
                       HighestPreference("power")))
    )
    rule = ("mask_select_under_kernel" if numpy_available()
            else "push_select_into_storage")
    assert rule in query.explain()
    got = query.plan().execute().rows()
    assert got == query.optimize(False).plan().execute().rows()
    assert got and all(r["category"] == "c007" for r in got)


def test_snapshot_restore_is_exact_at_scale(tmp_path):
    rows = generate_cars(N_ROWS, seed=11).rows()
    writer = Session(storage="sqlite", data_dir=str(tmp_path))
    writer.register("car", [dict(r) for r in rows])
    info = writer.checkpoint()
    assert info["seq"] >= 1
    version = writer.catalog.version("car")
    writer.close()

    restored = Session(storage="sqlite", data_dir=str(tmp_path))
    try:
        assert restored.catalog.get("car").rows() == rows
        assert restored.catalog.version("car") == version
        # The mirror is live again: a pushed-down query works post-restore.
        query = (
            restored.query("car")
            .where(Comparison("price", "<", 10_000.0))
            .prefer(LowestPreference("price"))
        )
        assert "push_select_into_storage" in query.explain()
        got = query.plan().execute().rows()
        assert got == query.optimize(False).plan().execute().rows()
    finally:
        restored.close()
