"""COL-CMP: the columnar winnow against the row engine on skyline data.

Expected shape: on large Pareto-of-chains inputs the columnar backend
(rank-encoded vectors + block-vectorized dominance, NumPy) beats row-level
``block_nested_loop`` by well over the 5x the PR-2 acceptance criterion
demands — the row engine pays one ``pref._lt`` call (recursive dispatch +
dict projections) per dominance test, the columnar engine pays a handful of
broadcasted integer comparisons per *block*.  The pure-Python fallback
kernels stay within the same order of magnitude as row BNL.

Every benchmark asserts result parity inline, so this file doubles as a
50k-row correctness run.
"""

from __future__ import annotations

import time

import pytest

from repro.core.base_numerical import HighestPreference, LowestPreference
from repro.core.constructors import pareto
from repro.datasets.skyline_data import skyline_relation
from repro.engine.backend import numpy_available
from repro.engine.columnar import columnar_winnow
from repro.query.algorithms import block_nested_loop

#: The acceptance-criterion dataset: 50k rows, 3 dimensions.
N_ROWS = 50_000
DIMS = 3


def _pref(dims: int):
    children = [
        HighestPreference(f"d{i}") if i % 2 == 0 else LowestPreference(f"d{i}")
        for i in range(dims)
    ]
    return pareto(*children)


def _row_set(rows):
    return {tuple(sorted(r.items())) for r in rows}


@pytest.fixture(scope="module")
def skyline_50k():
    out = {}
    for kind in ("independent", "correlated", "anticorrelated"):
        relation = skyline_relation(kind, N_ROWS, DIMS, seed=13)
        relation.columns()  # materialize outside the timed paths
        out[kind] = relation
    return out


@pytest.mark.skipif(not numpy_available(), reason="speedup claim needs NumPy")
@pytest.mark.parametrize("kind", ["independent", "correlated"])
def test_columnar_5x_over_bnl_50k(skyline_50k, kind):
    """The PR-2 acceptance criterion: >= 5x over BNL on a 50k-row skyline."""
    relation = skyline_50k[kind]
    pref = _pref(DIMS)
    rows = relation.rows()

    start = time.perf_counter()
    expected = block_nested_loop(pref, rows)
    bnl_seconds = time.perf_counter() - start

    start = time.perf_counter()
    result = columnar_winnow(pref, relation)
    columnar_seconds = time.perf_counter() - start

    assert _row_set(result.rows()) == _row_set(expected)
    speedup = bnl_seconds / columnar_seconds
    assert speedup >= 5.0, (
        f"{kind}: columnar {columnar_seconds:.3f}s vs BNL {bnl_seconds:.3f}s "
        f"— only {speedup:.1f}x"
    )


@pytest.mark.parametrize("kind", ["independent", "correlated", "anticorrelated"])
def test_columnar_winnow_50k(benchmark, skyline_50k, kind):
    relation = skyline_50k[kind]
    pref = _pref(DIMS)
    reference = _row_set(block_nested_loop(pref, relation.rows()))

    result = benchmark.pedantic(
        lambda: columnar_winnow(pref, relation),
        rounds=3,
        iterations=1,
    )
    assert _row_set(result.rows()) == reference
    benchmark.extra_info["skyline_size"] = len(reference)
    benchmark.extra_info["numpy"] = numpy_available()


@pytest.mark.parametrize("kind", ["independent", "anticorrelated"])
def test_python_fallback_5k(benchmark, monkeypatch, kind):
    """The NumPy-less kernels on 5k rows: correct, and not pathological."""
    from repro.engine import backend as engine_backend

    relation = skyline_relation(kind, 5_000, DIMS, seed=13)
    relation.columns()
    pref = _pref(DIMS)
    reference = _row_set(block_nested_loop(pref, relation.rows()))

    monkeypatch.setattr(engine_backend, "_numpy", None)
    result = benchmark.pedantic(
        lambda: columnar_winnow(pref, relation),
        rounds=3,
        iterations=1,
    )
    assert _row_set(result.rows()) == reference


def test_planner_auto_picks_columnar_50k(benchmark, skyline_50k):
    """End-to-end: Session auto-chooses the columnar backend (on whichever
    leg this platform has)."""
    from repro.session import Session

    session = Session({"sky": skyline_50k["independent"]})
    query = session.query("sky").prefer(_pref(DIMS))
    assert "ColumnarPreferenceSelect" in query.explain()

    result = benchmark.pedantic(query.run, rounds=3, iterations=1)
    assert _row_set(result.rows()) == _row_set(
        block_nested_loop(_pref(DIMS), skyline_50k["independent"].rows())
    )
