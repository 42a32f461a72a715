"""ALG-CMP: evaluation algorithms across the skyline distributions.

Expected shape ([BKS01]/[TEO01], and the paper's efficiency discussion):
BNL / SFS and the code kernels clearly beat the naive evaluator;
anti-correlated data is the hard case (largest skylines, smallest
speedups); correlated data is nearly free.
"""

import pytest

from repro.core.base_numerical import HighestPreference
from repro.core.constructors import pareto
from repro.engine.columnar import columnar_winnow
from repro.query.algorithms import (
    block_nested_loop,
    naive_nested_loop,
    sort_filter_skyline,
)

ENGINES = {
    "naive": naive_nested_loop,
    "bnl": block_nested_loop,
    "sfs": sort_filter_skyline,
    "vsfs": columnar_winnow,
}


def _pref(dims: int):
    return pareto(*(HighestPreference(f"d{i}") for i in range(dims)))


@pytest.mark.parametrize("kind", ["independent", "correlated", "anticorrelated"])
@pytest.mark.parametrize("engine", ["naive", "bnl", "sfs", "vsfs"])
def test_skyline_3d(benchmark, skyline_sets, kind, engine):
    relation = skyline_sets[(kind, 1000, 3)]
    rows = relation.rows()
    pref = _pref(3)
    reference = {tuple(sorted(r.items())) for r in naive_nested_loop(pref, rows)}

    result = benchmark.pedantic(
        lambda: ENGINES[engine](pref, rows), rounds=3, iterations=1
    )
    assert {tuple(sorted(r.items())) for r in result} == reference
    benchmark.extra_info["skyline_size"] = len(reference)


@pytest.mark.parametrize("kind", ["independent", "anticorrelated"])
def test_two_d_sweep_vs_bnl(benchmark, skyline_sets, kind):
    """Two code axes: the engine's O(n log n) sweep."""
    relation = skyline_sets[(kind, 1000, 2)]
    rows = relation.rows()
    pref = _pref(2)
    reference = {tuple(sorted(r.items())) for r in block_nested_loop(pref, rows)}

    result = benchmark.pedantic(
        lambda: columnar_winnow(pref, rows), rounds=3, iterations=1
    )
    assert {tuple(sorted(r.items())) for r in result} == reference


@pytest.mark.parametrize("dims", [2, 3, 5])
def test_dimensionality_effect_sfs(benchmark, skyline_sets, dims):
    relation = skyline_sets[("independent", 1000, dims)]
    rows = relation.rows()
    pref = _pref(dims)

    result = benchmark.pedantic(
        lambda: sort_filter_skyline(pref, rows), rounds=3, iterations=1
    )
    benchmark.extra_info["skyline_size"] = len(
        {tuple(sorted(r.items())) for r in result}
    )
