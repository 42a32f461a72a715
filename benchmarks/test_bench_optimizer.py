"""Ablation: optimizer strategy choices (DESIGN.md section 5).

* rewriting on vs. off (degenerate terms),
* cascade vs. generic evaluation for chain-headed prioritized terms,
* SFS presorting vs. plain BNL,
* sort-based vs. generic evaluation for score terms.
"""

import pytest

from repro.core.base_nonnumerical import PosPreference
from repro.core.base_numerical import AroundPreference, LowestPreference
from repro.core.constructors import dual, pareto, prioritized
from repro.query.algorithms import block_nested_loop, sort_filter_skyline
from repro.query.bmo import winnow
from repro.query.optimizer import execute


@pytest.fixture(scope="module")
def cars(request):
    from repro.datasets.cars import generate_cars

    return generate_cars(1500, seed=11)


DEGENERATE = prioritized(
    pareto(PosPreference("color", {"red"}), dual(PosPreference("color", {"red"}))),
    AroundPreference("price", 25000),
    AroundPreference("price", 25000),
)


def test_rewriter_on(benchmark, cars):
    out = benchmark.pedantic(
        lambda: execute(DEGENERATE, cars, use_rewriter=True),
        rounds=3,
        iterations=1,
    )
    assert len(out) > 0


def test_rewriter_off(benchmark, cars):
    out = benchmark.pedantic(
        lambda: execute(DEGENERATE, cars, use_rewriter=False),
        rounds=3,
        iterations=1,
    )
    assert len(out) > 0


CHAIN_HEADED = prioritized(
    LowestPreference("price"), AroundPreference("mileage", 30000)
)


def test_cascade_on(benchmark, cars):
    out = benchmark.pedantic(
        lambda: execute(CHAIN_HEADED, cars), rounds=3, iterations=1
    )
    assert len(out) > 0


def test_cascade_off_generic_bnl(benchmark, cars):
    out = benchmark.pedantic(
        lambda: winnow(CHAIN_HEADED, cars, algorithm="bnl"), rounds=3, iterations=1
    )
    assert len(out) > 0


MIXED_PARETO = pareto(
    PosPreference("color", {"red", "black"}),
    AroundPreference("price", 25000),
    LowestPreference("mileage"),
)


def test_sfs_presort(benchmark, cars):
    rows = cars.rows()
    out = benchmark.pedantic(
        lambda: sort_filter_skyline(MIXED_PARETO, rows), rounds=3, iterations=1
    )
    assert out


def test_bnl_no_presort(benchmark, cars):
    rows = cars.rows()
    out = benchmark.pedantic(
        lambda: block_nested_loop(MIXED_PARETO, rows), rounds=3, iterations=1
    )
    assert out


def test_sort_based_for_score_term(benchmark, cars):
    pref = AroundPreference("price", 25000)
    out = benchmark.pedantic(
        lambda: winnow(pref, cars, algorithm="sort"), rounds=3, iterations=1
    )
    assert len(out) >= 1
