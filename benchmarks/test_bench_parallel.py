"""PAR-CMP: partitioned winnow vs. single-thread columnar vs. row BNL.

Expected shape: on 200k-row skylines, partition-and-merge execution
(:mod:`repro.engine.parallel`) beats the single-thread columnar kernel by
>= 2x once at least 4 cores are visible — the dominance phase splits
across workers and the cross-filter merge touches only the tiny local
skylines.  Below 4 cores the speedup criterion is **auto-skipped** (a
1-core container cannot honestly demonstrate parallelism), but parity is
asserted unconditionally: partitioned results must be bit-identical to
serial execution on every machine.

Core counts are reported honestly: every benchmark prints the visible
core count (``repro.engine.parallel.cpu_count()``) next to its timings.

Row-engine BNL joins the comparison on the correlated workload, where its
window stays small enough to finish in benchmark time at 200k rows; the
independent workload compares the columnar engine against itself (serial
vs. partitioned), which is the honest baseline for the parallel claim.
"""

from __future__ import annotations

import time

import pytest

from repro.core.base_numerical import HighestPreference, LowestPreference
from repro.core.constructors import pareto, prioritized
from repro.datasets.skyline_data import skyline_relation
from repro.engine.backend import numpy_available
from repro.engine.columnar import columnar_winnow
from repro.engine.parallel import cpu_count
from repro.query.algorithms import block_nested_loop

#: The acceptance-criterion dataset: 200k rows, 3 dimensions.
N_ROWS = 200_000
DIMS = 3

#: The acceptance criterion demands >= 2x at >= 4 cores.
SPEEDUP_THRESHOLD = 2.0
MIN_CORES = 4

CORES = cpu_count()

PARETO_PREF = pareto(
    HighestPreference("d0"), LowestPreference("d1"), HighestPreference("d2")
)
#: The "prioritized workload": a Pareto term whose first arm is itself a
#: prioritization of disjoint chains — the decompose_pareto shape, which
#: evaluates as one composite lexicographic axis per arm.
PRIORITIZED_PREF = pareto(
    prioritized(LowestPreference("d0"), HighestPreference("d1")),
    HighestPreference("d2"),
)


def best_of(fn, rounds: int = 3) -> float:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples)


@pytest.fixture(scope="module")
def independent_200k():
    relation = skyline_relation("independent", N_ROWS, DIMS, seed=29)
    relation.columns()  # materialize outside every timed region
    return relation


@pytest.fixture(scope="module")
def correlated_200k():
    relation = skyline_relation("correlated", N_ROWS, DIMS, seed=29)
    relation.columns()
    return relation


@pytest.mark.skipif(not numpy_available(), reason="parallel speedups need numpy")
@pytest.mark.parametrize(
    "label, pref",
    [("pareto", PARETO_PREF), ("prioritized-arm", PRIORITIZED_PREF)],
)
def test_parallel_vs_serial_columnar_200k(independent_200k, label, pref):
    """Parity always; the >= 2x speedup criterion at >= 4 cores."""
    serial = columnar_winnow(pref, independent_200k)
    parallel = columnar_winnow(pref, independent_200k, partitions=CORES)
    assert parallel.rows() == serial.rows()  # bit-identical, every machine

    serial_s = best_of(lambda: columnar_winnow(pref, independent_200k))
    parallel_s = best_of(
        lambda: columnar_winnow(pref, independent_200k, partitions=CORES)
    )
    speedup = serial_s / parallel_s
    print(
        f"\n[{label}] cores={CORES} rows={N_ROWS}: "
        f"serial columnar {serial_s * 1e3:.1f}ms, "
        f"parallel[{CORES}] {parallel_s * 1e3:.1f}ms, "
        f"speedup {speedup:.2f}x"
    )
    if CORES < MIN_CORES:
        pytest.skip(
            f"speedup criterion needs >= {MIN_CORES} cores, "
            f"have {CORES} (parity asserted above)"
        )
    assert speedup >= SPEEDUP_THRESHOLD, (
        f"parallel winnow {speedup:.2f}x over single-thread columnar on "
        f"{CORES} cores; the acceptance criterion demands "
        f">= {SPEEDUP_THRESHOLD}x"
    )


@pytest.mark.skipif(not numpy_available(), reason="columnar timing needs numpy")
def test_three_way_comparison_correlated_200k(correlated_200k):
    """Row BNL vs. serial columnar vs. partitioned columnar, one dataset.

    Correlated data keeps the BNL window small, so the row engine finishes
    200k rows in benchmark time; all three evaluations must agree exactly,
    and the columnar engines must not lose to row BNL.
    """
    rows = correlated_200k.rows()
    serial = columnar_winnow(PARETO_PREF, correlated_200k)
    parallel = columnar_winnow(
        PARETO_PREF, correlated_200k, partitions=CORES
    )
    bnl_result = block_nested_loop(PARETO_PREF, rows)
    canon = lambda rs: sorted(  # noqa: E731
        tuple(sorted(r.items())) for r in rs
    )
    assert canon(parallel.rows()) == canon(serial.rows()) == canon(bnl_result)

    bnl_s = best_of(lambda: block_nested_loop(PARETO_PREF, rows), rounds=1)
    serial_s = best_of(lambda: columnar_winnow(PARETO_PREF, correlated_200k))
    parallel_s = best_of(
        lambda: columnar_winnow(PARETO_PREF, correlated_200k, partitions=CORES)
    )
    print(
        f"\n[three-way] cores={CORES} rows={N_ROWS}: "
        f"row BNL {bnl_s * 1e3:.1f}ms, "
        f"serial columnar {serial_s * 1e3:.1f}ms, "
        f"parallel[{CORES}] {parallel_s * 1e3:.1f}ms"
    )
    assert serial_s < bnl_s, "columnar must beat row BNL at 200k rows"


def test_parallel_parity_without_numpy_slice(independent_200k, monkeypatch):
    """The fallback kernels agree too — on a slice the pure-Python sweep
    can finish quickly (full 200k pure-Python runs live in the tier-1
    parity suite at smaller sizes)."""
    from repro.engine import backend as engine_backend

    monkeypatch.setattr(engine_backend, "_numpy", None)
    rows = independent_200k.rows()[:20_000]
    serial = columnar_winnow(PARETO_PREF, rows)
    assert columnar_winnow(PARETO_PREF, rows, partitions=4) == serial
