"""REWRITE-PUSH: the selection-pushdown rule against the unrewritten plan.

The workload is the classic supervised-preference query on 50k rows:

    PREFERRING price AROUND 40000 AND HIGHEST(power)
    BUT ONLY DISTANCE(price) <= 2000

The quality condition is rigid (dominance only ever shrinks the AROUND
distance), so the rewrite engine converts it into a hard prefilter *below*
the winnow (``push_select_below_winnow``).  The unrewritten plan — the
exact same query with ``optimize(False)`` — must winnow all 50k rows and
only then discard the rows that relaxed too far; the rewritten plan
winnows the ~4% of rows that can survive at all.  The PR-3 acceptance
criterion demands >= 2x; the measured gap is typically far larger.

Every benchmark asserts result parity against the unrewritten plan, so
this file doubles as a 50k-row correctness run for the rewrite engine.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import pareto, prioritized
from repro.session import Session

#: The acceptance-criterion dataset size.
N_ROWS = 50_000
PRICE_TARGET = 40_000
DISTANCE_BOUND = 2_000


def _car_rows(n: int, seed: int = 7) -> list[dict]:
    rng = random.Random(seed)
    return [
        {
            "price": rng.uniform(0, 100_000),
            "power": rng.uniform(50, 400),
            # Rounded: duplicate mileages keep the statistics from proving
            # key(mileage), so split_prio (not winnow_to_sort) fires.
            "mileage": round(rng.uniform(0, 200_000), -3),
        }
        for _ in range(n)
    ]


def _row_set(rows):
    return {tuple(sorted(r.items())) for r in rows}


def _best_seconds(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def session():
    return Session({"car": _car_rows(N_ROWS)})


@pytest.fixture(scope="module")
def supervised_query(session):
    return (
        session.query("car")
        .prefer(pareto(
            AroundPreference("price", PRICE_TARGET),
            HighestPreference("power"),
        ))
        .but_only(("distance", "price", "<=", DISTANCE_BOUND))
    )


def test_pushdown_2x_over_unrewritten_50k(supervised_query):
    """The PR-3 acceptance criterion: >= 2x on the filtered 50k workload."""
    q = supervised_query
    assert "push_select_below_winnow" in q.explain()

    plan_rewritten = q.plan()
    plan_canonical = q.optimize(False).plan()

    canonical_seconds = _best_seconds(plan_canonical.execute)
    rewritten_seconds = _best_seconds(plan_rewritten.execute)

    assert _row_set(plan_rewritten.execute().rows()) == _row_set(
        plan_canonical.execute().rows()
    )
    speedup = canonical_seconds / rewritten_seconds
    assert speedup >= 2.0, (
        f"rewritten {rewritten_seconds:.3f}s vs canonical "
        f"{canonical_seconds:.3f}s — only {speedup:.1f}x"
    )


@pytest.mark.parametrize("mode", ["canonical", "rewritten"])
def test_pushdown_plans_50k(benchmark, supervised_query, mode):
    """The same pair as individual benchmark entries (for BENCH reports)."""
    q = supervised_query if mode == "rewritten" else supervised_query.optimize(False)
    plan = q.plan()
    reference = _row_set(supervised_query.optimize(False).plan().execute().rows())
    result = benchmark.pedantic(plan.execute, rounds=3, iterations=1)
    assert _row_set(result.rows()) == reference
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["result_size"] = len(reference)


def test_split_prio_cascade_beats_monolithic_sfs(session):
    """The generalized Proposition-11 split: cascade vs one sfs winnow.

    Not an acceptance criterion, but the cascade rule must never be a
    pessimization on its home workload (chain head over a compound tail).
    """
    pref = prioritized(
        LowestPreference("mileage"),
        pareto(AroundPreference("price", PRICE_TARGET), HighestPreference("power")),
    )
    q = session.query("car").prefer(pref)
    assert "split_prio" in q.explain()
    cascade_plan = q.plan()
    monolithic_plan = q.using("sfs").plan()

    cascade_seconds = _best_seconds(cascade_plan.execute)
    monolithic_seconds = _best_seconds(monolithic_plan.execute)

    assert _row_set(cascade_plan.execute().rows()) == _row_set(
        monolithic_plan.execute().rows()
    )
    # Generous bound: the cascade's first stage is a linear argmin pass.
    assert cascade_seconds <= monolithic_seconds * 1.5, (
        f"cascade {cascade_seconds:.3f}s vs sfs {monolithic_seconds:.3f}s"
    )
