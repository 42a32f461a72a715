"""SEMANTIC-ELIM: constraint-driven winnow elimination vs. the full winnow.

The workload is the PR-6 acceptance criterion: 50k listings whose
``rating`` column is continuous, so table statistics derive
``key(rating)``.  The query is a prioritized chain headed by
``HIGHEST(rating)``:

    PREFERRING HIGHEST(rating) PRIOR TO
               (price AROUND 40000 AND HIGHEST(power))

The ``winnow_to_sort`` rule proves the chain head alone picks a single
best tuple (key projections are pairwise distinct, so the head's
best-matches set is a singleton and later stages never apply) and
rebuilds the winnow over the head alone, which the planner evaluates as
a one-pass column argmax (``PreferenceSelect ... algorithm=sort``).  The canonical plan — the same query under
``optimize(False)`` — never consults the constraint registry, so it runs
the full SFS winnow; the acceptance criterion demands the semantic plan
beats it by >= 10x with identical rows.

Also covered: ``remove_redundant_winnow`` collapsing a key-bound winnow
to a pure identity when WHERE pins the key to one tuple.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.base_numerical import AroundPreference, HighestPreference
from repro.core.constructors import pareto, prioritized
from repro.session import Session

#: The acceptance-criterion dataset size.
N_ROWS = 50_000


def _listing_rows(n: int, seed: int = 23) -> list[dict]:
    rng = random.Random(seed)
    return [
        {
            # i + jitter < 0.5 keeps ratings pairwise distinct: the
            # statistics profile then derives key(rating).
            "rating": i + rng.random() * 0.5,
            "price": rng.uniform(0, 100_000),
            "power": rng.uniform(50, 400),
        }
        for i in range(n)
    ]


def _best_seconds(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def session():
    return Session({"listing": _listing_rows(N_ROWS)})


@pytest.fixture(scope="module")
def chain_query(session):
    return session.query("listing").prefer(prioritized(
        HighestPreference("rating"),
        pareto(AroundPreference("price", 40_000), HighestPreference("power")),
    ))


def test_semantic_elim_10x_over_unoptimized_50k(chain_query):
    """The PR-6 acceptance criterion: >= 10x on the key-headed chain."""
    q = chain_query
    text = q.explain()
    assert "winnow_to_sort" in text
    assert "key(rating)" in text  # constraint provenance is named

    optimized = q.plan()
    canonical = q.optimize(False).plan()

    assert optimized.execute().rows() == canonical.execute().rows()

    canonical_seconds = _best_seconds(canonical.execute)
    optimized_seconds = _best_seconds(optimized.execute)
    speedup = canonical_seconds / optimized_seconds
    assert speedup >= 10.0, (
        f"semantic {optimized_seconds:.4f}s vs canonical "
        f"{canonical_seconds:.4f}s — only {speedup:.1f}x"
    )


@pytest.mark.parametrize("mode", ["canonical", "semantic"])
def test_semantic_plans_50k(benchmark, chain_query, mode):
    """The same pair as individual benchmark entries (for BENCH reports)."""
    q = chain_query if mode == "semantic" else chain_query.optimize(False)
    plan = q.plan()
    reference = chain_query.optimize(False).plan().execute().rows()
    result = benchmark.pedantic(plan.execute, rounds=3, iterations=1)
    assert result.rows() == reference
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["result_size"] = len(reference)


def test_redundant_winnow_removed_under_key_equality(session):
    """WHERE pinning the key makes the winnow an identity: the
    ``remove_redundant_winnow`` rule drops the operator entirely."""
    target = session.catalog.get("listing").rows()[123]["rating"]
    q = (
        session.query("listing")
        .where(rating=target)
        .prefer(pareto(
            AroundPreference("price", 40_000), HighestPreference("power"),
        ))
    )
    text = q.explain()
    assert "remove_redundant_winnow" in text
    assert "key(rating)" in text
    rows = q.run().rows()
    assert rows == q.optimize(False).run().rows()
    assert len(rows) == 1
