"""REV-CMP: preference revision against full re-planning on 50k rows.

Expected shape: a proved order refinement (prioritized append —
Definition 9) restarts from the current BMO set, so a revision examines
O(result) rows while the honest alternative re-plans and re-scans the
full 50k-row relation.  The PR-7 acceptance criterion demands >= 10x;
view restarts are typically orders of magnitude beyond it.

Every benchmark asserts result parity inline — including the
incomparable fallback, which must stay *exact* (a re-winnow of the bag,
honestly counted) rather than fast — so this file doubles as a revision
correctness run at scale.  The state under test is the one maintainer,
:class:`~repro.query.incremental.IncrementalBMO`, seeded from the
relation it is a winnow of.
"""

from __future__ import annotations

import time

import pytest

from repro.core.base_numerical import HighestPreference, LowestPreference
from repro.core.constructors import prioritized
from repro.datasets.cars import generate_cars
from repro.query import optimizer
from repro.query.incremental import IncrementalBMO
from repro.server import PreferenceService

#: The acceptance-criterion catalog size.
N_ROWS = 50_000

BASE = LowestPreference("price")
REFINED = prioritized(BASE, HighestPreference("horsepower"))
SWAPPED = HighestPreference("mileage")  # incomparable with BASE


def _canon(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


def _median_ns(fn, rounds=5):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - start)
    samples.sort()
    return samples[len(samples) // 2]


@pytest.fixture(scope="module")
def cars_50k():
    return generate_cars(N_ROWS, seed=11)


def _seeded(pref, relation):
    state = IncrementalBMO(pref)
    state.load(relation)  # held by reference: no per-state copy
    return state


def test_refinement_revision_10x_over_replanning(cars_50k):
    """The PR-7 acceptance criterion: revise-from-view vs full re-plan."""
    rounds = 5

    # Parity first: the revised state is exactly the fresh plan's answer.
    fresh = optimizer.plan(REFINED, cars_50k).execute()
    probe = _seeded(BASE, cars_50k)
    old_size = len(probe)
    _, revision, strategy = probe.revise(REFINED)
    assert revision.shape == "prio-append"
    assert strategy == "view"
    assert probe.stats["examined"] == old_size < N_ROWS
    assert _canon(probe.result()) == _canon(fresh.rows())

    # One pre-seeded state per timing round: each revise is a fresh
    # view-restart over the same BMO set, never a warmed-up no-op.
    states = iter([_seeded(BASE, cars_50k) for _ in range(rounds)])
    revised_ns = _median_ns(lambda: next(states).revise(REFINED), rounds)
    replanned_ns = _median_ns(
        lambda: optimizer.plan(REFINED, cars_50k).execute(), rounds
    )

    ratio = replanned_ns / revised_ns
    assert ratio >= 10.0, (
        f"revision speedup criterion: {ratio:.1f}x < 10x "
        f"(revise {revised_ns}ns vs re-plan {replanned_ns}ns)"
    )


def test_incomparable_fallback_is_exact_not_fast(cars_50k):
    """The fallback contract at scale: an incomparable swap re-winnows
    the whole bag — same answer as a fresh plan, and the stats say so."""
    state = _seeded(BASE, cars_50k)
    _, revision, strategy = state.revise(SWAPPED)
    assert revision.kind == "incomparable"
    assert strategy == "full"
    assert state.stats["examined"] == N_ROWS
    fresh = optimizer.plan(SWAPPED, cars_50k).execute()
    assert _canon(state.result()) == _canon(fresh.rows())


def test_contraction_restarts_from_frontier(cars_50k):
    """Retracting the appended stage resurrects dominated rows.  The
    frontier they come from is the bag the maintainer holds — exact at
    any size, without being handed the relation again."""
    state = _seeded(REFINED, cars_50k)
    _, revision, strategy = state.revise(BASE)
    assert revision.kind == "contraction"
    assert revision.restart == "frontier" and strategy == "full"
    fresh = optimizer.plan(BASE, cars_50k).execute()
    assert _canon(state.result()) == _canon(fresh.rows())


def _served_revision_ns(cars, base_spec, refined_spec):
    """One served revision of a freshly materialized view, timed; the
    revised view must then answer with exactly the fresh plan's rows."""
    service = PreferenceService({"car": cars.rows()})
    try:
        service.materialize("car", base_spec)
        # Constraint mining is cached per catalog version; warm it so the
        # timing below is the revision itself, not one-off statistics.
        service._constraints_for("car", BASE)
        elapsed = time.perf_counter_ns()
        answer = service.revise("car", base_spec, refined_spec)
        elapsed = time.perf_counter_ns() - elapsed
        assert answer.summary["strategy"] == "view"
        served = service.query(
            spec={"relation": "car", "prefer": refined_spec}
        )
        assert served.source == "view"
        fresh = optimizer.plan(REFINED, cars).execute()
        assert _canon(served.rows) == _canon(fresh.rows())
        return elapsed
    finally:
        service.close()


def test_served_view_revision_beats_replanning(cars_50k):
    """Service-level: revising a materialized continuous view in place
    beats re-planning the refined query, and the revised view answers
    subsequent queries with exactly the fresh plan's rows.  Both sides
    are medians of 5, each served revision on a fresh view."""
    rounds = 5
    base_spec = {"type": "lowest", "attribute": "price"}
    refined_spec = {
        "type": "prioritized",
        "children": [
            base_spec,
            {"type": "highest", "attribute": "horsepower"},
        ],
    }
    served = sorted(
        _served_revision_ns(cars_50k, base_spec, refined_spec)
        for _ in range(rounds)
    )[rounds // 2]
    replanned_ns = _median_ns(
        lambda: optimizer.plan(REFINED, cars_50k).execute(), rounds
    )
    assert replanned_ns / served >= 10.0, (
        f"served revision {served}ns vs re-plan {replanned_ns}ns"
    )
