#!/usr/bin/env python3
"""Benchmark regression report: medians + speedup ratios -> BENCH_<pr>.json.

Runs the repository's pinned benchmark workloads directly (no pytest
harness, so timings are not diluted by fixture plumbing), writes a
machine-readable report, and **fails** (exit 1) when a speedup criterion
regresses:

* ``columnar_vs_bnl`` — the PR-2 acceptance criterion: the columnar
  winnow must beat row-level BNL by >= 5x on 50k-row skylines (NumPy
  required; the check is skipped, and recorded as skipped, without it).
* ``rewrite_pushdown`` — the PR-3 acceptance criterion: the rewritten
  (selection-pushed) plan must beat the unrewritten plan by >= 2x on the
  filtered 50k-row workload.
* ``view_serving`` — the PR-4 acceptance criterion: repeat queries
  answered from a materialized continuous winnow view must beat
  re-planned execution by >= 5x on the 50k-row catalog (and return
  identical rows).
* ``semantic_elim`` — the PR-6 acceptance criterion: on a 50k-row
  workload whose statistics derive a key on the chain head, the
  semantic ``winnow_to_sort`` rewrite (single-column argmax instead of
  a dominance winnow) must beat the unoptimized plan by >= 10x, with
  identical rows.
* ``revision_speedup`` — the PR-7 acceptance criterion: revising a
  standing winnow answer by a proved order refinement (prioritized
  append, Definition 9) must beat a full re-plan + re-scan by >= 10x on
  the 50k-row catalog, with identical rows; the incomparable fallback
  is additionally asserted *exact* (full recompute) inline.
* ``durable_pushdown`` — the PR-8 acceptance criterion: a winnow whose
  rigid WHERE filter is pushed through the SQLite storage backend
  (``push_select_into_storage``: the kernel scans only the backend's
  pre-filtered candidate set) must beat the unrewritten full-scan plan
  by >= 2x on the filtered 50k-row workload, with identical rows.
* ``snapshot_restore`` — PR-8's durability latency budget: recovering a
  50k-row catalog from its snapshot (fresh ``Session(data_dir=...)``,
  rows + versions + constraints decoded and re-mirrored) must finish
  within :data:`RESTORE_BUDGET_NS`.  Encoded as ratio = budget/elapsed
  so the shared >= 1.0 pass rule applies.
* ``tenant_view_sharing`` — the PR-9 acceptance criterion: simulated
  tenants whose profile terms are syntactic variants (commuted Pareto
  arms, laundered duplicates) of a small pool of canonical shapes must
  achieve a >= 90% shared-view hit rate through the canonicalized
  shared-view index, with the registry LRU-bounded.  Encoded as
  ratio = hit_rate/0.9 so the shared >= 1.0 pass rule applies.

Usage::

    python tools/bench_report.py                                # CI
    python tools/bench_report.py --quick                        # smoke run

The report path defaults to ``$BENCH_REPORT`` (falling back to
``BENCH_8.json``) so the CI workflow names the artifact once, at the
workflow level, instead of per job.

The CI benchmark job uploads the JSON as a build artifact, so regressions
come with numbers attached.  Report schema::

    {
      "schema": "repro-bench-report/v1",
      "environment": {"python": "...", "numpy": "...", "rows": 50000},
      "benchmarks": {"<name>": {"median_ns": ..., "rounds": ...}},
      "ratios": {"<name>": ...},
      "criteria": {"<name>": {"ratio": ..., "threshold": ..., "pass": ...}}
    }
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.base_numerical import HighestPreference, LowestPreference  # noqa: E402
from repro.core.constructors import pareto  # noqa: E402
from repro.engine.backend import numpy_available  # noqa: E402
from repro.engine.columnar import columnar_winnow  # noqa: E402
from repro.query.algorithms import block_nested_loop  # noqa: E402

#: snapshot_restore latency budget: a 50k-row catalog must recover from
#: its snapshot (decode + re-mirror) in at most this long.  Generous
#: enough for CI-shared cores, tight enough that an accidentally
#: quadratic recovery path trips it.
RESTORE_BUDGET_NS = 10_000_000_000


def median_ns(fn, rounds: int) -> int:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - start)
    return int(statistics.median(samples))


def _skyline_pref(dims: int):
    return pareto(*(
        HighestPreference(f"d{i}") if i % 2 == 0 else LowestPreference(f"d{i}")
        for i in range(dims)
    ))


def bench_columnar_vs_bnl(report: dict, n_rows: int, rounds: int) -> None:
    from repro.datasets.skyline_data import skyline_relation

    pref = _skyline_pref(3)
    ratios = []
    for kind in ("independent", "correlated"):
        relation = skyline_relation(kind, n_rows, 3, seed=13)
        relation.columns()  # materialize outside the timed region
        rows = relation.rows()

        bnl = median_ns(lambda: block_nested_loop(pref, rows), rounds)
        columnar = median_ns(lambda: columnar_winnow(pref, relation), rounds)
        report["benchmarks"][f"skyline_{kind}_{n_rows}_bnl"] = {
            "median_ns": bnl, "rounds": rounds,
        }
        report["benchmarks"][f"skyline_{kind}_{n_rows}_columnar"] = {
            "median_ns": columnar, "rounds": rounds,
        }
        ratios.append(bnl / columnar)
        report["ratios"][f"columnar_vs_bnl_{kind}"] = round(bnl / columnar, 2)
    report["criteria"]["columnar_vs_bnl"] = {
        "ratio": round(min(ratios), 2),
        "threshold": 5.0,
        "pass": min(ratios) >= 5.0,
    }


def bench_rewrite_pushdown(report: dict, n_rows: int, rounds: int) -> None:
    import random

    from repro.core.base_numerical import AroundPreference
    from repro.session import Session

    rng = random.Random(7)
    rows = [
        {"price": rng.uniform(0, 100_000), "power": rng.uniform(50, 400)}
        for _ in range(n_rows)
    ]
    session = Session({"car": rows})
    query = (
        session.query("car")
        .prefer(pareto(
            AroundPreference("price", 40_000), HighestPreference("power")
        ))
        .but_only(("distance", "price", "<=", 2_000))
    )
    rewritten = query.plan()
    canonical = query.optimize(False).plan()
    assert "push_select_below_winnow" in query.explain()

    canonical_ns = median_ns(canonical.execute, rounds)
    rewritten_ns = median_ns(rewritten.execute, rounds)
    report["benchmarks"][f"pushdown_{n_rows}_canonical"] = {
        "median_ns": canonical_ns, "rounds": rounds,
    }
    report["benchmarks"][f"pushdown_{n_rows}_rewritten"] = {
        "median_ns": rewritten_ns, "rounds": rounds,
    }
    ratio = canonical_ns / rewritten_ns
    report["ratios"]["rewrite_pushdown"] = round(ratio, 2)
    report["criteria"]["rewrite_pushdown"] = {
        "ratio": round(ratio, 2),
        "threshold": 2.0,
        "pass": ratio >= 2.0,
    }


def bench_view_serving(report: dict, n_rows: int, rounds: int) -> None:
    from repro.core.base_numerical import AroundPreference
    from repro.datasets.cars import generate_cars
    from repro.query import optimizer
    from repro.server import PreferenceService

    pref = pareto(
        AroundPreference("price", 30_000), HighestPreference("horsepower")
    )
    spec = {
        "relation": "car",
        "prefer": {
            "type": "pareto",
            "children": [
                {"type": "around", "attribute": "price", "z": 30_000},
                {"type": "highest", "attribute": "horsepower"},
            ],
        },
    }
    service = PreferenceService({"car": generate_cars(n_rows, seed=11).rows()})
    try:
        relation = service.session.catalog.get("car")
        service.query(spec=spec)
        answer = service.query(spec=spec)  # second sighting materializes
        assert answer.source == "view"
        fresh = optimizer.plan(pref, relation).execute()

        def canon(rows):
            return sorted(tuple(sorted(r.items())) for r in rows)

        assert canon(answer.rows) == canon(fresh.rows())

        planned = median_ns(
            lambda: optimizer.plan(pref, relation).execute(), rounds
        )
        viewed = median_ns(lambda: service.query(spec=spec), rounds)
    finally:
        service.close()
    report["benchmarks"][f"serving_{n_rows}_replanned"] = {
        "median_ns": planned, "rounds": rounds,
    }
    report["benchmarks"][f"serving_{n_rows}_view"] = {
        "median_ns": viewed, "rounds": rounds,
    }
    ratio = planned / viewed
    report["ratios"]["view_serving"] = round(ratio, 2)
    report["criteria"]["view_serving"] = {
        "ratio": round(ratio, 2),
        "threshold": 5.0,
        "pass": ratio >= 5.0,
    }


def bench_semantic_elim(report: dict, n_rows: int, rounds: int) -> None:
    """Constraint-eliminated winnow vs. the full dominance winnow.

    ``rating`` is continuous, so statistics derive ``key(rating)``; the
    ``winnow_to_sort`` rule then proves the prioritized chain head alone
    selects a single best tuple and replaces the whole winnow with a
    one-pass column argmax.  ``optimize(False)`` is the honest baseline:
    the canonical plan never consults the constraint registry.
    """
    import random

    from repro.core.base_numerical import AroundPreference
    from repro.core.constructors import prioritized
    from repro.session import Session

    rng = random.Random(23)
    rows = [
        {
            "rating": i + rng.random() * 0.5,  # guaranteed pairwise distinct
            "price": rng.uniform(0, 100_000),
            "power": rng.uniform(50, 400),
        }
        for i in range(n_rows)
    ]
    session = Session({"listing": rows})
    pref = prioritized(
        HighestPreference("rating"),
        pareto(AroundPreference("price", 40_000), HighestPreference("power")),
    )
    query = session.query("listing").prefer(pref)
    optimized = query.plan()
    canonical = query.optimize(False).plan()
    assert "winnow_to_sort" in query.explain()
    assert optimized.execute().rows() == canonical.execute().rows()

    canonical_ns = median_ns(canonical.execute, rounds)
    optimized_ns = median_ns(optimized.execute, rounds)
    report["benchmarks"][f"semantic_{n_rows}_canonical"] = {
        "median_ns": canonical_ns, "rounds": rounds,
    }
    report["benchmarks"][f"semantic_{n_rows}_eliminated"] = {
        "median_ns": optimized_ns, "rounds": rounds,
    }
    ratio = canonical_ns / optimized_ns
    report["ratios"]["semantic_elim"] = round(ratio, 2)
    report["criteria"]["semantic_elim"] = {
        "ratio": round(ratio, 2),
        "threshold": 10.0,
        "pass": ratio >= 10.0,
    }


def bench_revision(report: dict, n_rows: int, rounds: int) -> None:
    """Revise-from-view (Definition 9 refinement) vs full re-planning."""
    from repro.core.base_numerical import HighestPreference, LowestPreference
    from repro.core.constructors import prioritized
    from repro.datasets.cars import generate_cars
    from repro.query import optimizer
    from repro.query.incremental import IncrementalBMO

    relation = generate_cars(n_rows, seed=11)
    base = LowestPreference("price")
    refined = prioritized(base, HighestPreference("horsepower"))

    def canon(out):
        return sorted(tuple(sorted(r.items())) for r in out)

    def seeded():
        state = IncrementalBMO(base)
        state.load(relation)  # held by reference: no per-state copy
        return state

    fresh = optimizer.plan(refined, relation).execute()
    probe = seeded()
    assert probe.revise(refined)[2] == "view"
    assert canon(probe.result()) == canon(fresh.rows())
    # The incomparable fallback stays exact: the bag re-winnowed, counted.
    swap = seeded()
    assert swap.revise(HighestPreference("mileage"))[2] == "full"
    assert swap.stats["examined"] == n_rows
    assert canon(swap.result()) == canon(
        optimizer.plan(HighestPreference("mileage"), relation).execute().rows()
    )

    states = iter([seeded() for _ in range(rounds)])
    revised = median_ns(lambda: next(states).revise(refined), rounds)
    replanned = median_ns(
        lambda: optimizer.plan(refined, relation).execute(), rounds
    )
    report["benchmarks"][f"revision_{n_rows}_replanned"] = {
        "median_ns": replanned, "rounds": rounds,
    }
    report["benchmarks"][f"revision_{n_rows}_revised"] = {
        "median_ns": revised, "rounds": rounds,
    }
    ratio = replanned / revised
    report["ratios"]["revision_speedup"] = round(ratio, 2)
    report["criteria"]["revision_speedup"] = {
        "ratio": round(ratio, 2),
        "threshold": 10.0,
        "pass": ratio >= 10.0,
    }


def bench_durable_pushdown(report: dict, n_rows: int, rounds: int) -> None:
    """SQL-prefiltered winnow vs. the unrewritten full-scan plan.

    The catalog lives on the SQLite backend; ``push_select_into_storage``
    hands the rigid ``category =`` filter to the mirror's indexed column,
    so the winnow kernel scans only the ~0.5% candidate set the backend
    returns.  The baseline (``optimize(False)``) scans and filters all
    rows in Python.  The preference is a plain skyline (columnar
    dominance form) so the winnow itself stays cheap on both sides and
    the criterion measures the scans, not the kernel.
    """
    import random

    from repro.core.base_numerical import LowestPreference
    from repro.psql.ast import Comparison
    from repro.session import Session

    rng = random.Random(31)
    rows = [
        {
            "category": f"c{rng.randrange(200):03d}",  # ~0.5% per category
            "price": rng.uniform(0, 100_000),
            "power": rng.uniform(50, 400),
        }
        for _ in range(n_rows)
    ]
    session = Session({"car": rows}, storage="sqlite")
    try:
        query = (
            session.query("car")
            .where(Comparison("category", "=", "c007"))
            .prefer(pareto(
                LowestPreference("price"), HighestPreference("power")
            ))
        )
        pushed = query.plan()
        fullscan = query.optimize(False).plan()
        assert "push_select_into_storage" in query.explain()
        assert pushed.execute().rows() == fullscan.execute().rows()

        fullscan_ns = median_ns(fullscan.execute, rounds)
        pushed_ns = median_ns(pushed.execute, rounds)
    finally:
        session.close()
    report["benchmarks"][f"durable_{n_rows}_fullscan"] = {
        "median_ns": fullscan_ns, "rounds": rounds,
    }
    report["benchmarks"][f"durable_{n_rows}_sql_prefiltered"] = {
        "median_ns": pushed_ns, "rounds": rounds,
    }
    ratio = fullscan_ns / pushed_ns
    report["ratios"]["durable_pushdown"] = round(ratio, 2)
    report["criteria"]["durable_pushdown"] = {
        "ratio": round(ratio, 2),
        "threshold": 2.0,
        "pass": ratio >= 2.0,
    }


def bench_snapshot_restore(report: dict, n_rows: int, rounds: int) -> None:
    """Catalog recovery latency: snapshot -> live session, under budget.

    One durable session checkpoints the car catalog; each timed round
    then boots a *fresh* session over the same directory, which decodes
    the snapshot, restores versions, and re-mirrors the relation into
    SQLite.  The criterion is a latency budget, encoded as
    ratio = budget/elapsed so the shared >= 1.0 pass rule applies.
    """
    import shutil
    import tempfile

    from repro.datasets.cars import generate_cars
    from repro.session import Session

    data_dir = tempfile.mkdtemp(prefix="bench_restore_")
    try:
        writer = Session(storage="sqlite", data_dir=data_dir)
        writer.register("car", generate_cars(n_rows, seed=11).rows())
        writer.checkpoint()
        writer.close()

        samples = []
        for _ in range(rounds):
            start = time.perf_counter_ns()
            restored = Session(storage="sqlite", data_dir=data_dir)
            samples.append(time.perf_counter_ns() - start)
            assert len(restored.catalog.get("car")) == n_rows
            restored.close()
        elapsed = int(statistics.median(samples))
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    report["benchmarks"][f"restore_{n_rows}_snapshot"] = {
        "median_ns": elapsed, "rounds": rounds,
    }
    ratio = RESTORE_BUDGET_NS / elapsed
    report["ratios"]["snapshot_restore"] = round(ratio, 2)
    report["criteria"]["snapshot_restore"] = {
        "ratio": round(ratio, 2),
        "threshold": 1.0,
        "pass": elapsed <= RESTORE_BUDGET_NS,
        "budget_ms": RESTORE_BUDGET_NS // 1_000_000,
        "elapsed_ms": elapsed // 1_000_000,
    }


def bench_tenant_view_sharing(report: dict, n_rows: int, rounds: int) -> None:
    """Canonicalized shared views under a simulated tenant population.

    ``n_rows // 5`` tenants (10k at the CI cardinality) each store one of
    three syntactic spellings of one of 48 canonical preference shapes
    and run one profiled query.  Equivalent spellings collapse onto one
    continuous view, so all but the first query per shape are view hits.
    The criterion is the hit rate itself (ratio = hit_rate / 0.90); the
    LRU bound and variant-collapse are asserted inline.
    """
    import random

    from repro.datasets.cars import generate_cars
    from repro.server import PreferenceService

    n_users = max(n_rows // 5, 100)
    n_shapes = 48
    capacity = 64
    rng = random.Random(17)
    service = PreferenceService(
        {"car": generate_cars(min(n_rows, 5_000), seed=11).rows()},
        shared_view_capacity=capacity,
    )
    try:
        tenancy = service.tenancy
        start = time.perf_counter_ns()
        for user in range(n_users):
            z = 10_000 + 1_000 * (user % n_shapes)
            around = {"type": "around", "attribute": "price", "z": z}
            hi_hp = {"type": "highest", "attribute": "horsepower"}
            arms = [[around, hi_hp], [hi_hp, around],
                    [around, hi_hp, around]]  # commuted / laundered
            tenancy.set_profile(
                f"user-{user}", "deal",
                {"type": "pareto", "children": rng.choice(arms)},
            )
            answer = tenancy.query(f"user-{user}", spec={"relation": "car"})
            assert answer.rows
        elapsed = time.perf_counter_ns() - start
        snapshot = tenancy.metrics.snapshot()
        assert snapshot["total_queries"] == n_users
        assert len(tenancy.shared) == n_shapes <= capacity
        hit_rate = snapshot["view_hit_rate"]
    finally:
        service.close()
    report["benchmarks"][f"tenancy_{n_users}_users"] = {
        "median_ns": elapsed, "rounds": 1,
        "per_query_ns": elapsed // n_users,
    }
    ratio = hit_rate / 0.90
    report["ratios"]["tenant_view_sharing"] = round(ratio, 2)
    report["criteria"]["tenant_view_sharing"] = {
        "ratio": round(ratio, 2),
        "threshold": 1.0,
        "pass": ratio >= 1.0,
        "hit_rate": hit_rate,
        "users": n_users,
        "shapes": n_shapes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output",
                        default=os.environ.get("BENCH_REPORT",
                                               "BENCH_9.json"),
                        help="report path (default: $BENCH_REPORT "
                             "or BENCH_9.json)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per benchmark (median is kept)")
    parser.add_argument("--rows", type=int, default=50_000,
                        help="workload cardinality (default: %(default)s)")
    parser.add_argument("--quick", action="store_true",
                        help="5k-row smoke run; criteria are still checked")
    args = parser.parse_args(argv)
    n_rows = 5_000 if args.quick else args.rows

    numpy_version = None
    if numpy_available():
        import numpy

        numpy_version = numpy.__version__
    report: dict = {
        "schema": "repro-bench-report/v1",
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy_version,
            "rows": n_rows,
            "cores": os.cpu_count() or 1,
        },
        "benchmarks": {},
        "ratios": {},
        "criteria": {},
    }

    if numpy_available():
        bench_columnar_vs_bnl(report, n_rows, args.rounds)
    else:
        report["criteria"]["columnar_vs_bnl"] = {
            "ratio": None, "threshold": 5.0, "pass": None,
            "skipped": "NumPy unavailable",
        }
    bench_rewrite_pushdown(report, n_rows, args.rounds)
    bench_view_serving(report, n_rows, args.rounds)
    bench_semantic_elim(report, n_rows, args.rounds)
    bench_revision(report, n_rows, args.rounds)
    bench_durable_pushdown(report, n_rows, args.rounds)
    bench_snapshot_restore(report, n_rows, args.rounds)
    bench_tenant_view_sharing(report, n_rows, args.rounds)

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    failed = [
        name for name, crit in report["criteria"].items()
        if crit["pass"] is False
    ]
    for name, crit in sorted(report["criteria"].items()):
        status = {True: "pass", False: "FAIL", None: "skip"}[crit["pass"]]
        print(f"{name}: ratio={crit['ratio']} "
              f"(threshold {crit['threshold']}x) -> {status}")
    print(f"report written to {args.output}")
    if failed:
        print(f"criteria regressed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
