#!/usr/bin/env python3
"""Compare two benchmark reports, or show one report's own spread.

    python3 bench/compare.py A.jsonl [B.jsonl]

A report file is what ``run.py --out FILE`` appends to: one JSON line
per run, so ten runs at ten seeds make one ten-line file.  Per workload
and end-to-end metric this prints both medians, the ratio B/A **with its
base**, each side's spread (interquartile distance over median, as
``statistics.quantiles(n=4)`` gives it) and a verdict against the
metric's own bound from BENCHMARK.json:

* ``better`` / ``worse`` — the medians differ by more than the bound;
* ``same`` — they do not;
* ``unresolved`` — a side's own spread exceeds the bound, so the runs
  cannot tell (more runs, or a quieter machine, are needed).

Counts that must repeat exactly for a seed (:data:`EXACT`) are compared
run by run, between runs that share a seed.  Exit code 1 on any
``worse`` or count mismatch.  With one file: the spread table only.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Per-layer counts that are a function of (code, seed, rows) alone.
EXACT = (
    "protocol.bytes_per_row", "query.rewrites_applied",
    "query.rows_examined_per_result", "kernel.row_comparisons",
    "views.live", "views.refreshes", "views.rebuilds",
    "storage.wal_bytes_per_user_byte", "storage.snapshot_bytes",
    "storage.recovery_wal_replayed", "tenancy.shared_views",
    "revision.full_fallbacks", "faults.sites_per_query",
)


def load(path: str) -> dict[str, list[dict]]:
    """Runs per workload: ``{"seed", "rows", "values", "stream"}``."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in filter(str.strip, fh):
            report = json.loads(line)
            for result in report["workloads"]:
                runs.setdefault(result["workload"], []).append({
                    "seed": report["stamp"]["seed"],
                    "rows": report["stamp"]["rows"],
                    "values": result["values"],
                    "stream": result["stream_sha256"],
                })
    return runs


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median; ``None`` with
    fewer than two runs."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def _fmt(x: float | None) -> str:
    return "    n/a" if x is None else f"{x:7.1%}"


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    if any(s is not None and s > bound for s in (spread(a), spread(b))):
        return "unresolved"
    base, new = statistics.median(a), statistics.median(b)
    change = (new - base) / base if base else 0.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a = load(argv[0])
    b = load(argv[1]) if len(argv) == 2 else None
    bad = 0
    for workload in a:
        print(f"== {workload}  ({len(a[workload])} run(s)"
              + (f" vs {len(b.get(workload, []))}" if b else "") + ")")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            left = [r["values"][name] for r in a[workload]]
            line = (f"   {name:<16} {statistics.median(left):>14.4f} "
                    f"{metric['unit']:<7} spread {_fmt(spread(left))} "
                    f"(bound {bound:.0%})")
            if b is not None and b.get(workload):
                right = [r["values"][name] for r in b[workload]]
                outcome = verdict(left, right, metric["better"], bound)
                bad += outcome == "worse"
                base = statistics.median(left)
                line += (f" | {statistics.median(right):>14.4f} spread "
                         f"{_fmt(spread(right))} | x"
                         f"{statistics.median(right) / base:.3f} of "
                         f"{base:.4f} | {outcome}")
            print(line)
        if b is None:
            continue
        for left_run in a[workload]:
            for right_run in b.get(workload, []):
                if (left_run["seed"], left_run["rows"]) != (
                        right_run["seed"], right_run["rows"]):
                    continue
                if left_run["stream"] != right_run["stream"]:
                    print(f"   MISMATCH request stream differs at seed "
                          f"{left_run['seed']}")
                    bad += 1
                for name in EXACT:
                    x = left_run["values"].get(name)
                    y = right_run["values"].get(name)
                    if x is not None and y is not None and x != y:
                        print(f"   MISMATCH {name}: {x} != {y} at seed "
                              f"{left_run['seed']}")
                        bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
