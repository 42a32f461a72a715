#!/usr/bin/env python3
"""Serving benchmark: what a client waits for, and where the time goes.

    python3 bench/run.py [--workload NAME] [--seed S] [--seconds T]
                         [--trace 0|1] [--rows N] [--out FILE] [--smoke]

For each workload: spawn ``serve.py`` as a child, warm it up (three
times — ``setup_s`` is the median), drive the timed window over two
connections, check every answer, and — with ``--trace 1`` — replay the
head of the same request stream in-process for the per-layer numbers.
Without ``--workload`` all four run.  Every metric is printed by name
with its unit and sample count; the last stdout line of a
single-workload run is the result object BENCHMARK.json describes.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Refuse to report when the generator, not the server, was the limit.
MAX_BUSY_SHARE = 0.8
#: Rows the post-window durability tail inserts per checkpoint round.
TAIL_ROUNDS, TAIL_INSERTS, TAIL_EXTRA = 3, 20, 5
TAIL_OID_BASE = 20_000_000


class Refused(RuntimeError):
    """The run's numbers cannot be trusted, so none are reported."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100 * len(ordered)) - 1))
    return ordered[rank]


def _ms(values_ns: list[int], q: float) -> float:
    return percentile(values_ns, q) / 1e6


# -- one server life ----------------------------------------------------------


@contextmanager
def serving(workload, seed: int, rows: int, scratch: Path,
            data_dir: Path | None, cpu: int | None) -> Iterator[tuple]:
    """Spawn -> ready -> connected -> warm.  Yields ``(server, wires,
    warm_state, setup_seconds)``; always kills the child on exit."""
    from loadgen import ServerProcess, Wire, subscribe_views

    started = time.perf_counter()
    with ServerProcess(workload.name, rows, scratch / "server.log",
                       data_dir, cpu) as server:
        wires = [Wire(server.port), Wire(server.port)]
        try:
            warmup = workload.warmup(seed)
            state = None
            if workload.durable:
                state = subscribe_views(wires[0], warmup)
            else:
                for request in warmup:
                    reply = wires[0].call(request.body)
                    if not reply.ok:
                        raise Refused(f"warm-up failed: {reply.error}")
            yield server, wires, state, time.perf_counter() - started
        finally:
            for wire in wires:
                wire.close()


def _call(wire, **payload: Any):
    """One request outside the generated streams (control ops, the
    durability tail); returns the wire client's ``Reply``."""
    from workloads import Request

    return wire.call(Request("control", payload).body)


def _metrics(wire) -> dict[str, Any]:
    reply = _call(wire, op="metrics")
    if not reply.ok:
        raise Refused(f"metrics op failed: {reply.error}")
    return reply.final["metrics"]


# -- the churn durability tail ------------------------------------------------


def _observe(wire, prefs: list[dict]) -> dict[str, Any]:
    """What must survive a SIGKILL: view answers, catalog, inserts."""
    from loadgen import fingerprint
    from workloads import CHURN_OID_BASE, view_query

    views = [fingerprint(wire.call(view_query(p, keys_only=False).body).rows)
             for p in prefs]
    relations = _call(wire, op="relations").final["relations"]
    inserted = _call(wire, op="query", spec={
        "relation": "car", "select": ["oid"],
        "where": [["oid", ">=", CHURN_OID_BASE]],
    }).rows
    return {"views": views,
            "relations": sorted((r["name"], r["rows"], r["version"])
                                for r in relations),
            "inserted": sorted(r["oid"] for r in inserted)}


def churn_tail(workload, rows: int, scratch: Path, data_dir: Path,
               cpu: int | None, server, wire,
               log) -> tuple[dict[str, float], list[str], int]:
    """3 x (20 inserts + checkpoint), 5 more inserts, record answers,
    SIGKILL, respawn on the same data dir, time to first correct answer.

    Process-crash durability with fsync on; power loss is not claimed.
    """
    import oracle
    from loadgen import ServerProcess, Wire, fingerprint
    from workloads import DOMINATED, view_query

    problems: list[str] = []
    attempted = 0
    finals = [wire.call(view_query(p, keys_only=False).body).rows
              for p in log.prefs]
    problems += oracle.check_final(log, finals)
    next_oid = TAIL_OID_BASE
    checkpoints = []

    def insert(n: int) -> None:
        nonlocal next_oid, attempted
        for _ in range(n):
            attempted += 1
            reply = _call(wire, op="insert", relation="car",
                          rows=[dict(DOMINATED, oid=next_oid)])
            if reply.ok:
                log.live.add(next_oid)
            else:
                problems.append(f"tail insert failed: {reply.error}")
            next_oid += 1

    for _ in range(TAIL_ROUNDS):
        insert(TAIL_INSERTS)
        started = time.perf_counter()
        attempted += 1
        reply = _call(wire, op="checkpoint")
        checkpoints.append(time.perf_counter() - started)
        if not reply.ok:
            problems.append(f"checkpoint failed: {reply.error}")
    stored = sum(p.stat().st_size for p in data_dir.rglob("*") if p.is_file())
    everything = _call(wire, op="query", spec={"relation": "car"}).rows
    user_bytes = sum(
        len(json.dumps(r, separators=(",", ":"))) for r in everything)
    insert(TAIL_EXTRA)
    before = _observe(wire, log.prefs)
    storage = _metrics(wire)["storage"]

    killed = time.perf_counter()
    server.kill()
    with ServerProcess(workload.name, rows, scratch / "server.log",
                       data_dir, cpu) as reborn:
        wire = Wire(reborn.port)
        try:
            first = fingerprint(wire.call(
                view_query(log.prefs[0], keys_only=False).body).rows)
            recover_s = time.perf_counter() - killed
            if first != before["views"][0]:
                problems.append(
                    f"first answer after recovery {first} != pre-kill "
                    f"{before['views'][0]}")
            after = _observe(wire, log.prefs)
            recovery = _metrics(wire)["storage"]["recovery"] or {}
        finally:
            wire.close()
    problems += oracle.check_recovery(log.live, before, after)
    return {
        "churn.checkpoint_s": statistics.median(checkpoints),
        "churn.recover_s": recover_s,
        "churn.stored_bytes_per_user_byte": stored / user_bytes,
        "storage.recovery_wal_replayed": recovery.get("wal_replayed", 0),
        "storage.breaker_opens": storage["breaker"]["counts"]["opened"],
    }, problems, attempted


# -- one workload -------------------------------------------------------------


def run_workload(name: str, seed: int, rows: int, seconds: float,
                 traced: bool, setups: int,
                 server_cpu: int | None) -> dict[str, Any]:
    import loadgen
    import oracle
    import trace
    from workloads import WORKLOADS, stream_digest

    workload = WORKLOADS[name]
    relations = workload.relations(rows)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=OUT_DIR))
    # What only the durable tail measures reads 0 elsewhere.
    values: dict[str, float] = {
        "churn.checkpoint_s": 0.0, "churn.recover_s": 0.0,
        "churn.stored_bytes_per_user_byte": 0.0,
        "storage.recovery_wal_replayed": 0, "storage.breaker_opens": 0,
    }
    problems: list[str] = []
    try:
        setup_times = []
        for attempt in range(setups):
            data_dir = scratch / f"data-{attempt}" if workload.durable else None
            with serving(workload, seed, rows, scratch, data_dir,
                         server_cpu) as (
                    server, wires, state, setup_seconds):
                setup_times.append(setup_seconds)
                if attempt < setups - 1:
                    continue
                before = _metrics(wires[0])
                if workload.durable:
                    window = loadgen.run_churn(
                        wires[0], wires[1], state,
                        workload.stream(seed, 0), seconds)
                else:
                    window = loadgen.run_queries(
                        wires, [workload.stream(seed, c) for c in (0, 1)],
                        seconds)
                if not server.alive():
                    raise Refused("the server child died during the window")
                values["server_rss_mb"] = server.peak_rss_mb()
                after = _metrics(wires[0])
                attempted = len(window.samples)
                if workload.durable:
                    tail, tail_problems, tail_attempted = churn_tail(
                        workload, rows, scratch, data_dir, server_cpu,
                        server, wires[1], window.churn)
                    values.update(tail)
                    problems += tail_problems
                    attempted += tail_attempted
        values["setup_s"] = statistics.median(setup_times)

        # -- correctness ------------------------------------------------------
        # One failure per failed request (error, refusal, timeout or
        # wrong answer) and per churn invariant broken.
        problems += [f"{s.error} [{s.request.kind} {s.request.payload}]"
                     for s in window.samples if s.error is not None]
        ok = [s for s in window.samples if s.error is None]
        queries = [s for s in ok if s.request.payload["op"] == "query"]
        if workload.durable:
            # Reads are judged as a stream, against their mirrors.
            problems += oracle.check_mirrors(window.churn)
            correct = ok
        else:
            judge = oracle.Oracle(relations, workload.warmup(seed))
            correct = []
            for sample in queries:
                found = judge.check(sample)
                if found:
                    problems.append("; ".join(found))
                else:
                    correct.append(sample)
        failed = len(problems)

        # -- end-to-end -------------------------------------------------------
        # Every request of the window: all of them queries on the three
        # read-only workloads; on churn the mutations too, where p50
        # falls among the inserts (and p95 among the deletes, which also
        # take most of the window and so set requests_per_s).
        latencies = [s.latency_ns for s in ok]
        values["request_p50_ms"] = _ms(latencies, 50)
        values["client.request_p95_ms"] = _ms(latencies, 95)
        values["requests_per_s"] = len(correct) / window.seconds
        values["client.rows_per_s"] = (
            sum(s.n_rows for s in correct) / window.seconds)

        # -- per-layer: client and server, from the socket run ----------------
        lags = window.churn.lags_ns if window.churn else []
        counts = Counter(s.request.kind for s in ok)
        counts.update({
            "request": len(ok), "query": len(queries),
            "churn.insert_all": (counts["churn.insert"]
                                 + counts["churn.insert_entering"]),
            "churn.delta_lag": len(lags),
        })
        values.update(client_metrics(ok, queries, lags, window.busy_share))
        values.update(server_metrics(before, after))
        errors = (values["server.errors"] + values["server.shed_overloaded"]
                  + values["server.shed_deadline"]
                  + values["storage.breaker_opens"])
        if errors > failed:
            raise Refused(
                f"server reports {errors:.0f} errors/sheds/breaker opens "
                f"but only {failed} requests failed")
        if window.busy_share > MAX_BUSY_SHARE:
            raise Refused(
                f"load generator busy share {window.busy_share:.2f} > "
                f"{MAX_BUSY_SHARE}: the generator was the bottleneck")

        # -- per-layer: the traced in-process replay --------------------------
        if traced:
            tracer = trace.run(workload, seed, relations, scratch)
            values.update(layer_metrics(tracer, workload, values, queries))
            tracer.write(OUT_DIR / f"trace-{name}.json", {
                "workload": name, "seed": seed, "rows": rows})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "workload": name,
        "why": workload.why,
        "stream_sha256": stream_digest(workload, seed, 2),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems[:20],
        "window_seconds": window.seconds,
        "values": values,
        "counts": dict(counts),
    }


def client_metrics(ok, queries, lags, busy_share) -> dict[str, float]:
    def latency(*kinds: str) -> list[int]:
        return [s.latency_ns for s in ok if s.request.kind in kinds]

    inserts = latency("churn.insert", "churn.insert_entering")
    return {
        "client.wire_overhead_p50_ms": _ms(
            [s.latency_ns - s.server_ns for s in queries], 50),
        "client.first_chunk_p50_ms": _ms([s.first_ns for s in queries], 50),
        "client.query_p50_ms": _ms([s.latency_ns for s in queries], 50),
        "client.query_p99_ms": _ms([s.latency_ns for s in queries], 99),
        "client.tenant_p50_ms": _ms(latency("standing.tenant"), 50),
        "client.anon_p50_ms": _ms(latency("standing.anon"), 50),
        "client.revise_refine_p50_ms": _ms(latency("churn.revise_refine"), 50),
        "client.revise_revert_p50_ms": _ms(latency("churn.revise_revert"), 50),
        "client.loadgen_busy_share": busy_share,
        "churn.insert_p50_ms": _ms(inserts, 50),
        "churn.insert_p95_ms": _ms(inserts, 95),
        "churn.delete_p50_ms": _ms(latency("churn.delete"), 50),
        "churn.delta_lag_p50_ms": _ms(lags, 50),
        "churn.delta_lag_p95_ms": _ms(lags, 95),
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def server_metrics(before: dict, after: dict) -> dict[str, float]:
    """The public ``metrics`` op, as a delta across the window."""
    def delta(*path: str) -> float:
        a, b = after, before
        for key in path:
            a, b = a.get(key, 0), (b.get(key, 0) if b else 0)
        return a - b

    hits, misses = delta("plan_cache", "hits"), delta("plan_cache", "misses")
    shared = "tenancy", "shared_views"
    shared_hits, shared_misses = delta(*shared, "hits"), delta(*shared, "misses")
    latency = after["latency"]
    return {
        "server.view_answer_share": _share(
            delta("queries", "from_view"), delta("queries", "total")),
        "server.plan_cache_hit_share": _share(hits, hits + misses),
        "server.answer_view_p50_us": latency["query_view"]["p50_ns"] / 1e3,
        "server.answer_plan_p50_ms": latency["query_planned"]["p50_ns"] / 1e6,
        "server.deltas_pushed": delta("deltas_pushed"),
        "server.errors": delta("errors"),
        "server.shed_overloaded": delta("shed", "overloaded"),
        "server.shed_deadline": delta("shed", "deadline"),
        "views.live": len(after["views"]),
        "tenancy.shared_view_hit_share": _share(
            shared_hits, shared_hits + shared_misses),
        "tenancy.shared_views": after["tenancy"]["shared_views"]["entries"],
    }


def layer_metrics(tracer, workload, values, queries) -> dict[str, float]:
    """Named per-layer metrics from the replay's spans and counts.  A
    layer the workload never enters reads 0."""
    from trace import FAULT_CHECKS

    def us(name: str) -> float:
        return tracer.median_ns(name) / 1e3

    def ms(name: str) -> float:
        return tracer.median_ns(name) / 1e6

    def count(name: str) -> float:
        return tracer.counts.get(name, 0)

    # The dominant request class: inserts on churn, queries elsewhere.
    if workload.durable:
        client_p50 = values["churn.insert_p50_ms"]
        requests = {s["request"] for s in tracer.spans
                    if s["name"] == "service.insert"}
    else:
        client_p50 = _ms([s.latency_ns for s in queries], 50)
        requests = None
    traced = [s["end_ns"] - s["start_ns"] for s in tracer.spans
              if s["name"] == "request"
              and (requests is None or s["request"] in requests)]
    return {
        "server.unattributed_p50_ms": client_p50 - _ms(traced, 50),
        "protocol.decode_us": us("protocol.decode"),
        "protocol.encode_us_per_krow": _share(
            sum(tracer.durations("protocol.encode")) / 1e3,
            count("protocol.rows") / 1e3),
        "protocol.bytes_per_row": _share(
            count("protocol.bytes"), count("protocol.rows")),
        "psql.parse_us": us("psql.parse"),
        "serialization.decode_pref_us": us("serialization.decode_pref"),
        "service.build_query_us": us("service.build_query"),
        "query.plan_cold_us": us("query.plan_cold"),
        "query.plan_cached_us": us("query.plan_cached"),
        "query.rewrites_applied": count("query.rewrites_applied"),
        "query.execute_ms": ms("query.execute"),
        "query.rows_examined_per_result": _share(
            count("query.rows_examined"), count("query.rows_returned")),
        "kernel.row_ms": ms("kernel.row"),
        "kernel.row_comparisons": count("kernel.row_comparisons"),
        "kernel.columnar_ms": ms("kernel.columnar"),
        "engine.encode_axis_ms": ms("engine.encode_axis"),
        "engine.cores_visible": os.cpu_count() or 1,
        "views.seed_ms": ms("views.seed"),
        "views.rows_us": us("views.rows"),
        "views.refresh_insert_ms": ms("views.refresh_insert"),
        "views.refresh_delete_ms": ms("views.refresh_delete"),
        "views.refreshes": count("views.refreshes"),
        "views.rebuilds": count("views.rebuilds"),
        "session.insert_rows_ms": ms("session.insert_rows"),
        "session.delete_rows_ms": ms("session.delete_rows"),
        "storage.wal_append_us": us("storage.wal_append"),
        "storage.wal_bytes_per_user_byte": _share(
            count("storage.wal_bytes"), count("storage.user_bytes")),
        "storage.mirror_insert_ms": ms("storage.mirror_insert"),
        "storage.prefilter_ms": ms("storage.prefilter"),
        "storage.snapshot_write_ms": ms("storage.snapshot_write"),
        "storage.snapshot_read_ms": ms("storage.snapshot_read"),
        "storage.snapshot_bytes": count("storage.snapshot_bytes"),
        "tenancy.compose_us": us("tenancy.compose"),
        "algebra.canonical_form_us": us("algebra.canonical_form"),
        "revision.classify_us": us("revision.classify"),
        "revision.full_fallbacks": count("revision.full_fallbacks"),
        "faults.check_ns": tracer.median_ns("faults.check") / FAULT_CHECKS,
        "faults.sites_per_query": count("faults.sites_per_query"),
    }


# -- reporting ----------------------------------------------------------------


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def stamp(args: argparse.Namespace,
          server_cpu: int | None) -> dict[str, Any]:
    """Provenance, so a copied report is detectable."""
    from repro.engine.backend import get_numpy
    from repro.storage.wal import fsync_enabled

    numpy = get_numpy()
    return {
        "commit": _git_commit(),
        "seed": args.seed,
        "rows": args.rows,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy is not None else "absent",
        "date": datetime.datetime.now().astimezone().isoformat(
            timespec="seconds"),
        "connections": 2,
        "loop": "closed",
        "cores": "one each" if server_cpu is not None else "shared",
        # The server child's environment is scrubbed of REPRO_WAL_FSYNC,
        # so this is the library default.
        "wal_fsync": "on" if fsync_enabled() else "off",
    }


def print_report(result: dict[str, Any], spec: dict[str, Any],
                 traced: bool) -> None:
    values, counts = result["values"], result["counts"]
    print(f"== {result['workload']}: {result['why']}")
    print(f"   stream sha256 {result['stream_sha256']}")
    print(f"   window {result['window_seconds']:.2f} s, "
          f"{result['attempted']} attempted, {result['failed']} failed "
          f"(failed_share {result['failed_share']:.4f})")
    for problem in result["problems"]:
        print(f"   FAIL {problem}")
    families = ["end_to_end"] + (["per_layer"] if traced else [])
    for family in families:
        print(f"   -- {family}")
        for metric in spec[family]:
            name = metric["name"]
            suffix = (f"  (n={counts.get(SAMPLES[name], 0)})"
                      if name in SAMPLES else "")
            print(f"   {name:<36} {values[name]:>14.4f} "
                  f"{metric['unit']}{suffix}")


#: The sample count printed beside each client-side percentile.
SAMPLES = {
    "request_p50_ms": "request", "client.request_p95_ms": "request",
    "client.query_p50_ms": "query", "client.query_p99_ms": "query",
    "client.wire_overhead_p50_ms": "query",
    "client.first_chunk_p50_ms": "query",
    "client.tenant_p50_ms": "standing.tenant",
    "client.anon_p50_ms": "standing.anon",
    "client.revise_refine_p50_ms": "churn.revise_refine",
    "client.revise_revert_p50_ms": "churn.revise_revert",
    "churn.insert_p50_ms": "churn.insert_all",
    "churn.insert_p95_ms": "churn.insert_all",
    "churn.delete_p50_ms": "churn.delete",
    "churn.delta_lag_p50_ms": "churn.delta_lag",
    "churn.delta_lag_p95_ms": "churn.delta_lag",
}


def result_line(result: dict[str, Any], spec: dict[str, Any],
                traced: bool) -> str:
    family = spec["per_layer" if traced else "end_to_end"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["values"][m["name"]],
                        "unit": m["unit"]}
            for m in family
        },
    })


def main(argv: list[str] | None = None) -> int:
    try:
        from loadgen import ServerDied, WireError, split_cores
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program under test from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, choices=list(WORKLOADS),
                        help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: also run the in-process traced replay "
                             "and report the per-layer metrics")
    parser.add_argument("--rows", type=int, default=10_000,
                        help="rows per relation")
    parser.add_argument("--out", default=None,
                        help="append the report as one JSON line to FILE")
    parser.add_argument("--smoke", action="store_true",
                        help="5k rows, 3 s windows, one set-up, traced: "
                             "all code paths in well under a minute")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setups = SETUPS
    if args.smoke:
        args.rows, args.seconds, args.trace, setups = 5_000, 3.0, 1, 1
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)

    server_cpu = split_cores()
    report = {"stamp": stamp(args, server_cpu), "workloads": []}
    print(f"# {json.dumps(report['stamp'])}")
    failed = 0
    for name in names:
        try:
            result = run_workload(name, args.seed, args.rows, args.seconds,
                                  bool(args.trace), setups, server_cpu)
        except (Refused, ServerDied, WireError) as exc:
            print(f"REFUSED {name}: {exc}", file=sys.stderr)
            return 3
        print_report(result, spec, bool(args.trace))
        report["workloads"].append(result)
        failed += result["failed"]
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(report) + "\n")
    if args.workload:
        # The contract's result object: last line of stdout.
        print(result_line(result, spec, bool(args.trace)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
