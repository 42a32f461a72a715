#!/usr/bin/env python
"""Chaos smoke: a seeded fault-plan sweep over every injected failure class.

Five deterministic scenarios, one per failure surface the robustness
layer protects:

1. **storage outage** — injected engine failures trip the circuit
   breaker; query answers stay byte-identical to a healthy oracle, and
   the reseal replays every missed mutation into the mirror;
2. **WAL torn write** — a crash mid-append leaves a truncated frame; a
   restart heals the tail and serves exactly the acknowledged prefix;
3. **refresh poison** — an injected view-refresh failure quarantines
   one view; subscribers get a structured error delta, queries fall
   back to exact planning with identical answers, and re-subscribing
   heals the stream;
4. **slow subscriber** — a subscriber that stops reading is
   disconnected at the write-buffer cap (counted as shed) without
   stalling the mutator, or a client revising the stalled subscriber's
   view;
5. **SIGKILL during checkpoint** — the server dies mid-checkpoint (a
   fault-plan delay holds it inside the critical section); the restart
   recovers the exact pre-kill state and live deltas resume.

Every scenario asserts *parity against the batch winnow* and
*structured shedding* — never a hang, never a silently wrong answer.

Run from the repo root (CI's ``chaos-smoke`` job)::

    PYTHONPATH=src python tools/chaos_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.faults.plan import FaultPlan, FaultRule, InjectedFault  # noqa: E402
from repro.psql.ast import Comparison  # noqa: E402
from repro.server import (  # noqa: E402
    ClientError,
    PreferenceClient,
    PreferenceService,
    run_in_thread,
)
from repro.session import Session  # noqa: E402
from repro.storage.sqlite import SQLiteBackend  # noqa: E402

SQL = "SELECT * FROM car PREFERRING LOWEST(price)"

CARS = [
    {"make": "opel", "price": 20_000.0, "power": 50},
    {"make": "bmw", "price": 30_000.0, "power": 52},
    {"make": "vw", "price": 10_000.0, "power": 48},
]


def canon(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


def scenario_storage_outage() -> str:
    """Breaker trips, answers stay exact, reseal replays the mirror."""
    sqlite = Session({"car": [dict(r) for r in CARS]},
                     storage=SQLiteBackend())
    oracle = Session({"car": [dict(r) for r in CARS]}, storage="memory")
    try:
        guard = sqlite.storage.backend
        guard.breaker.reset_timeout = 0.0  # probe immediately
        extra = [{"make": "opel", "price": 5_000.0 + i, "power": 99}
                 for i in range(guard.breaker.threshold)]
        with FaultPlan([FaultRule("storage.insert",
                                  times=len(extra))], seed=11):
            for row in extra:
                sqlite.insert_rows("car", [dict(row)])
        for row in extra:
            oracle.insert_rows("car", [dict(row)])
        assert guard.breaker.state != "closed", guard.breaker.state
        assert canon(sqlite.sql(SQL).rows()) == canon(oracle.sql(SQL).rows())
        # Reseal: the next clean mutation probes and replays the mirror.
        sqlite.insert_rows("car", [{"make": "vw", "price": 50_000.0,
                                    "power": 60}])
        oracle.insert_rows("car", [{"make": "vw", "price": 50_000.0,
                                    "power": 60}])
        stats = guard.stats()
        assert stats["breaker"]["state"] == "closed", stats
        assert stats["breaker"]["counts"]["resealed"] == 1, stats
        assert stats["dirty"] == [], stats
        mirrored = guard.prefilter(
            "car", [Comparison("power", ">=", 0)],
            sqlite.catalog.version("car"))
        assert mirrored == sqlite.catalog.get("car").rows()
        assert canon(sqlite.sql(SQL).rows()) == canon(oracle.sql(SQL).rows())
        return (f"breaker opened after {len(extra)} failures, resealed, "
                f"{len(mirrored)} rows replayed into the mirror")
    finally:
        sqlite.close()
        oracle.close()


def scenario_wal_torn_write() -> str:
    """A torn append never surfaces as data: restart serves the prefix."""
    data_dir = tempfile.mkdtemp(prefix="chaos_wal_")
    try:
        session = Session({"car": [dict(r) for r in CARS]},
                          data_dir=data_dir)
        session.insert_rows("car", [{"make": "vw", "price": 1_000.0,
                                     "power": 10}])
        acknowledged = session.catalog.get("car").rows()
        torn = False
        with FaultPlan([FaultRule("wal.append", action="torn",
                                  fraction=0.3)], seed=11):
            try:
                session.insert_rows("car", [{"make": "audi",
                                             "price": 2_000.0,
                                             "power": 20}])
            except InjectedFault:
                torn = True
        assert torn, "torn-write fault did not fire"
        session.storage.wal.close()
        session.storage.backend.close()

        reborn = Session(data_dir=data_dir)
        try:
            recovery = reborn.storage.recovery
            assert recovery["healed_torn_tail"] is True, recovery
            assert reborn.catalog.get("car").rows() == acknowledged
            return (f"torn tail healed, {len(acknowledged)} acknowledged "
                    f"rows recovered exactly")
        finally:
            reborn.close()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def scenario_refresh_poison() -> str:
    """One poisoned view: error delta, exact fallback, heal on re-sub."""
    service = PreferenceService({"car": [dict(r) for r in CARS]})
    handle = run_in_thread(service)
    try:
        prefer = {"type": "lowest", "attribute": "price"}
        with PreferenceClient(port=handle.port) as client:
            sub = client.subscribe("car", prefer=prefer, snapshot=True)
            with FaultPlan([FaultRule("view.refresh", times=1)], seed=11):
                client.insert("car", [{"make": "a", "price": 1.0,
                                       "power": 1}])
            delta = client.wait_delta(timeout=15)
            assert "error" in delta, f"no error delta: {delta}"
            # Parity: the poisoned view never answers; planning does.
            info = client.query_info(spec={"relation": "car",
                                           "prefer": prefer})
            assert info["source"] == "plan", info["source"]
            batch = service.session.sql(SQL).rows()
            assert canon(info["rows"]) == canon(batch)
            health = client.health()
            assert health["status"] == "degraded", health
            # Re-subscribing heals the view and the stream resumes.
            client.unsubscribe(sub["subscription"])
            sub = client.subscribe("car", prefer=prefer, snapshot=True)
            assert canon(sub["rows"]) == canon(batch)
            client.insert("car", [{"make": "b", "price": 0.5, "power": 1}])
            delta = client.wait_delta(timeout=15)
            assert delta.get("enter"), f"stream did not resume: {delta}"
            assert client.health()["status"] == "ok"
            healed = service.metrics.snapshot()
            assert healed["views_poisoned"] == 1, healed
            assert healed["views_healed"] == 1, healed
        return "poisoned view reported, answers stayed exact, heal verified"
    finally:
        handle.stop()
        service.close()


def scenario_slow_subscriber() -> str:
    """A non-draining subscriber is shed; neither a mutator nor a client
    revising its view ever stalls on it."""
    lowest = {"type": "lowest", "attribute": "price"}
    highest = {"type": "highest", "attribute": "price"}
    blob = "z" * (512 * 1024)
    service = PreferenceService({"item": [
        {"price": 100.0 + i, "pad": blob} for i in range(4)
    ]})
    handle = run_in_thread(service, write_buffer_cap=64 * 1024)
    try:
        # Revisions first: each pushes two padded rows to the stalled
        # subscriber, which must be shed while the reviser is answered.
        with PreferenceClient(port=handle.port) as subscriber, \
                PreferenceClient(port=handle.port, timeout=5) as reviser:
            subscriber.subscribe("item", prefer=lowest)
            terms = [lowest, highest]
            shed = {}
            for r in range(16):
                reviser.revise(
                    "item", prefer=terms[r % 2], to=terms[(r + 1) % 2]
                )
                shed = reviser.metrics()["shed"]
                if shed.get("slow_subscriber"):
                    break
            assert shed.get("slow_subscriber", 0) >= 1, shed
            if r % 2 == 0:  # leave the view at LOWEST for the inserts
                reviser.revise("item", prefer=highest, to=lowest)
        with PreferenceClient(port=handle.port) as subscriber, \
                PreferenceClient(port=handle.port) as mutator:
            subscriber.subscribe("item", prefer=lowest)
            start = time.monotonic()
            shed = {}
            for i in range(40):
                mutator.insert("item", [{"price": 99.0 - i, "pad": blob}])
                shed = mutator.metrics()["shed"]
                if shed.get("slow_subscriber", 0) >= 2:
                    break
            elapsed = time.monotonic() - start
            assert shed.get("slow_subscriber", 0) >= 2, shed
            assert mutator.ping()["pong"] is True
        return (f"subscriber shed after {r + 1} revisions, and after "
                f"{i + 1} pushes in {elapsed:.2f}s; reviser and mutator "
                "unaffected")
    finally:
        handle.stop()
        service.close()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _start_server(data_dir: str, port: int,
                  fault_plan: dict | None = None) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO / 'src'}{os.pathsep}" + env.get(
        "PYTHONPATH", ""
    )
    env.pop("REPRO_FAULT_PLAN", None)
    if fault_plan is not None:
        env["REPRO_FAULT_PLAN"] = json.dumps(fault_plan)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.server",
         "--port", str(port), "--cars", "200",
         "--storage", "sqlite", "--data-dir", data_dir],
        cwd=REPO, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def _wait_ready(port: int, process: subprocess.Popen,
                timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            output = process.stdout.read() if process.stdout else ""
            raise SystemExit(f"server died during startup:\n{output}")
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=1):
                return
        except OSError:
            time.sleep(0.1)
    raise SystemExit(f"server on port {port} not ready after {timeout}s")


def scenario_sigkill_during_checkpoint() -> str:
    """SIGKILL inside the checkpoint critical section: exact recovery."""
    data_dir = tempfile.mkdtemp(prefix="chaos_ckpt_")
    plan = {"seed": 11, "rules": [{"site": "storage.checkpoint",
                                   "action": "delay", "delay_ms": 8000}]}
    port = _free_port()
    server = _start_server(data_dir, port, fault_plan=plan)
    try:
        _wait_ready(port, server)
        with PreferenceClient(port=port) as client:
            template = dict(client.query(
                spec={"relation": "car", "select": None})[0])
            client.insert("car", [dict(template, oid=7_000_001,
                                       price=12345)])
            pre_relations = {r["name"]: (r["rows"], r["version"])
                             for r in client.relations()}
            pre_best = client.query(sql=SQL)
            # Fire the checkpoint without waiting: the fault plan holds
            # the server inside it for 8s; we kill it there.
            client._sock.sendall(
                b'{"id": 999, "op": "checkpoint"}\n'
            )
            time.sleep(1.0)
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=30)

        server = _start_server(data_dir, port)
        _wait_ready(port, server)
        with PreferenceClient(port=port) as client:
            health = client.health()
            assert health["status"] == "ok", health
            post_relations = {r["name"]: (r["rows"], r["version"])
                              for r in client.relations()}
            assert post_relations == pre_relations, (
                f"pre:  {pre_relations}\npost: {post_relations}")
            assert canon(client.query(sql=SQL)) == canon(pre_best)
            # Live deltas flow on the recovered catalog.
            client.subscribe("car", prefer={"type": "lowest",
                                            "attribute": "price"})
            client.insert("car", [dict(template, oid=7_000_002,
                                       price=1)])
            delta = client.wait_delta(timeout=15)
            assert delta.get("enter"), f"no post-recovery delta: {delta}"
        return (f"killed mid-checkpoint, "
                f"{pre_relations['car'][0]} rows at exact versions, "
                f"live deltas after recovery")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)
        shutil.rmtree(data_dir, ignore_errors=True)


SCENARIOS = [
    ("storage-outage", scenario_storage_outage),
    ("wal-torn-write", scenario_wal_torn_write),
    ("refresh-poison", scenario_refresh_poison),
    ("slow-subscriber", scenario_slow_subscriber),
    ("sigkill-checkpoint", scenario_sigkill_during_checkpoint),
]


def main(argv: list[str] | None = None) -> int:
    only = set(argv or sys.argv[1:])
    failures = 0
    for name, scenario in SCENARIOS:
        if only and name not in only:
            continue
        started = time.monotonic()
        try:
            detail = scenario()
        except (AssertionError, ClientError, SystemExit) as exc:
            failures += 1
            print(f"FAIL {name}: {exc}", file=sys.stderr)
            continue
        elapsed = time.monotonic() - started
        print(f"PASS {name} ({elapsed:.2f}s): {detail}")
    if failures:
        print(f"chaos smoke: {failures} scenario(s) failed",
              file=sys.stderr)
        return 1
    print("chaos smoke passed: every fault class degraded loudly "
          "and recovered exactly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
