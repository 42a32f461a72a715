#!/usr/bin/env python
"""Multi-tenant smoke: 200 users, shared views, isolation, SIGKILL recovery.

Boots ``python -m repro.server`` on the SQLite backend with a durable
data directory and drives it over the wire with ~200 simulated tenants
whose profiles overlap (syntactic variants of a small pool of canonical
preference shapes), under mixed traffic — profiled queries, profile
revisions (live view migration), and subscriptions.  Asserts:

* the canonicalized shared-view index collapses the variants: the
  tenant view-hit rate stays high and the registry stays at one view
  per equivalence class, anonymous spellings included,
* an anonymous subscription keeps its delta stream while tenant
  profiles over further shapes push the shared index past its
  capacity (a live subscription pins its view),
* tenant isolation: one tenant's revisions and deletions never change
  another tenant's answers, and migration deltas only reach the
  revising tenant's subscriptions,
* nothing outlives its connection: once every client has disconnected,
  ``subscriptions``, ``tenancy.subscriptions``, ``shared_views.pinned``
  and every tenant slot's ``subscriptions`` read 0,
* clean profile recovery: after SIGKILL (no shutdown hooks) and a
  restart from the same data directory, every sampled tenant's profile
  version and query answer are exactly the pre-kill state.

Run from the repo root (CI's ``tenancy-smoke`` job)::

    PYTHONPATH=src python tools/tenancy_smoke.py
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

N_USERS = 200
N_SHAPES = 8
#: Tenants with one further shape each, beyond ``--shared-view-cap 32``.
N_FLOOD = 40


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(data_dir: str, port: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO / 'src'}{os.pathsep}" + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.server",
         "--port", str(port), "--cars", "500",
         "--storage", "sqlite", "--data-dir", data_dir,
         "--shared-view-cap", "32"],
        cwd=REPO, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def wait_ready(port: int, process: subprocess.Popen,
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


def canon(rows: list[dict]) -> list[tuple]:
    return sorted(tuple(sorted(r.items())) for r in rows)


def shape_variants(i: int) -> list[dict]:
    """Three Definition-13-equivalent spellings of canonical shape ``i``."""
    around = {"type": "around", "attribute": "price", "z": 20_000 + 5_000 * i}
    hi_hp = {"type": "highest", "attribute": "horsepower"}
    return [
        {"type": "pareto", "children": [around, hi_hp]},
        {"type": "pareto", "children": [hi_hp, around]},
        {"type": "pareto", "children": [around, hi_hp, around]},
    ]


def subscription_counts(metrics: dict) -> dict[str, int]:
    """Every subscription count `/metrics` reports, by name."""
    tenancy = metrics["tenancy"]
    counts = {
        "subscriptions": metrics["subscriptions"],
        "tenancy.subscriptions": tenancy["subscriptions"],
        "shared_views.pinned": tenancy["shared_views"]["pinned"],
    }
    for tenant, slot in tenancy["tenants"]["tenants"].items():
        counts[f"tenants.{tenant}.subscriptions"] = slot["subscriptions"]
    return counts


def await_released(port: int, timeout: float = 10.0) -> dict[str, int]:
    """Poll until the server has processed every disconnect; returns
    the counts still non-zero (empty: all released)."""
    from repro.server.client import PreferenceClient

    deadline = time.monotonic() + timeout
    with PreferenceClient(port=port, timeout=60) as client:
        while True:
            counts = subscription_counts(client.metrics())
            held = {name: n for name, n in counts.items() if n}
            if not held or time.monotonic() > deadline:
                return held
            time.sleep(0.05)


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.server.client import PreferenceClient

    rng = random.Random(42)
    data_dir = tempfile.mkdtemp(prefix="tenancy_smoke_")
    port = free_port()
    server = start_server(data_dir, port)
    failures: list[str] = []
    try:
        wait_ready(port, server)
        pre_kill: dict[str, tuple[int, list[tuple]]] = {}
        with PreferenceClient(port=port, timeout=60) as client:
            # -- mixed traffic: profile + query for every tenant ---------
            for user in range(N_USERS):
                tenant = f"user-{user}"
                shape = user % N_SHAPES
                client.profile_set(
                    "deal", rng.choice(shape_variants(shape)),
                    tenant=tenant,
                )
                rows = client.query(spec={"relation": "car"}, tenant=tenant)
                if not rows:
                    failures.append(f"{tenant}: empty answer")
            # ...and a revision wave: every 8th tenant moves one shape
            # over, migrating onto views the fleet already maintains.
            for user in range(0, N_USERS, 8):
                tenant = f"user-{user}"
                shape = (user + 1) % N_SHAPES
                client.profile_set(
                    "deal", rng.choice(shape_variants(shape)),
                    tenant=tenant,
                )
                client.query(spec={"relation": "car"}, tenant=tenant)

            # -- shared-view collapse + hit rate -------------------------
            tenancy = client.metrics()["tenancy"]
            entries = tenancy["shared_views"]["entries"]
            if entries != N_SHAPES:
                failures.append(
                    f"expected {N_SHAPES} canonical views, index holds "
                    f"{entries}"
                )
            hit_rate = tenancy["tenants"]["view_hit_rate"]
            if hit_rate < 0.85:
                failures.append(
                    f"tenant view-hit rate {hit_rate} < 0.85"
                )
            # Anonymous spellings key the tenants' canonical views: two
            # sightings of each materialize nothing new.
            for _ in range(2):
                for shape in range(N_SHAPES):
                    for variant in shape_variants(shape):
                        client.query(spec={"relation": "car",
                                           "prefer": variant})
            views = len(client.metrics()["views"])
            if views != N_SHAPES:
                failures.append(
                    f"anonymous spellings: expected {N_SHAPES} views in "
                    f"the registry, found {views}"
                )

            # -- isolation: a revising neighbour never moves my answer ---
            victim, noisy = "user-3", "user-11"  # same shape pool
            before = canon(client.query(
                spec={"relation": "car"}, tenant=victim
            ))
            client.profile_set(
                "deal", {"type": "lowest", "attribute": "mileage"},
                tenant=noisy,
            )
            client.profile_delete(tenant=noisy)
            after = canon(client.query(
                spec={"relation": "car"}, tenant=victim
            ))
            if before != after:
                failures.append(
                    f"{victim}'s answer changed when {noisy} revised: "
                    f"{len(before)} rows -> {len(after)} rows"
                )

        # Migration deltas reach only the revising tenant's stream.
        with PreferenceClient(port=port, timeout=60) as alice, \
                PreferenceClient(port=port, timeout=60) as bob:
            alice.login("user-20")
            bob.login("user-28")  # same canonical shape as user-20
            alice.subscribe("car")
            bob.subscribe("car")
            alice.profile_set(
                "deal", {"type": "highest", "attribute": "price"}
            )
            delta = alice.wait_delta(timeout=15)
            if not (delta.get("enter") or delta.get("exit")):
                failures.append(f"revising tenant saw no migration: {delta}")
            leaked = bob.deltas(timeout=0.5)
            if leaked:
                failures.append(
                    f"migration delta leaked to another tenant: {leaked}"
                )

        # An anonymous subscriber outlives the LRU pass over its view.
        with PreferenceClient(port=port, timeout=60) as anon, \
                PreferenceClient(port=port, timeout=60) as client:
            anon.subscribe("car", prefer=shape_variants(0)[1])
            for k in range(N_FLOOD):
                tenant = f"flood-{k}"
                client.profile_set(
                    "deal", shape_variants(N_SHAPES + k)[0], tenant=tenant
                )
                client.query(spec={"relation": "car"}, tenant=tenant)
            row = dict(client.query(spec={"relation": "car", "limit": 1})[0])
            row.update(oid=10**9, price=20_000, horsepower=10**6)
            client.insert("car", [row])
            try:
                delta = anon.wait_delta(timeout=15)
                if not delta.get("enter"):
                    failures.append(f"anonymous subscriber delta: {delta}")
            except Exception as exc:  # a silenced stream times out
                failures.append(f"anonymous subscriber silenced: {exc}")

        # -- every client has disconnected: nothing is held any more ----
        held = await_released(port)
        if held:
            failures.append(f"subscriptions outlived their clients: {held}")

        # -- record, SIGKILL, restart, verify recovery -------------------
        with PreferenceClient(port=port, timeout=60) as client:
            for user in range(0, N_USERS, 13):
                tenant = f"user-{user}"
                version = client.profile_get(tenant=tenant)["version"]
                rows = canon(client.query(
                    spec={"relation": "car"}, tenant=tenant
                ))
                pre_kill[tenant] = (version, rows)

        server.send_signal(signal.SIGKILL)
        server.wait(timeout=30)
        print(f"killed server pid={server.pid}; restarting from {data_dir}")
        server = start_server(data_dir, port)
        wait_ready(port, server)

        with PreferenceClient(port=port, timeout=60) as client:
            profiles = client.metrics()["tenancy"]["profiles"]
            # One tenant deleted its profile; the flood tenants added theirs.
            if profiles != N_USERS - 1 + N_FLOOD:
                failures.append(
                    f"recovered {profiles} profiles, "
                    f"expected {N_USERS - 1 + N_FLOOD}"
                )
            for tenant, (version, rows) in pre_kill.items():
                got_version = client.profile_get(tenant=tenant)["version"]
                if got_version != version:
                    failures.append(
                        f"{tenant}: recovered profile version "
                        f"{got_version} != pre-kill {version}"
                    )
                got_rows = canon(client.query(
                    spec={"relation": "car"}, tenant=tenant
                ))
                if got_rows != rows:
                    failures.append(
                        f"{tenant}: post-restart answer diverged "
                        f"({len(got_rows)} vs {len(rows)} rows)"
                    )
    finally:
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=15)
            except subprocess.TimeoutExpired:
                server.kill()
        shutil.rmtree(data_dir, ignore_errors=True)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"tenancy smoke passed: {N_USERS} tenants, {N_SHAPES} shared "
          f"views, hit rate {hit_rate}, isolation + SIGKILL recovery ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
