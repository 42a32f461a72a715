"""Concurrent-access regression tests for the shared Session.

The preference server runs winnows on worker threads against one session;
the plan cache, the column-store cache, and catalog mutations must tolerate
that.  These tests hammer the three paths from many threads and assert the
caches stay coherent (no lost updates, no stale-version entries, no
exceptions)."""

from __future__ import annotations

import sys
import threading

from repro import HIGHEST, Session, pareto
from repro.core.base_numerical import LowestPreference
from repro.engine import backend as engine_backend


def _run_threads(n, target):
    errors: list[BaseException] = []

    def wrapped(i):
        try:
            target(i)
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not any(t.is_alive() for t in threads), "worker thread hung"
    assert not errors, errors


def test_concurrent_cached_plan_single_entry():
    rows = [{"x": i, "y": -i} for i in range(200)]
    session = Session({"r": rows})
    pref = pareto(HIGHEST("x"), HIGHEST("y"))
    barrier = threading.Barrier(8)
    results = []

    def worker(_):
        barrier.wait()
        q = session.query("r").prefer(pref)
        for _ in range(20):
            results.append(len(q.run()))

    _run_threads(8, worker)
    assert len(set(results)) == 1
    info = session.cache_info()
    # All same-key requests share one cached plan; early racers may each
    # have planned once, but the cache never holds duplicates.
    assert info.size == 1
    assert info.hits + info.misses == 8 * 20


def test_concurrent_column_store_shares_one_store():
    rows = [{"x": i} for i in range(100)]
    session = Session({"r": rows})
    stores = []
    barrier = threading.Barrier(8)

    def worker(_):
        barrier.wait()
        for _ in range(10):
            stores.append(session.column_store("r"))

    _run_threads(8, worker)
    assert len({id(s) for s in stores}) == 1


def test_first_readers_of_one_attribute_share_one_cached_object():
    """Two threads reading one attribute of a fresh snapshot at once each
    build it, but both get the object published first."""
    rows = [{"x": i % 17, "y": -i} for i in range(500)]
    np = engine_backend.get_numpy()
    reads = {
        "values": lambda store: store.column("x"),
        "chain": lambda store: store.chain_codes("x", np),
        "weak": lambda store: store.weak_identity("x", np),
        "array": lambda store: store.array("x", np),
    }
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            session = Session({"r": rows})
            seen: dict[str, list] = {name: [] for name in reads}
            barrier = threading.Barrier(2)

            def worker(_):
                barrier.wait()
                for name, read in reads.items():
                    if name == "array" and np is None:
                        continue
                    seen[name].append(read(session.column_store("r")))

            _run_threads(2, worker)
            for name, objects in seen.items():
                assert len({id(o) for o in objects}) <= 1, name
    finally:
        sys.setswitchinterval(old)


def test_concurrent_queries_and_mutations_stay_coherent():
    session = Session({"r": [{"x": 0}]})
    pref = LowestPreference("x")
    stop = threading.Event()

    def mutator(i):
        for j in range(15):
            event = session.insert_rows("r", [{"x": 100 * i + j + 1}])
            assert event.version > 1
        stop.set()

    def reader(i):
        if i == 0:
            return mutator(i)
        while not stop.is_set():
            result = session.query("r").prefer(pref).run()
            # The minimum row never leaves: mutations only add larger x.
            assert [r["x"] for r in result.rows()] == [0]
            session.column_store("r")

    _run_threads(6, reader)
    # Readers racing the last mutation may have parked a plan keyed at a
    # superseded version; eager invalidation trims every stale artifact.
    session.invalidate("r")
    final = session.catalog.version("r")
    assert all(k[2] == final for k in session._plan_cache)
    assert [r["x"] for r in session.query("r").prefer(pref).run().rows()] == [0]


def test_mutation_hooks_fire_in_version_order():
    # Hook delivery happens under the session's mutation lock, so even
    # fully concurrent mutators produce a strictly increasing version
    # stream at the hooks — the invariant continuous views rely on.
    session = Session({"r": [{"x": 0}]})
    seen = []
    session.on_mutation(lambda e: seen.append(e.version))

    def worker(i):
        for _ in range(10):
            session.insert_rows("r", [{"x": i}])

    _run_threads(4, worker)
    assert seen == sorted(seen) and len(seen) == 40
    assert seen == list(range(2, 42))


def test_off_mutation_detaches_hook():
    session = Session({"r": [{"x": 0}]})
    seen = []
    hook = session.on_mutation(lambda e: seen.append(e.version))
    session.insert_rows("r", [{"x": 1}])
    session.off_mutation(hook)
    session.off_mutation(hook)  # idempotent
    session.insert_rows("r", [{"x": 2}])
    assert len(seen) == 1


def test_insert_rows_accepts_an_iterator():
    session = Session({"r": [{"x": 0}]})
    events = []
    session.on_mutation(events.append)
    event = session.insert_rows("r", (dict(x=i) for i in (1, 2)))
    assert event.inserted == ({"x": 1}, {"x": 2})
    assert events[0].inserted == ({"x": 1}, {"x": 2})
    assert len(session.catalog.get("r")) == 3
