"""The traced pass: an outside-in, per-layer replay of the request stream.

After a workload's socket window, a fixed-size prefix of *the same
generated stream* is replayed in-process against a default-configured
``Session`` / ``PreferenceService`` over the same relations, warmed the
same way.  Each layer is timed from outside, by calling its public
function, and recorded as one span::

    {"id", "name", "start_ns", "end_ns", "parent", "request"}

The spans of one request share its index in ``request``; standalone
layer probes carry ``"probe"``.  A child layer is measured by calling
its public function directly on the same input (``psql.parse`` under
``service.build_query``, the kernel under ``query.execute``), so a
child's interval *follows* its parent's instead of nesting inside it;
``parent`` is what links them.  A layer's self time is its span minus
its children.  Nothing under ``src/`` is instrumented — spans inside the
program are a later issue — and end-to-end metrics never come from here.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from loadgen import Wire
from workloads import CHURN_VIEWS, Request, Row, Workload, view_query

from repro.algebra.equivalence import canonical_form, canonical_signature
from repro.engine.columnar import columnar_winnow
from repro.engine.columns import encode_axis
from repro.engineering.serialization import preference_from_dict
from repro.faults import plan as faults
from repro.psql.ast import Comparison
from repro.psql.parser import parse
from repro.query.algorithms import (
    ComparisonCounter,
    block_nested_loop,
    compatible_sort_key,
    sort_filter_skyline,
)
from repro.query.bmo import winnow
from repro.query.plan import ColumnarPreferenceSelect, PreferenceSelect
from repro.query.revision import classify_revision
from repro.server import protocol
from repro.server.server import run_in_thread
from repro.server.service import PreferenceService
from repro.server.views import ContinuousView, ViewSpec
from repro.session import Session
from repro.storage.snapshot import (
    encode_row,
    read_snapshot,
    relation_to_dict,
    write_snapshot,
)
from repro.storage.sqlite import SQLiteBackend
from repro.storage.wal import WriteAheadLog

now = time.perf_counter_ns

#: ``faults.check`` calls per probe span (one call is tens of ns).
FAULT_CHECKS = 100_000


class Tracer:
    """Spans kept in memory, written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        #: Exact counts made at the same boundaries as the spans.
        self.counts: dict[str, float] = {}

    @contextmanager
    def span(self, name: str, request: Any,
             parent: int | None = None) -> Iterator[int]:
        record = {"id": len(self.spans), "name": name, "request": request,
                  "parent": parent, "start_ns": 0, "end_ns": 0}
        self.spans.append(record)
        record["start_ns"] = now()
        try:
            yield record["id"]
        finally:
            record["end_ns"] = now()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def durations(self, name: str) -> list[int]:
        return [s["end_ns"] - s["start_ns"]
                for s in self.spans if s["name"] == name]

    def median_ns(self, name: str) -> float:
        """Median duration of the spans called ``name``; 0.0 when the
        workload never enters that layer."""
        values = self.durations(name)
        return statistics.median(values) if values else 0.0

    def write(self, path: Path, header: dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "counts": self.counts,
                       "spans": self.spans}, fh, separators=(",", ":"))


# -- building the traced service ----------------------------------------------


def warm(service: PreferenceService, warmup: list[Request]) -> None:
    """Apply the wire warm-up through the service's public methods."""
    for request in warmup:
        payload = request.payload
        op = payload["op"]
        if op == "profile":
            service.tenancy.set_profile(
                payload["tenant"], payload["name"], payload["prefer"]
            )
        elif op == "subscribe":
            service.materialize(payload["relation"], payload["prefer"])
        else:
            service.query(sql=payload.get("sql"), spec=payload.get("spec"),
                          tenant=payload.get("tenant"))


def _winnow_node(node: Any) -> Any:
    while node is not None:
        if isinstance(node, (PreferenceSelect, ColumnarPreferenceSelect)):
            return node
        node = getattr(node, "child", None)
    return None


def _label(algorithm: Any) -> str:
    return algorithm if isinstance(algorithm, str) else getattr(
        algorithm, "__name__", "")


# -- query replay -------------------------------------------------------------


def replay_query(tracer: Tracer, service: PreferenceService, index: int,
                 request: Request) -> None:
    line = b'{"id":%d,%s' % (index, request.body)
    span = tracer.span
    with span("request", index) as root:
        with span("protocol.decode", index, root):
            parsed = protocol.parse_request(protocol.decode_message(line))
        params = parsed.params
        sql, spec, tenant = (params.get(k) for k in ("sql", "spec", "tenant"))
        with span("service.query", index, root) as answered:
            answer = service.query(sql=sql, spec=spec, tenant=tenant)
        with span("protocol.encode", index, root):
            wire_bytes = sum(
                len(protocol.encode_message(m))
                for m in protocol.rows_chunks(
                    # elapsed_ns=0: its digits would make the byte
                    # count differ from run to run.
                    index, answer.rows, protocol.DEFAULT_CHUNK_ROWS,
                    source=answer.source, elapsed_ns=0,
                    relation=answer.relation,
                )
            )
    tracer.count("protocol.rows", len(answer.rows))
    tracer.count("protocol.bytes", wire_bytes)
    tracer.count(f"answers.{answer.source}")

    # Children of service.query, each re-measured on the same input.
    with span("service.build_query", index, answered) as built:
        q = service.build_query(sql, spec)
    if sql is not None:
        with span("psql.parse", index, built):
            parse(sql)
    elif "prefer" in spec:
        functions = dict(service.session.functions)
        with span("serialization.decode_pref", index, built):
            preference_from_dict(dict(spec["prefer"]), functions)
    if tenant is not None:
        with span("tenancy.compose", index, answered) as composed:
            q, _ = service.tenancy.compose(q, tenant)
        term = service.tenancy.profiles.resolve(tenant)
        with span("algebra.canonical_form", index, composed):
            canonical_signature(canonical_form(term))
    if answer.source == "view":
        view = service.views.get(ViewSpec(answer.relation, q.preference))
        with span("views.rows", index, answered):
            view.rows()
        return
    service.session.clear_plan_cache()
    with span("query.plan_cold", index, answered):
        plan = q.plan()
    with span("query.plan_cached", index, answered):
        q.plan()
    with span("query.execute", index, answered) as executed:
        result = plan.execute()
    tracer.count("query.rewrites_applied", len(plan.rewrites))
    node = _winnow_node(plan.root)
    if node is None:
        return
    candidates = node.child.execute()
    tracer.count("query.rows_examined", len(candidates))
    tracer.count("query.rows_returned", len(result))
    if isinstance(node, ColumnarPreferenceSelect):
        with span("kernel.columnar", index, executed):
            columnar_winnow(node.pref, candidates, node.strategy)
        return
    rows = candidates.rows()
    with span("kernel.row", index, executed):
        winnow(node.pref, rows, algorithm=node.algorithm)
    counter = ComparisonCounter()
    if _label(node.algorithm) in ("sfs", "sort_filter_skyline"):
        sort_filter_skyline(counter.wrap(node.pref), rows,
                            key=compatible_sort_key(node.pref))
    else:
        block_nested_loop(counter.wrap(node.pref), rows)
    tracer.count("kernel.row_comparisons", counter.comparisons)


# -- churn replay -------------------------------------------------------------


class _ChurnBench:
    """The durable traced service plus side instances of each layer a
    mutation passes through.  The side instances receive the same
    mutation, one layer at a time, so each layer's cost is measured by
    its own public function on the same input."""

    def __init__(self, rows: list[Row], directory: Path):
        self.service = PreferenceService(Session(
            storage="sqlite", data_dir=str(directory / "data")))
        self.service.session.register("car", rows)
        for view in CHURN_VIEWS:
            self.service.materialize("car", view)
        # A view-less memory session: the copy-on-write catalog cost.
        self.side = Session({"car": rows})
        self.events: list = []
        self.side.on_mutation(self.events.append)
        self.views = [
            ContinuousView(ViewSpec("car", preference_from_dict(v)))
            for v in CHURN_VIEWS
        ]
        relation = self.side.catalog.get("car")
        self.version = self.side.catalog.version("car")
        for view in self.views:
            view.seed(relation.rows(), self.version)
        self.wal = WriteAheadLog(directory / "probe.wal")  # default fsync
        self.mirror = SQLiteBackend()
        self.mirror.sync(relation, self.version)
        self.directory = directory

    def close(self) -> None:
        self.wal.close()
        self.mirror.close()
        self.service.close()
        self.service.session.close()


def replay_mutation(tracer: Tracer, bench: _ChurnBench, index: int,
                    request: Request) -> None:
    line = b'{"id":%d,%s' % (index, request.body)
    span = tracer.span
    service = bench.service
    with span("request", index) as root:
        with span("protocol.decode", index, root):
            parsed = protocol.parse_request(protocol.decode_message(line))
        params = parsed.params
        if parsed.op == "revise":
            with span("service.revise", index, root) as applied:
                summary = service.revise(
                    "car", params["prefer"], params["to"]).summary
        elif parsed.op == "insert":
            with span("service.insert", index, root) as applied:
                summary = service.insert("car", params["rows"])
        else:
            with span("service.delete", index, root) as applied:
                summary = service.delete("car", where=params["where"])
        with span("protocol.encode", index, root):
            protocol.encode_message(protocol.ok_response(index, **summary))

    if parsed.op == "revise":
        old = preference_from_dict(params["prefer"])
        new = preference_from_dict(params["to"])
        with span("revision.classify", index, applied):
            classify_revision(old, new)
        for view in bench.views:
            if view.spec.pref == old:
                view.revise(new)
        return
    if parsed.op == "insert":
        with span("session.insert_rows", index, applied):
            bench.side.insert_rows("car", params["rows"])
    else:
        key = params["where"][0][2]
        with span("session.delete_rows", index, applied):
            bench.side.delete_rows(
                "car", predicate=lambda row: row["oid"] == key)
    event = bench.events[-1]
    rows = event.inserted or event.deleted
    record = {"op": parsed.op, "name": "car", "version": event.version,
              "rows": [encode_row(dict(r)) for r in rows]}
    before = os.path.getsize(bench.wal.path)
    with span("storage.wal_append", index, applied):
        bench.wal.append(record)
    tracer.count("storage.wal_bytes",
                 os.path.getsize(bench.wal.path) - before)
    tracer.count("storage.user_bytes", sum(
        len(json.dumps(r, separators=(",", ":"))) for r in rows))
    if parsed.op == "insert":
        with span("storage.mirror_insert", index, applied):
            bench.mirror.insert("car", rows, event.version)
    else:
        bench.mirror.delete("car", rows, event.version)
    name = f"views.refresh_{parsed.op}"
    for view in bench.views:
        with span(name, index, applied):
            view.refresh(event)


def _storage_probes(tracer: Tracer, bench: _ChurnBench) -> None:
    """Snapshot write/read and one pushed-down prefilter, on the state
    the replayed mutations left behind."""
    relation = bench.side.catalog.get("car")
    version = bench.side.catalog.version("car")
    state = {"seq": bench.wal.last_seq,
             "relations": [relation_to_dict(relation, version)],
             "versions": {"car": version}, "views": [], "profiles": []}
    path = bench.directory / "probe-snapshot.json"
    for _ in range(3):
        with tracer.span("storage.snapshot_write", "probe"):
            write_snapshot(path, state)
        with tracer.span("storage.snapshot_read", "probe"):
            read_snapshot(path)
    tracer.counts["storage.snapshot_bytes"] = os.path.getsize(path)
    conjunct = Comparison("category", "=", "suv")
    for _ in range(5):
        with tracer.span("storage.prefilter", "probe"):
            bench.mirror.prefilter("car", [conjunct], version)


# -- standalone probes --------------------------------------------------------


def _probes(tracer: Tracer, workload: Workload, seed: int,
            relations: dict[str, list[Row]]) -> None:
    faults.deactivate()  # no plan armed: the production cost of a site
    for _ in range(5):
        with tracer.span("faults.check", "probe"):
            for _ in range(FAULT_CHECKS):
                faults.check("bench.probe")
    cars = relations["car"]
    prices = [row["price"] for row in cars]
    for _ in range(5):
        with tracer.span("engine.encode_axis", "probe"):
            encode_axis(prices)
    # Seeding cost of each distinct view the workload's warm-up creates:
    # one per subscription, one per query term sighted a second time.
    sightings: Counter = Counter()
    for request in workload.warmup(seed):
        payload = request.payload
        prefer = (payload.get("spec") or payload).get("prefer")
        if prefer is None or payload["op"] == "profile":
            continue
        pref = preference_from_dict(prefer)
        sightings[pref.signature] += 1
        if sightings[pref.signature] != (
                1 if payload["op"] == "subscribe" else 2):
            continue
        view = ContinuousView(ViewSpec("car", pref))
        with tracer.span("views.seed", "probe"):
            view.seed(cars, 1)


def sites_per_query(service: PreferenceService, request: Request) -> int:
    """``faults.check`` calls one wire query passes: an empty fault plan
    counts hits at every instrumented site and fires nothing."""
    handle = run_in_thread(service)
    try:
        wire = Wire(handle.port)
        wire.call(request.body)  # connection set-up stays outside the count
        with faults.FaultPlan() as plan:
            wire.call(request.body)
        wire.close()
    finally:
        handle.stop()
    return sum(plan.hits.values())


# -- entry point --------------------------------------------------------------


def run(workload: Workload, seed: int, relations: dict[str, list[Row]],
        scratch: Path) -> Tracer:
    """Replay ``workload.replay`` requests of connection 0's stream and
    run the layer probes; returns the filled tracer."""
    tracer = Tracer()
    stream = workload.stream(seed, 0)
    requests = [next(stream) for _ in range(workload.replay)]
    if workload.durable:
        bench = _ChurnBench(relations["car"], scratch)
        try:
            for index, request in enumerate(requests):
                replay_mutation(tracer, bench, index, request)
            _storage_probes(tracer, bench)
            for view in bench.views:
                stats = view.stats()
                tracer.count("views.refreshes", stats["refreshes"])
                tracer.count("views.rebuilds",
                             stats["maintenance"]["rebuilds"])
            revisions = bench.service.metrics.snapshot()["revisions"]
            tracer.counts["revision.full_fallbacks"] = (
                revisions["full_fallbacks"])
            tracer.counts["faults.sites_per_query"] = sites_per_query(
                bench.service, view_query(CHURN_VIEWS[0]))
        finally:
            bench.close()
    else:
        service = PreferenceService(Session(relations))
        try:
            warm(service, workload.warmup(seed))
            for index, request in enumerate(requests):
                replay_query(tracer, service, index, request)
            tracer.counts["faults.sites_per_query"] = sites_per_query(
                service, requests[0])
        finally:
            service.close()
    _probes(tracer, workload, seed, relations)
    return tracer
