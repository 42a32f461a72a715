"""Prepared request lines: a repeated ``query`` line skips decoding,
parsing and resolution, and is answered exactly as a fresh one.

The property drives one served service over a raw socket and a twin
service in process through the same operations; every wire answer must
equal the twin's ``PreferenceService.query`` of the same request at that
moment — rows, order and source, or the same error.  The spy tests pin
what a hit skips and what it still does.
"""

import json
import re
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import plan as faults
from repro.server import PreferenceService, protocol, run_in_thread
from repro.server import server as server_module
from repro.server import service as service_module
from repro.server.service import ServiceError
from repro.tenancy.profiles import TenancyError

ROWS = [
    {"oid": i, "price": (i * 37) % 23, "age": (i * 11) % 7, "score": i % 5}
    for i in range(24)
]

LOW_PRICE = {"type": "lowest", "attribute": "price"}
HIGH_AGE = {"type": "highest", "attribute": "age"}
HIGH_SCORE = {"type": "highest", "attribute": "score"}

SPECS = [
    {"relation": "car", "prefer": LOW_PRICE},
    {"relation": "car",
     "prefer": {"type": "pareto", "children": [LOW_PRICE, HIGH_AGE]}},
    {"relation": "car",
     "prefer": {"type": "score", "attributes": ["price"], "function": "f"}},
    {"relation": "car"},
    {"relation": "car", "where": [["score", ">", 1]], "prefer": HIGH_AGE},
]

TERMS = [
    HIGH_AGE,
    {"type": "pareto", "children": [HIGH_SCORE, LOW_PRICE]},
    {"type": "lowest", "attribute": "age"},
]

FUNCTIONS = [lambda v: -v, lambda v: v * v]

#: Relation contents a re-registration installs: the original, one
#: without ``age`` (a new schema), one with the ages reversed.
SCHEMAS = [
    ROWS,
    [{k: v for k, v in r.items() if k != "age"} for r in ROWS],
    [{**r, "age": 6 - r["age"]} for r in ROWS],
]


def _service():
    return PreferenceService(
        {"car": [dict(r) for r in ROWS]}, functions={"f": FUNCTIONS[0]}
    )


class _Wire:
    """A raw socket to the server: exact request lines in, messages out."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.file = self.sock.makefile("rb")

    def send(self, line: bytes):
        self.sock.sendall(line)
        messages = []
        while True:
            message = json.loads(self.file.readline())
            messages.append(message)
            if not message.get("ok") or message.get("done") or (
                message.get("kind") != "rows"
            ):
                return messages

    def close(self):
        self.send(b'{"id":0,"op":"close"}\n')
        self.file.close()
        self.sock.close()


def _line(params, rid, variant):
    """``params`` as a request line, its id spelled per ``variant``."""
    body = json.dumps({"op": "query", **params}, separators=(",", ":"))
    if variant == "leading":
        return b'{"id":%d,%s\n' % (rid, body[1:].encode())
    if variant == "trailing":
        return body[:-1].encode() + b',"id":%d}\n' % rid
    if variant == "string":
        return b'{"id":"%d",%s\n' % (rid, body[1:].encode())
    if variant == "duplicate":  # json.loads keeps the later member
        return b'{"id":%d,%s,"id":7}\n' % (rid, body[1:-1].encode())
    assert variant == "negative-zero"
    return b'{"id":-0,%s\n' % body[1:].encode()


def _twin_answer(twin, params, tenant):
    try:
        answer = twin.query(
            sql=params.get("sql"), spec=params.get("spec"),
            tenant=params.get("tenant", tenant), term=params.get("term"),
        )
    except (ServiceError, TenancyError) as exc:
        return ("error", str(exc))
    except Exception as exc:
        return ("error", f"internal error: {exc}")
    return ("ok", answer.rows, answer.source)


def _wire_answer(messages):
    last = messages[-1]
    if not last["ok"]:
        return ("error", last["error"])
    rows = [row for message in messages for row in message["rows"]]
    return ("ok", rows, last["source"])


QUERY = st.tuples(
    st.just("query"),
    st.integers(0, len(SPECS) - 1),
    st.sampled_from(
        ["leading"] * 6 + ["trailing", "string", "duplicate", "negative-zero"]
    ),
    st.sampled_from([None, None, "alice", "bob"]),
)

OPS = st.one_of(
    QUERY, QUERY, QUERY, QUERY,
    st.tuples(st.just("login"), st.sampled_from(["alice", "bob"])),
    st.tuples(
        st.sampled_from(["profile_set", "profile_merge"]),
        st.sampled_from(["alice", "bob"]),
        st.integers(0, len(TERMS) - 1),
    ),
    st.tuples(st.just("profile_delete"), st.sampled_from(["alice", "bob"])),
    st.tuples(st.just("function"), st.integers(0, len(FUNCTIONS) - 1)),
    st.tuples(st.just("reregister"), st.integers(0, len(SCHEMAS) - 1)),
    st.tuples(st.just("drop")),
    st.tuples(st.just("insert"), st.integers(0, 30), st.integers(0, 6)),
    st.tuples(st.just("delete"), st.integers(0, 30)),
)


def _apply(service, op):
    """One non-query operation, applied in process."""
    kind = op[0]
    if kind in ("profile_set", "profile_merge"):
        tenant, term = op[1], TERMS[op[2]]
        if kind == "profile_set":
            service.tenancy.set_profile(tenant, "t", term)
        else:
            service.tenancy.merge_profile(tenant, {"t": term}, default="t")
    elif kind == "profile_delete":
        if service.tenancy.profiles.get(op[1]) is not None:
            service.tenancy.delete_profile(op[1])
    elif kind == "function":
        service.session.register_function("f", FUNCTIONS[op[1]])
    elif kind == "reregister":
        service.session.register(
            "car", [dict(r) for r in SCHEMAS[op[1]]], replace=True
        )
    elif kind == "drop":
        if "car" in service.session.catalog:
            service.session.catalog.drop("car")
    elif kind == "insert":
        if "car" in service.session.catalog:
            row = {**ROWS[0], "oid": 100 + op[1], "price": op[1],
                   "age": op[2]}
            schema = service.session.catalog.get("car").schema
            service.insert("car", [
                {k: v for k, v in row.items() if k in schema}
            ])
    elif kind == "delete":
        if "car" in service.session.catalog:
            service.delete("car", where=[["price", "=", op[1]]])


class TestSequenceProperty:
    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(OPS, min_size=8, max_size=40))
    def test_every_answer_is_a_fresh_resolution(self, ops):
        served, twin = _service(), _service()
        handle = run_in_thread(served)
        wire = _Wire(handle.port)
        tenant = None
        try:
            # Each query op is sent three times, so lines are admitted
            # and then hit between the operations that move the guard.
            for rid, op in enumerate(ops):
                if op[0] == "login":
                    tenant = op[1]
                    reply = wire.send(
                        b'{"id":%d,"op":"login","tenant":"%s"}\n'
                        % (rid, tenant.encode())
                    )
                    assert reply[-1]["ok"]
                    continue
                if op[0] != "query":
                    _apply(served, op)
                    _apply(twin, op)
                    continue
                _, spec, variant, explicit = op
                params = {"spec": SPECS[spec]}
                if explicit is not None:
                    params["tenant"] = explicit
                for repeat in range(3):
                    line = _line(params, 1000 * rid + repeat, variant)
                    messages = wire.send(line)
                    expected = json.loads(line)["id"]
                    assert {m["id"] for m in messages} == {expected}
                    assert _wire_answer(messages) == _twin_answer(
                        twin, params, tenant
                    )
        finally:
            wire.close()
            handle.stop()
            served.close()
            twin.close()


@pytest.fixture
def served():
    service = _service()
    handle = run_in_thread(service)
    wire = _Wire(handle.port)
    yield handle.server, wire
    wire.close()
    handle.stop()
    service.close()


def _oids(rows):
    return sorted(r["oid"] for r in rows)


def _query_line(rid, spec=SPECS[1], **fields):
    return _line({"spec": spec, **fields}, rid, "leading")


class TestHitPath:
    def test_a_repeated_line_is_neither_decoded_nor_resolved(
        self, served, monkeypatch
    ):
        server, wire = served
        for rid in range(2):  # second sighting: admitted
            wire.send(_query_line(rid))
        calls = []
        decode, resolve = protocol.decode_message, server.service.resolve
        monkeypatch.setattr(
            protocol, "decode_message",
            lambda line: calls.append("decode") or decode(line),
        )
        monkeypatch.setattr(
            server.service, "resolve",
            lambda *a, **k: calls.append("resolve") or resolve(*a, **k),
        )
        for rid in range(2, 6):
            assert wire.send(_query_line(rid))[-1]["id"] == rid
        assert calls == []
        assert server.prepared.stats() == {
            "hits": 4, "misses": 2, "admissions": 1, "entries": 1,
        }

    def test_a_hit_answers_the_bytes_a_miss_does(self, served):
        server, wire = served
        raw = []
        for _ in range(3):  # plan, view miss (admitted), view hit
            wire.sock.sendall(_query_line(7))
            raw.append(re.sub(rb'"elapsed_ns":\d+', b"", wire.file.readline()))
        assert server.prepared.stats()["hits"] == 1
        assert raw[1] == raw[2]

    def test_inserts_and_deletes_keep_the_entry(self, served, monkeypatch):
        server, wire = served
        for rid in range(2):
            wire.send(_query_line(rid))
        resolved = []
        resolve = server.service.resolve
        monkeypatch.setattr(
            server.service, "resolve",
            lambda *a, **k: resolved.append(1) or resolve(*a, **k),
        )
        server.service.insert(
            "car", [{**ROWS[0], "oid": 99, "price": -1, "age": 7}]
        )
        rows = wire.send(_query_line(2))[-1]["rows"]
        assert [r["oid"] for r in rows] == [99]
        server.service.delete("car", where=[["oid", "=", 99]])
        wire.send(_query_line(3))
        assert resolved == []

    def test_a_moved_guard_is_a_miss_and_readmits(self, served):
        server, wire = served
        for rid in range(2):
            wire.send(_query_line(rid, tenant="alice"))
        server.service.tenancy.set_profile("alice", "t", HIGH_SCORE)
        after = wire.send(_query_line(2, tenant="alice"))[-1]["rows"]
        assert {r["score"] for r in after} == {4}
        assert server.prepared.stats()["misses"] == 3
        wire.send(_query_line(3, tenant="alice"))
        assert server.prepared.stats()["hits"] == 1

    def test_a_new_schema_is_a_miss(self, served):
        server, wire = served
        for rid in range(3):
            wire.send(_query_line(rid))
        server.service.session.register(
            "car", [dict(r) for r in SCHEMAS[1]], replace=True
        )
        failed = wire.send(_query_line(3))[-1]
        assert "unknown attribute 'age'" in failed["error"]
        assert ("error", failed["error"]) == _twin_answer(
            server.service, {"spec": SPECS[1]}, None
        )

    def test_a_registered_function_is_a_miss(self, served):
        server, wire = served
        for rid in range(3):
            wire.send(_query_line(rid, SPECS[2]))
        server.service.session.register_function("f", FUNCTIONS[1])
        rows = wire.send(_query_line(3, SPECS[2]))[-1]["rows"]
        fresh = _twin_answer(server.service, {"spec": SPECS[2]}, None)[1]
        assert _oids(rows) == _oids(fresh)
        assert {r["price"] for r in rows} == {22}

    def test_duplicate_id_member_is_never_admitted(self, served):
        server, wire = served
        body = json.dumps({"op": "query", "spec": SPECS[0]},
                          separators=(",", ":"))[1:-1].encode()
        for rid in (7, 7, 7):
            line = b'{"id":%d,%s,"id":7}\n' % (rid, body)
            assert wire.send(line)[-1]["id"] == 7
        line = b'{"id":8,%s,"id":7}\n' % body
        assert wire.send(line)[-1]["id"] == 7
        assert server.prepared.stats()["entries"] == 0

    def test_lines_outside_the_id_grammar_decode_as_before(self, served):
        server, wire = served
        for _ in range(3):
            bad = wire.send(b'{"id":007,"op":"query","spec":{}}\n')
            assert bad[-1]["code"] == "protocol"
            assert bad[-1]["id"] is None
        for _ in range(3):
            reply = wire.send(_line({"spec": SPECS[0]}, 0, "negative-zero"))
            assert reply[-1]["id"] == 0 and reply[-1]["ok"]
        stats = server.prepared.stats()
        assert stats["entries"] == 1 and stats["hits"] == 1

    def test_a_hit_checks_the_fault_sites_a_miss_does(
        self, served, monkeypatch
    ):
        server, wire = served
        sites = []
        check = faults.check
        monkeypatch.setattr(
            faults, "check",
            lambda site, detail=None: sites.append((site, detail))
            or check(site, detail),
        )
        per_request = []
        for rid in range(4):  # plan, view miss (admitted), two hits
            del sites[:]
            wire.send(_query_line(rid))
            per_request.append(list(sites))
        assert server.prepared.stats()["hits"] == 2
        assert per_request[1] == per_request[2] == per_request[3] == [
            ("executor.task", "query"), ("conn.write", "rows"),
        ]

    def test_an_injected_fault_fails_a_hit_like_a_miss(self, served):
        server, wire = served
        for rid in range(2):
            wire.send(_query_line(rid))
        with faults.FaultPlan([
            faults.FaultRule("executor.task", "error", match="query")
        ]):
            failed = wire.send(_query_line(2))[-1]
        assert server.prepared.stats()["hits"] == 1
        assert failed["code"] == "internal"
        assert "injected fault at executor.task" in failed["error"]


class TestBounds:
    def test_one_off_lines_never_take_an_entry(self):
        service = _service()
        try:
            prepared = server_module.PreparedLines(service)
            resolved = service.resolve(spec=SPECS[0])
            guard = service.resolution_guard(None)
            for z in range(20_000):
                params = {"spec": {**SPECS[0], "limit": z}}
                line = _line(params, z, "leading")
                found = prepared.find(line, None)
                assert found is not None and found.hit is None
                prepared.resolved(found, params, resolved, guard)
            assert prepared.stats()["entries"] == 0
            assert prepared.stats()["misses"] == 20_000
            assert len(prepared._sightings) == service_module._SEEN_SPECS_CAP
        finally:
            service.close()

    def test_entries_stay_under_the_cap(self, monkeypatch):
        monkeypatch.setattr(server_module, "PREPARED_CAP", 4)
        service = _service()
        try:
            prepared = server_module.PreparedLines(service)
            resolved = service.resolve(spec=SPECS[0])
            guard = service.resolution_guard(None)
            for z in range(10):
                params = {"spec": {**SPECS[0], "limit": z}}
                for rid in range(2):
                    found = prepared.find(_line(params, rid, "leading"), None)
                    prepared.resolved(found, params, resolved, guard)
            assert prepared.stats()["entries"] == 4
            assert prepared.stats()["admissions"] == 10
        finally:
            service.close()

    def test_two_servers_share_nothing(self):
        one = _service()
        other = PreferenceService({"car": [
            {**r, "price": -r["price"]} for r in ROWS
        ]})
        handles = [run_in_thread(one), run_in_thread(other)]
        wires = [_Wire(h.port) for h in handles]
        try:
            answers = [
                [wire.send(_query_line(rid))[-1]["rows"] for rid in range(4)]
                for wire in wires
            ]
            for service, rows in zip((one, other), answers):
                fresh = _twin_answer(service, {"spec": SPECS[1]}, None)[1]
                assert all(_oids(r) == _oids(fresh) for r in rows)
            assert answers[0][3] != answers[1][3]
            prepared = [h.server.prepared for h in handles]
            assert prepared[0] is not prepared[1]
            assert prepared[0]._entries is not prepared[1]._entries
            assert [p.stats()["hits"] for p in prepared] == [2, 2]
        finally:
            for wire in wires:
                wire.close()
            for handle in handles:
                handle.stop()
            one.close()
            other.close()


def test_metrics_report_the_prepared_section(served):
    server, wire = served
    for rid in range(3):
        wire.send(_query_line(rid))
    metrics = wire.send(b'{"id":9,"op":"metrics"}\n')[-1]["metrics"]
    assert metrics["prepared"] == {
        "hits": 1, "misses": 2, "admissions": 1, "entries": 1,
    }
