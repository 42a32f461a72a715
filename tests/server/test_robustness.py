"""Serving-layer robustness over real sockets.

Malformed wire input (oversized lines, bad JSON, unknown ops, torn
frames), deadline shedding, admission control, slow-subscriber
disconnects, and injected executor/socket faults — in every case the
server must answer with a *structured* error (or drop exactly the one
offending connection) and keep serving everyone else.
"""

import json
import socket
import time

import pytest

from repro.faults.plan import FaultPlan, FaultRule
from repro.server import (
    ClientError,
    PreferenceClient,
    PreferenceService,
    protocol,
    run_in_thread,
)

ROWS = [
    {"name": "frog", "fe": 100, "ir": 3},
    {"name": "cat", "fe": 50, "ir": 3},
]

LOWEST_IR = {"type": "lowest", "attribute": "ir"}


@pytest.fixture(autouse=True)
def _no_fault_leaks():
    from repro.faults import plan as faults

    faults.reset()
    yield
    faults.reset()


@pytest.fixture
def served():
    service = PreferenceService({"animal": [dict(r) for r in ROWS]})
    handle = run_in_thread(service)
    yield handle
    handle.stop()
    service.close()


def _raw(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.settimeout(10)
    return sock


def _read_line(sock):
    buffer = bytearray()
    while not buffer.endswith(b"\n"):
        chunk = sock.recv(1 << 16)
        if not chunk:
            break
        buffer.extend(chunk)
    return json.loads(buffer) if buffer else None


class TestMalformedWire:
    def test_invalid_json_keeps_connection_alive(self, served):
        with _raw(served.port) as sock:
            sock.sendall(b"{this is not json\n")
            error = _read_line(sock)
            assert error["ok"] is False and error["code"] == "protocol"
            sock.sendall(b'{"id": 1, "op": "ping"}\n')
            assert _read_line(sock)["pong"] is True

    def test_unknown_op_is_a_structured_error(self, served):
        with _raw(served.port) as sock:
            sock.sendall(b'{"id": 1, "op": "frobnicate"}\n')
            error = _read_line(sock)
            assert error["code"] == "protocol"
            assert "unknown op" in error["error"]

    def test_non_object_message_rejected(self, served):
        with _raw(served.port) as sock:
            sock.sendall(b"[1, 2, 3]\n")
            assert _read_line(sock)["code"] == "protocol"

    def test_oversized_line_rejected(self, served):
        with _raw(served.port) as sock:
            line = b'{"op": "ping", "pad": "' + b"x" * (
                protocol.MAX_LINE_BYTES + 1024
            ) + b'"}\n'
            sock.sendall(line)
            error = _read_line(sock)
            assert error["ok"] is False
            assert "too long" in error["error"]
        # The offender is disconnected; everyone else keeps working.
        with PreferenceClient(port=served.port) as client:
            assert client.ping()["pong"] is True

    def test_mid_frame_disconnect_is_harmless(self, served):
        sock = _raw(served.port)
        sock.sendall(b'{"id": 1, "op": "qu')  # torn frame, no newline
        sock.close()
        time.sleep(0.05)
        with PreferenceClient(port=served.port) as client:
            assert client.ping()["pong"] is True
            assert client.query(
                spec={"relation": "animal", "prefer": LOWEST_IR}
            )


class TestRemovedExecutionHint:
    """Partitioning and the evaluator are the planner's decisions, not
    spec fields: every spelling of the old hints is a ``bad_request``
    naming what is valid."""

    def _error(self, served, **extra):
        with PreferenceClient(port=served.port) as client:
            with pytest.raises(ClientError) as info:
                client.query(
                    spec={"relation": "animal", "prefer": LOWEST_IR, **extra}
                )
            assert client.ping()["pong"] is True
        assert info.value.code == "bad_request"
        return str(info.value)

    def test_partitions_field_is_unknown(self, served):
        message = self._error(served, partitions=4)
        assert "unknown spec field(s) ['partitions']" in message
        assert "'limit'" in message and "'relation'" in message

    @pytest.mark.parametrize("value", ["parallel", "row", "columnar", "auto"])
    def test_parallel_backend_is_unknown(self, served, value):
        message = self._error(served, backend=value)
        assert "unknown spec field(s) ['backend']" in message
        valid = message.split("valid fields: ", 1)[1]
        assert "'relation'" in valid and "'limit'" in valid
        assert "'backend'" not in valid


class TestDeadlines:
    def test_expired_deadline_is_shed_before_execution(self, served):
        with PreferenceClient(port=served.port) as client:
            with pytest.raises(ClientError) as info:
                client.query(
                    spec={"relation": "animal", "prefer": LOWEST_IR},
                    deadline_ms=0,
                )
            assert info.value.code == "deadline"
            assert client.ping()["pong"] is True
            shed = client.metrics()["shed"]
            assert shed.get("deadline") == 1

    def test_deadline_expiring_during_execution(self, served):
        # A 150ms injected stall inside the executor task blows a 20ms
        # budget — the answer exists but arrives too late to send.
        with PreferenceClient(port=served.port) as client:
            with FaultPlan([FaultRule("executor.task", action="delay",
                                      delay_ms=150, match="query")]):
                with pytest.raises(ClientError) as info:
                    client.query(
                        spec={"relation": "animal", "prefer": LOWEST_IR},
                        deadline_ms=20,
                    )
            assert info.value.code == "deadline"

    def test_generous_deadline_answers_normally(self, served):
        with PreferenceClient(port=served.port) as client:
            rows = client.query(
                spec={"relation": "animal", "prefer": LOWEST_IR},
                deadline_ms=60_000,
            )
            assert rows

    def test_malformed_deadline_rejected(self, served):
        with _raw(served.port) as sock:
            sock.sendall(json.dumps({
                "id": 1, "op": "query", "deadline_ms": "soon",
                "spec": {"relation": "animal", "prefer": LOWEST_IR},
            }).encode() + b"\n")
            error = _read_line(sock)
            assert error["ok"] is False
            assert "deadline_ms" in error["error"]


class TestAdmissionControl:
    def test_zero_watermark_sheds_cpu_ops(self):
        service = PreferenceService({"animal": [dict(r) for r in ROWS]})
        handle = run_in_thread(service, max_pending=0)
        try:
            with PreferenceClient(port=handle.port) as client:
                assert client.ping()["pong"] is True  # ping is not CPU
                with pytest.raises(ClientError) as info:
                    client.query(
                        spec={"relation": "animal", "prefer": LOWEST_IR}
                    )
                assert info.value.code == "overloaded"
                health = client.health()
                assert health["queue"]["max_pending"] == 0
                # `metrics` is itself a CPU op (it would be shed too);
                # read the counters straight off the service.
                shed = service.metrics.snapshot()["shed"]
                assert shed.get("overloaded", 0) >= 1
        finally:
            handle.stop()
            service.close()


class TestSlowSubscriber:
    def test_non_draining_subscriber_is_disconnected(self):
        service = PreferenceService({"item": [{"price": 100.0, "pad": ""}]})
        handle = run_in_thread(service, write_buffer_cap=64 * 1024)
        try:
            with PreferenceClient(port=handle.port) as subscriber, \
                    PreferenceClient(port=handle.port) as mutator:
                subscriber.subscribe(
                    "item",
                    prefer={"type": "lowest", "attribute": "price"},
                )
                blob = "z" * (512 * 1024)
                shed = {}
                for i in range(40):  # the subscriber never reads
                    mutator.insert(
                        "item",
                        [{"price": 99.0 - i, "pad": blob}],
                    )
                    shed = mutator.metrics()["shed"]
                    if shed.get("slow_subscriber"):
                        break
                assert shed.get("slow_subscriber", 0) >= 1
                # The mutator (which drains) is unaffected.
                assert mutator.ping()["pong"] is True
        finally:
            handle.stop()
            service.close()


class TestInjectedServerFaults:
    def test_executor_fault_maps_to_internal_error(self, served):
        with PreferenceClient(port=served.port) as client:
            with FaultPlan([FaultRule("executor.task", match="query")]):
                with pytest.raises(ClientError) as info:
                    client.query(
                        spec={"relation": "animal", "prefer": LOWEST_IR}
                    )
            assert info.value.code == "internal"
            assert client.ping()["pong"] is True  # connection survived

    def test_dropped_socket_write_aborts_cleanly(self, served):
        with PreferenceClient(port=served.port) as client:
            client.ping()
            with FaultPlan([FaultRule("conn.write", action="drop",
                                      match="rows")]):
                with pytest.raises(ClientError):
                    client.query(
                        spec={"relation": "animal", "prefer": LOWEST_IR}
                    )
        # Only that connection died; the server keeps accepting.
        with PreferenceClient(port=served.port) as client:
            assert client.ping()["pong"] is True


class TestHealth:
    def test_health_reports_ok_and_structure(self, served):
        with PreferenceClient(port=served.port) as client:
            health = client.health()
            assert health["status"] == "ok" and health["reasons"] == []
            assert health["catalog"]["relations"] == 1
            assert health["queue"]["pending"] >= 0
            assert health["views"] == {"live": 0, "poisoned": 0}

    def test_health_degrades_on_poisoned_view(self, served):
        with PreferenceClient(port=served.port) as client:
            client.subscribe("animal", prefer=LOWEST_IR)
            with FaultPlan([FaultRule("view.refresh", times=1)]):
                client.insert("animal", [{"name": "x", "fe": 1, "ir": 9}])
            health = client.health()
            assert health["status"] == "degraded"
            assert any("poisoned" in r for r in health["reasons"])
            assert health["views"]["poisoned"] == 1
            # Delta subscribers were told the stream broke.
            delta = client.wait_delta(timeout=10)
            assert "error" in delta
