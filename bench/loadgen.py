"""The load generator: server child handle, lean wire client, closed loops.

One process, two connections, at most two threads.  Clients of this
protocol are synchronous callers that wait for each reply, and the
server handles a connection's requests in arrival order, so a closed
loop with a stated client count is the honest model of its traffic.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from workloads import (
    CHURN_VIEWS,
    REVISED_VIEW,
    Request,
    Row,
    view_query,
)

BENCH_DIR = Path(__file__).resolve().parent

#: Per-request timeout: a hung server becomes failures, not a hung run.
REQUEST_TIMEOUT_S = 30.0

#: Every this-many-th answer per connection keeps its rows for the
#: definitional BMO check.
KEEP_EVERY = 20

#: The churn writer's pause after each acknowledgement.  With none, the
#: subscriber's reconcile reads (sent when the delta arrives, i.e. when
#: the writer sends its next mutation) race that mutation's version
#: bump; which side wins is self-reinforcing, and whole runs settle into
#: "reads mostly view-answered" or "half of them re-planned", 2.5x apart
#: in request_p50_ms.  3 ms lets the two reads land first.
WRITER_THINK_S = 0.003

_MASK = (1 << 64) - 1
now = time.perf_counter_ns


# -- answer fingerprints ------------------------------------------------------


def row_hash(row: Row) -> int:
    """Hash of one row's values, in column order (JSON keeps it, and both
    the wire answer and its reference get their rows from the same
    relation; a frozenset of items would cost the generator 3x more).
    ``hash()`` of strings is salted per process, so fingerprints compare
    only within one benchmark process — where both sides live."""
    return hash(tuple(row.values()))


def fingerprint(rows: list[Row]) -> tuple[int, int]:
    """``(count, sum of row hashes)``: equal for equal bags of rows,
    whatever their order."""
    return len(rows), sum(map(row_hash, rows)) & _MASK


# -- one core each ------------------------------------------------------------


def split_cores() -> int | None:
    """Pin this process to one CPU and return another for the server
    child (``None``, and nothing pinned, with fewer than two CPUs).

    Left to the scheduler, the threads of a sub-millisecond request chain
    are placed differently from run to run, and a `standing` request
    takes 0.5 ms or 0.85 ms depending on where they land.  One core each
    removes that; the server is bound by its GIL to about one core
    anyway.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[1]})
    return cpus[0]


# -- the server child ---------------------------------------------------------


class ServerDied(RuntimeError):
    """The server child exited (or went silent) when it should serve."""


class ServerProcess:
    """``bench/serve.py`` as a child process; always reaped.

    Use as a context manager: leaving the block — normally, on an
    exception, on Ctrl-C — kills and waits for the child.  Closing our
    end of its stdin is a second line of defence: the child stops
    itself on EOF, so even ``kill -9`` of the benchmark leaves nothing.
    """

    def __init__(self, workload: str, rows: int, log: Path,
                 data_dir: Path | None = None, cpu: int | None = None):
        argv = [sys.executable, str(BENCH_DIR / "serve.py"),
                "--workload", workload, "--rows", str(rows)]
        if data_dir is not None:
            argv += ["--data-dir", str(data_dir)]
        if cpu is not None:
            argv += ["--cpu", str(cpu)]
        env = dict(os.environ)
        # A default-configured server: no inherited storage choice, fault
        # plan or fsync override.
        for knob in ("REPRO_STORAGE", "REPRO_FAULT_PLAN", "REPRO_WAL_FSYNC"):
            env.pop(knob, None)
        self._log = open(log, "ab")
        self.process = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, env=env,
        )
        self._pending = b""
        self.port = int(self._expect("READY", timeout=120.0))

    def _expect(self, word: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        fd = self.process.stdout.fileno()
        while b"\n" not in self._pending:
            remaining = deadline - time.monotonic()
            ready = remaining > 0 and select.select([fd], [], [], remaining)[0]
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                raise ServerDied(
                    f"server child gave no {word!r} line "
                    f"(exit code {self.process.poll()})"
                )
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        got, _, value = line.decode().partition(" ")
        if got != word:
            raise ServerDied(f"expected {word!r} from server, got {line!r}")
        return value

    def alive(self) -> bool:
        return self.process.poll() is None

    def peak_rss_mb(self) -> float:
        """The child's own VmHWM, asked over its stdin."""
        try:
            self.process.stdin.write(b"rss\n")
            self.process.stdin.flush()
        except OSError as exc:
            raise ServerDied(f"server child stdin closed: {exc}") from exc
        return int(self._expect("RSS", timeout=10.0)) / 1024.0

    def kill(self) -> None:
        """SIGKILL and reap: no shutdown hook runs, nothing is flushed."""
        if self.alive():
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout, self._log):
            try:
                pipe.close()
            except OSError:
                pass

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.kill()


# -- the wire client ----------------------------------------------------------


class WireError(RuntimeError):
    """Timeout or transport failure: the connection is unusable."""


@dataclass
class Reply:
    ok: bool
    final: dict[str, Any]
    rows: list[Row]
    sent_ns: int
    first_ns: int
    done_ns: int

    @property
    def error(self) -> str:
        return f"{self.final.get('code')}: {self.final.get('error')}"


class Wire:
    """One connection: pre-encoded request lines out, one ``json.loads``
    per response line in.  Time blocked in the socket accumulates in
    ``wait_ns`` so the generator's own busy share can be reported."""

    def __init__(self, port: int, timeout: float = REQUEST_TIMEOUT_S):
        self.timeout = timeout
        self.sock = socket.create_connection(("127.0.0.1", port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()
        self._next_id = 0
        self.wait_ns = 0

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def read(self, timeout: float | None = None) -> dict[str, Any] | None:
        """The next message; ``None`` if ``timeout`` passes first."""
        deadline = time.monotonic() + (
            self.timeout if timeout is None else timeout
        )
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                return json.loads(line)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            self.sock.settimeout(remaining)
            start = now()
            try:
                chunk = self.sock.recv(1 << 18)
            except (TimeoutError, socket.timeout):
                return None
            except OSError as exc:
                raise WireError(f"connection lost: {exc}") from exc
            finally:
                self.wait_ns += now() - start
            if not chunk:
                raise WireError("server closed the connection")
            self._buffer += chunk

    def call(self, body: bytes,
             pushes: deque | None = None) -> Reply:
        """Send one request and collect its (chunked) response.  Delta
        pushes that arrive meanwhile go to ``pushes`` with their arrival
        time."""
        self._next_id += 1
        request_id = self._next_id
        line = b'{"id":%d,%s\n' % (request_id, body)
        sent = now()
        try:
            self.sock.settimeout(self.timeout)
            self.sock.sendall(line)
        except OSError as exc:
            raise WireError(f"send failed: {exc}") from exc
        self.wait_ns += now() - sent
        rows: list[Row] = []
        first = 0
        while True:
            message = self.read()
            if message is None:
                raise WireError(
                    f"no reply within {self.timeout:.0f}s to {line[:200]!r}"
                )
            if message.get("kind") == "delta":
                if pushes is not None:
                    pushes.append((now(), message))
                continue
            if message.get("id") != request_id:
                continue
            first = first or now()
            if not message.get("ok"):
                return Reply(False, message, [], sent, first, now())
            if message.get("kind") == "rows":
                rows += message["rows"]
                if not message["done"]:
                    continue
            return Reply(True, message, rows, sent, first, now())


# -- samples ------------------------------------------------------------------


@dataclass
class Sample:
    """One completed (or failed) request of the timed window."""

    request: Request
    sent_ns: int
    latency_ns: int
    first_ns: int = 0          # send -> first response line decoded
    server_ns: int = 0         # the server-reported elapsed_ns
    source: str = ""           # "view" | "plan"
    n_rows: int = 0
    answer: tuple[int, int] = (0, 0)
    rows: list[Row] | None = None   # kept every KEEP_EVERY-th answer
    error: str | None = None


def _sample(request: Request, reply: Reply, keep: bool) -> Sample:
    sample = Sample(request, reply.sent_ns, reply.done_ns - reply.sent_ns,
                    reply.first_ns - reply.sent_ns)
    if not reply.ok:
        sample.error = reply.error
        return sample
    final = reply.final
    sample.server_ns = final.get("elapsed_ns", 0)
    sample.source = final.get("source", "")
    if final.get("kind") == "rows":
        sample.n_rows = len(reply.rows)
        sample.answer = fingerprint(reply.rows)
        if keep:
            sample.rows = reply.rows
    return sample


def closed_loop(wire: Wire, stream: Iterator[Request], stop_ns: int,
                out: list[Sample], on_send=None, on_reply=None,
                think_s: float = 0.0) -> None:
    """Send the stream one request at a time until ``stop_ns``, pausing
    ``think_s`` after each reply.  A transport failure ends the loop
    (the connection is gone) and is recorded as one failed sample."""
    count = 0
    while now() < stop_ns:
        request = next(stream)
        if on_send is not None:
            on_send(request)
        try:
            reply = wire.call(request.body)
        except WireError as exc:
            out.append(Sample(request, now(), 0, error=f"wire: {exc}"))
            return
        count += 1
        out.append(_sample(request, reply, keep=count % KEEP_EVERY == 0))
        if on_reply is not None:
            on_reply(request, reply)
        if think_s:
            paused = now()
            time.sleep(think_s)
            wire.wait_ns += now() - paused   # thinking is not generator work


@dataclass
class Window:
    """What the timed window produced."""

    samples: list[Sample]
    seconds: float             # window start -> last completion
    busy_share: float          # generator time not blocked in the socket
    churn: "ChurnLog | None" = None


def _window(samples: list[Sample], start_ns: int, busy: float,
            churn: "ChurnLog | None" = None) -> Window:
    end_ns = max(s.sent_ns + s.latency_ns for s in samples)
    return Window(samples, (end_ns - start_ns) / 1e9, busy, churn)


def _run_threads(wires: list[Wire], targets: list) -> tuple[int, float]:
    """Run one target per connection; returns the start time and the
    generator's busy share."""
    failures: list[BaseException] = []

    def guarded(target) -> None:
        try:
            target()
        except BaseException as exc:  # re-raised on the main thread
            failures.append(exc)

    for wire in wires:
        wire.wait_ns = 0
    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    start = now()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = now() - start
    if failures:
        raise failures[0]
    busy = sum(elapsed - wire.wait_ns for wire in wires)
    # Two threads share one GIL: the generator saturates when their
    # summed busy time approaches one core, i.e. one window.
    return start, busy / elapsed


def run_queries(wires: list[Wire], streams: list[Iterator[Request]],
                seconds: float) -> Window:
    """The read-only windows: every connection runs its own stream."""
    outs: list[list[Sample]] = [[] for _ in wires]
    stop_ns = now() + int(seconds * 1e9)
    start, busy = _run_threads(wires, [
        (lambda w=w, s=s, o=o: closed_loop(w, s, stop_ns, o))
        for w, s, o in zip(wires, streams, outs)
    ])
    return _window([s for out in outs for s in out], start, busy)


# -- churn --------------------------------------------------------------------


@dataclass
class Mirror:
    """One subscribed view rebuilt from its snapshot and deltas.

    Kept as a bag of whole-row hashes plus two running sums: one over
    whole rows (for the quiescent full-row check) and one over keys (for
    the window's ``select oid`` reconcile reads)."""

    view: int
    rows: Counter = field(default_factory=Counter)   # row hash -> count
    total: int = 0
    key_total: int = 0
    #: ``(version, key fingerprint)`` after the snapshot and each delta.
    history: list[tuple[int, tuple[int, int]]] = field(default_factory=list)

    def apply(self, version: int, enter: list[Row], exit: list[Row],
              problems: list[str]) -> None:
        for row in exit:
            h = row_hash(row)
            if self.rows[h] <= 0:
                problems.append(
                    f"view {self.view}: delta v{version} exits a row the "
                    f"mirror does not hold: {row}"
                )
                continue
            self.rows[h] -= 1
            self.total -= h
            self.key_total -= hash((row["oid"],))
        for row in enter:
            h = row_hash(row)
            self.rows[h] += 1
            self.total += h
            self.key_total += hash((row["oid"],))
        self.history.append((version, self.fingerprint(keys=True)))

    def fingerprint(self, keys: bool = False) -> tuple[int, int]:
        total = self.key_total if keys else self.total
        return sum(self.rows.values()), total & _MASK


@dataclass
class Read:
    """One reconcile read, with what is needed to judge it afterwards."""

    view: int
    states_before: int      # len(mirror.history) when the read was sent
    version_bound: int      # newest version the writer may have caused
    answer: tuple[int, int]
    judged: bool            # False: raced a revise of this view
    sample: Sample


@dataclass
class ChurnLog:
    mirrors: list[Mirror]
    reads: list[Read] = field(default_factory=list)
    lags_ns: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    deltas: int = 0
    #: Keys of acknowledged inserts not (yet) deleted.
    live: set[int] = field(default_factory=set)
    #: Each view's preference term when the window closed.
    prefs: list[dict] = field(default_factory=list)


class _ChurnShared:
    """What the writer thread tells the subscriber thread (same process,
    same clock — which is what makes delta lag measurable)."""

    def __init__(self, version: int):
        self.sent_at: dict[int, int] = {}     # entering oid -> send time
        self.version_bound = version
        self.prefs = list(CHURN_VIEWS)        # current term of each view
        self.revise_epoch = 0
        self.revising = False
        self.writer_done = threading.Event()


def subscribe_views(wire: Wire, warmup: list[Request]) -> tuple[
        list[Mirror], dict[int, int], int]:
    """Connection A's warm-up: subscribe with snapshot to each view."""
    mirrors, by_subscription, version = [], {}, 0
    for index, request in enumerate(warmup):
        reply = wire.call(request.body)
        if not reply.ok:
            raise RuntimeError(f"subscribe failed: {reply.error}")
        mirror = Mirror(index)
        mirror.apply(reply.final["version"], reply.final["rows"], [], [])
        mirrors.append(mirror)
        by_subscription[reply.final["subscription"]] = index
        version = max(version, reply.final["version"])
    # One reconcile read per view, so the query path's lazily loaded
    # modules are imported before the writer's thread starts importing
    # its own (see ``workloads.adhoc_warmup``).
    for request in warmup:
        reply = wire.call(view_query(request.payload["prefer"]).body)
        if not reply.ok:
            raise RuntimeError(f"warm-up read failed: {reply.error}")
    return mirrors, by_subscription, version


def _subscriber(wire: Wire, shared: _ChurnShared, log: ChurnLog,
                by_subscription: dict[int, int], out: list[Sample]) -> None:
    pending: deque = deque()
    quiet_since = None

    def reconcile(view: int) -> None:
        mirror = log.mirrors[view]
        epoch, racing = shared.revise_epoch, shared.revising
        request = view_query(shared.prefs[view])
        states_before = len(mirror.history)
        reply = wire.call(request.body, pushes=pending)
        racing = (racing or shared.revising
                  or shared.revise_epoch != epoch)
        sample = _sample(request, reply, keep=False)
        out.append(sample)
        log.reads.append(Read(
            view, states_before, shared.version_bound, sample.answer,
            judged=not (view == REVISED_VIEW and racing), sample=sample,
        ))

    while True:
        if not pending:
            if shared.writer_done.is_set():
                # Drain: stop once the socket has been quiet for a while.
                quiet_since = quiet_since or time.monotonic()
                if time.monotonic() - quiet_since > 0.5:
                    return
            message = wire.read(timeout=0.05)
            if message is not None and message.get("kind") == "delta":
                pending.append((now(), message))
            continue
        quiet_since = None
        arrived, delta = pending.popleft()
        log.deltas += 1
        if delta.get("error"):
            log.problems.append(f"delta stream broke: {delta['error']}")
            continue
        view = by_subscription[delta["subscription"]]
        for row in delta["enter"]:
            sent = shared.sent_at.pop(row.get("oid"), None)
            if sent is not None:
                log.lags_ns.append(arrived - sent)
        log.mirrors[view].apply(
            delta["version"], delta["enter"], delta["exit"], log.problems
        )
        # The view that changed, and its neighbour: a view that got no
        # delta must still equal its read (a missed push would show).
        reconcile(view)
        reconcile((view + 1) % len(log.mirrors))


def _writer(wire: Wire, shared: _ChurnShared, log: ChurnLog,
            stream: Iterator[Request], stop_ns: int,
            out: list[Sample]) -> None:
    def on_send(request: Request) -> None:
        shared.version_bound += 1
        if request.kind.startswith("churn.revise"):
            shared.revising = True
        elif request.kind == "churn.insert_entering":
            shared.sent_at[request.key[1]] = now()

    def on_reply(request: Request, reply: Reply) -> None:
        if request.kind.startswith("churn.revise"):
            if reply.ok:
                shared.prefs[REVISED_VIEW] = request.payload["to"]
            shared.revise_epoch += 1
            shared.revising = False
        elif reply.ok and request.kind == "churn.delete":
            log.live.discard(request.key[1])
        elif reply.ok:
            log.live.add(request.key[1])

    try:
        closed_loop(wire, stream, stop_ns, out, on_send, on_reply,
                    think_s=WRITER_THINK_S)
    finally:
        shared.writer_done.set()


def run_churn(wire_a: Wire, wire_b: Wire, warmup_state: tuple,
              stream: Iterator[Request], seconds: float) -> Window:
    """Connection A mirrors its four views from deltas and reconciles
    after each one; connection B mutates in a closed loop."""
    mirrors, by_subscription, version = warmup_state
    shared = _ChurnShared(version)
    log = ChurnLog(mirrors)
    reads: list[Sample] = []
    writes: list[Sample] = []
    stop_ns = now() + int(seconds * 1e9)
    start, busy = _run_threads([wire_a, wire_b], [
        lambda: _subscriber(wire_a, shared, log, by_subscription, reads),
        lambda: _writer(wire_b, shared, log, stream, stop_ns, writes),
    ])
    log.prefs = shared.prefs
    # version_bound over-counts by design (revises bump it too): it only
    # has to be an upper bound on what a read may have seen.
    return _window(reads + writes, start, busy, log)
