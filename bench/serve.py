"""The server child: one default-configured preference server.

Spawned by ``run.py`` so load generator and server do not share a GIL.
Generates the workload's relations (unless a durable data directory
already recovered them), registers them, and serves a
default ``PreferenceService`` / ``PreferenceServer`` on an ephemeral
port.  The parent drives it through a two-line control channel:

* stdout: ``READY <port>`` once the socket is bound, ``RSS <kb>`` in
  reply to each ``rss`` line on stdin;
* stdin: EOF (the parent exited or closed the pipe) stops the child, so
  a crashed benchmark never leaves a server behind.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import resource
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _peak_rss_kb() -> int:
    """This process's VmHWM.  Not ``ru_maxrss``: that starts from the
    spawning parent's peak, so it would report the benchmark's memory."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _control(stop) -> None:
    for line in sys.stdin:
        if line.strip() == "rss":
            print(f"RSS {_peak_rss_kb()}", flush=True)
    stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--data-dir", default=None)
    parser.add_argument("--cpu", type=int, default=None,
                        help="run on this CPU only")
    args = parser.parse_args()
    if args.cpu is not None:
        # Before the imports: threads a library starts inherit the mask.
        os.sched_setaffinity(0, {args.cpu})

    from repro.server.server import PreferenceServer
    from repro.server.service import PreferenceService
    from repro.session import Session
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    session = Session(
        storage="sqlite" if args.data_dir else "memory",
        data_dir=args.data_dir,
    )
    # Recovery precedes seeding: a respawn on the same data directory
    # must serve the recovered rows, not regenerate them.
    if not list(session.catalog):
        for name, rows in workload.relations(args.rows).items():
            session.register(name, rows)
    service = PreferenceService(session)
    server = PreferenceServer(service)

    async def serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()

        def stop() -> None:
            loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(server.stop())
            )

        threading.Thread(target=_control, args=(stop,), daemon=True).start()
        print(f"READY {server.port}", flush=True)
        await server.wait_stopped()

    try:
        asyncio.run(serve())
    finally:
        service.close()
        session.close()
    return 0


if __name__ == "__main__":
    # The engine's shared executor is non-daemon; exit without joining
    # it so a stop request never hangs behind an in-flight winnow.
    code = main()
    sys.stdout.flush()
    os._exit(code)
