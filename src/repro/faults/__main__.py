"""Chaos CLI: ``python -m repro.faults``.

Validates fault plans and runs commands under them::

    # check a plan parses and show what it would do
    python -m repro.faults validate plan.json

    # run any command with the plan active (sets REPRO_FAULT_PLAN)
    python -m repro.faults run plan.json -- \\
        python -m repro.server --port 7654

    # list the sites instrumented in this build
    python -m repro.faults sites
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from fnmatch import fnmatchcase

from repro.faults.plan import FAULT_PLAN_ENV, FaultPlan, FaultPlanError

#: Sites instrumented in this build, with what each one guards.  Kept
#: here (not scattered) so ``python -m repro.faults sites`` is the
#: single authoritative listing.
SITES: dict[str, str] = {
    "storage.sync": "backend full-relation mirror (per relation)",
    "storage.insert": "backend incremental insert (per relation)",
    "storage.delete": "backend incremental delete (per relation)",
    "storage.drop": "backend table drop (per relation)",
    "storage.prefilter": "backend pushdown prefilter (per relation)",
    "storage.probe": "circuit-breaker half-open engine probe",
    "storage.checkpoint": "durable snapshot write",
    "wal.append": "write-ahead-log record append (torn => partial frame)",
    "view.refresh": "continuous-view incremental refresh (per view key)",
    "conn.write": "server socket write (drop => abort the connection)",
    "executor.task": "server executor dispatch (per op)",
}


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        plan = FaultPlan.from_env(args.plan)
    except FaultPlanError as exc:
        print(f"invalid fault plan: {exc}", file=sys.stderr)
        return 1
    print(f"valid: seed={plan.seed}, {len(plan.rules)} rule(s)")
    for rule in plan.rules:
        known = any(fnmatchcase(site, rule.site) for site in SITES)
        marker = "" if known else "  [matches no instrumented site]"
        print(f"  - {rule.describe()}{marker}")
    return 0


def _cmd_sites(_args: argparse.Namespace) -> int:
    width = max(len(site) for site in SITES)
    for site, what in sorted(SITES.items()):
        print(f"{site:<{width}}  {what}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        plan = FaultPlan.from_env(args.plan)
    except FaultPlanError as exc:
        print(f"invalid fault plan: {exc}", file=sys.stderr)
        return 1
    if not args.command:
        print("no command given (separate it with --)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env[FAULT_PLAN_ENV] = json.dumps(plan.to_dict())
    print(f"chaos: running {args.command} under {plan!r}", file=sys.stderr)
    return subprocess.call(args.command, env=env)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_validate = sub.add_parser(
        "validate", help="parse a plan (inline JSON or file) and describe it"
    )
    p_validate.add_argument("plan")
    p_validate.set_defaults(fn=_cmd_validate)

    p_sites = sub.add_parser("sites", help="list instrumented fault sites")
    p_sites.set_defaults(fn=_cmd_sites)

    p_run = sub.add_parser(
        "run", help="run a command with the plan exported in the environment"
    )
    p_run.add_argument("plan")
    p_run.add_argument("command", nargs=argparse.REMAINDER)
    p_run.set_defaults(fn=_cmd_run)

    args = parser.parse_args(argv)
    if args.cmd == "run" and args.command and args.command[0] == "--":
        args.command = args.command[1:]
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
