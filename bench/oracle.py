"""Correctness is part of the benchmark.

Three checks, all counted in ``failed`` and printed with the request
that caused them:

* **reference** — every wire answer on a static relation must equal, as
  a bag of rows, the in-process answer to the same request.  The
  reference runs the *plan* path of a view-less service, so a
  view-answered wire answer is checked against a fresh winnow.
* **definitional** — on every 20th answer, the BMO definition straight
  from the paper: WHERE holds for every returned row, no returned row is
  ``<P`` another candidate, and each sampled non-returned candidate is
  ``<P`` some returned row.
* **churn** — each delta-built mirror must equal its reconcile reads,
  and what was acknowledged before SIGKILL must be there after it.
"""

from __future__ import annotations

import operator
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any

from loadgen import ChurnLog, Sample, fingerprint, row_hash
from workloads import Request, Row

from repro.core.preference import Preference
from repro.server.service import PreferenceService
from repro.session import Session

#: Non-returned candidates sampled per definitional check.
DOMINATED_SAMPLE = 500
#: Candidates each returned row is compared against (plus every other
#: returned row).  Distinct projections only, so POS-style answers with
#: thousands of rows and a handful of values stay cheap.
DOMINATOR_SAMPLE = 2000

_OPS = {"=": operator.eq, ">=": operator.ge}


@dataclass
class Reference:
    answer: tuple[int, int]
    pref: Preference | None
    #: (relation, where, preference signature): what the answer depends on.
    meaning: tuple


class Oracle:
    """In-process references for one workload's static relations."""

    def __init__(self, relations: dict[str, list[Row]],
                 warmup: list[Request]):
        self.relations = relations
        # auto_view_threshold=None: references never come from a view.
        self.service = PreferenceService(
            Session(relations), auto_view_threshold=None
        )
        for request in warmup:
            payload = request.payload
            if payload["op"] == "profile":
                self.service.tenancy.set_profile(
                    payload["tenant"], payload["name"], payload["prefer"]
                )
        #: Two memo levels: the request's own key, then what the answer
        #: depends on — 200 tenants compose to 8 distinct terms.
        self._by_request: dict[tuple, Reference] = {}
        self._by_meaning: dict[tuple, Reference] = {}
        self._defined: set[tuple] = set()
        self._rng = random.Random(0)

    def reference(self, request: Request) -> Reference:
        cached = self._by_request.get(request.key)
        if cached is not None:
            return cached
        payload = request.payload
        q = self.service.build_query(payload.get("sql"), payload.get("spec"))
        if payload.get("tenant") is not None:
            q, _ = self.service.tenancy.compose(q, payload["tenant"])
        pref = q.preference
        meaning = (request.relation, request.where,
                   pref.signature if pref else None)
        reference = self._by_meaning.get(meaning)
        if reference is None:
            rows = self.service.answer(q, auto_view=False).rows
            reference = Reference(fingerprint(rows), pref, meaning)
            self._by_meaning[meaning] = reference
        if request.key is not None:
            self._by_request[request.key] = reference
        return reference

    def candidates(self, request: Request) -> list[Row]:
        rows = self.relations[request.relation]
        if request.where is None:
            return rows
        attribute, op, value = request.where
        test = _OPS[op]
        return [r for r in rows if test(r[attribute], value)]

    def check(self, sample: Sample) -> list[str]:
        """Violations of one query sample (empty: correct)."""
        request = sample.request
        reference = self.reference(request)
        problems = []
        if sample.answer != reference.answer:
            problems.append(
                f"answer {sample.answer} != in-process reference "
                f"{reference.answer}"
            )
        if sample.rows is not None:
            seen = (reference.meaning, sample.answer)
            if seen not in self._defined:
                self._defined.add(seen)
                problems += definitional_violations(
                    reference.pref, self.candidates(request), sample.rows,
                    self._rng,
                )
        return [f"{p} [{request.kind} {request.payload}]" for p in problems]


def _distinct(pref: Preference, rows: list[Row]) -> dict[tuple, Row]:
    """One representative row per distinct projection onto the
    preference's attributes (``<P`` sees nothing else)."""
    attributes = pref.attributes
    seen: dict[tuple, Row] = {}
    for row in rows:
        seen.setdefault(tuple(row[a] for a in attributes), row)
    return seen


def definitional_violations(
    pref: Preference | None, candidates: list[Row], returned: list[Row],
    rng: random.Random,
) -> list[str]:
    """Check ``returned == sigma[P](candidates)`` from Definition 14:
    ``t`` is in the BMO set iff no ``t'`` in the input has ``t <P t'``."""
    problems = []
    pool = Counter(map(row_hash, candidates))
    for row in returned:
        h = row_hash(row)
        if pool[h] <= 0:
            problems.append(
                f"returned row fails WHERE or is not in the relation: {row}"
            )
            return problems
        pool[h] -= 1
    if pref is None:
        if len(returned) != len(candidates):
            problems.append(
                f"no preference, yet {len(returned)} rows returned for "
                f"{len(candidates)} candidates"
            )
        return problems
    winners = _distinct(pref, returned)
    best = list(winners.values())
    others = [row for key, row in _distinct(pref, candidates).items()
              if key not in winners]
    rivals = best + (
        others if len(others) <= DOMINATOR_SAMPLE
        else rng.sample(others, DOMINATOR_SAMPLE)
    )
    for row in best:
        for rival in rivals:
            if pref.lt(row, rival):
                problems.append(f"returned row {row} is <P candidate {rival}")
                return problems
    dominated = (
        others if len(others) <= DOMINATED_SAMPLE
        else rng.sample(others, DOMINATED_SAMPLE)
    )
    for row in dominated:
        if not any(pref.lt(row, winner) for winner in best):
            problems.append(
                f"candidate {row} was not returned yet no returned row "
                "is better"
            )
            return problems
    return problems


# -- churn --------------------------------------------------------------------


def check_mirrors(log: ChurnLog) -> list[str]:
    """Each reconcile read must equal its delta-built mirror at some
    version inside the read's send-to-receive interval.

    Reads carry no version, and writes race them by design, so "the same
    version" is the set of mirror states from the one current when the
    read was sent up to the newest version the writer could have caused
    by the time it returned.
    """
    problems = list(log.problems)
    for read in log.reads:
        if read.sample.error is not None or not read.judged:
            continue
        history = log.mirrors[read.view].history
        allowed = [history[read.states_before - 1][1]] + [
            state for version, state in history[read.states_before:]
            if version <= read.version_bound
        ]
        if read.answer not in allowed:
            problems.append(
                f"reconcile read of view {read.view} returned "
                f"{read.answer}; mirror states in its interval: {allowed}"
            )
    return problems


def check_final(log: ChurnLog, answers: list[list[Row]]) -> list[str]:
    """Quiescent: with the writer stopped, mirror == read, exactly."""
    return [
        f"after the window, mirror of view {m.view} is {m.fingerprint()} "
        f"but its read returned {fingerprint(rows)}"
        for m, rows in zip(log.mirrors, answers)
        if m.fingerprint() != fingerprint(rows)
    ]


def check_recovery(
    acknowledged: set[int], before: dict[str, Any], after: dict[str, Any]
) -> list[str]:
    """Post-recovery state must equal pre-kill state, and every
    acknowledged, undeleted insert must be readable."""
    problems = []
    missing = acknowledged - set(after["inserted"])
    if missing:
        problems.append(
            f"{len(missing)} acknowledged insert(s) lost by SIGKILL: "
            f"{sorted(missing)[:5]}"
        )
    for name in before:
        if before[name] != after[name]:
            problems.append(
                f"post-recovery {name} differs from pre-kill "
                f"({_brief(after[name])} vs {_brief(before[name])})"
            )
    return problems


def _brief(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."
