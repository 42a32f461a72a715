"""E-negotiation over preference conflicts (Section 7 roadmap).

The paper observes that unranked values are "a natural reservoir to
negotiate compromises": when two parties' preferences conflict, Pareto
accumulation does not fail — it leaves the contested options unranked, and
the BMO result of the combined preference is exactly the set of
non-dominated compromise candidates.

:func:`negotiate` structures that insight:

1. If some tuple is best for *both* parties, the deal is immediate.
2. Otherwise the Pareto-combined BMO result is the compromise frontier;
   candidates are annotated with each party's *regret* (how many levels the
   candidate sits below that party's personal optimum) and sorted by a
   fairness criterion (minimize the worse regret, then total regret).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.constructors import ParetoPreference
from repro.core.preference import Preference, Row
from repro.query.bmo import winnow
from repro.query.optimizer import choose_algorithm
from repro.relations.relation import Relation


@dataclass
class Candidate:
    """One compromise option with per-party regret annotations."""

    row: Row
    regrets: tuple[int, ...]  # per party: 0 = personally optimal

    @property
    def max_regret(self) -> int:
        return max(self.regrets)

    @property
    def total_regret(self) -> int:
        return sum(self.regrets)


@dataclass
class NegotiationOutcome:
    """The structured result of a negotiation round."""

    immediate_deals: list[Row]          # best for every party at once
    frontier: list[Candidate]           # Pareto-combined BMO, annotated
    party_optima: list[list[Row]]       # each party's solo BMO

    @property
    def settled(self) -> bool:
        return bool(self.immediate_deals)

    def recommended(self, k: int = 3) -> list[Row]:
        """Up to ``k`` fairest candidates (min-max regret, then total)."""
        if self.immediate_deals:
            return self.immediate_deals[:k]
        ranked = sorted(
            self.frontier,
            key=lambda c: (c.max_regret, c.total_regret),
        )
        return [c.row for c in ranked[:k]]


def _row_key(row: Row) -> tuple:
    return tuple(sorted(row.items(), key=lambda kv: kv[0]))


def _regret_levels(pref: Preference, rows: list[Row]) -> dict[tuple, int]:
    """Level of each row in the party's better-than graph, minus one.

    Level 1 (personal optimum among the candidates) means regret 0.
    Definition 2's level is 1 + the longest path to a maximum, which is
    the round of iterated BMO that takes the row: round 1 is the winnow,
    each next round the winnow of what the earlier rounds left.
    """
    algorithm = choose_algorithm(pref)
    out: dict[tuple, int] = {}
    remaining, regret = rows, 0
    while remaining:
        stratum = {_row_key(r) for r in winnow(pref, remaining, algorithm)}
        out.update(dict.fromkeys(stratum, regret))
        remaining = [r for r in remaining if _row_key(r) not in stratum]
        regret += 1
    return out


def negotiate(
    party_preferences: Sequence[Preference],
    data: Relation | Sequence[Row],
) -> NegotiationOutcome:
    """Run one negotiation analysis over the available options.

    ``party_preferences`` holds one preference term per party (two or
    more).  No party's preference is privileged — combination uses Pareto
    accumulation, the paper's non-discriminating constructor.
    """
    if len(party_preferences) < 2:
        raise ValueError("negotiation needs at least two parties")
    # The outcome hands rows to the caller: work on copies throughout.
    rows = data.rows() if isinstance(data, Relation) else [dict(r) for r in data]

    solo = [winnow(p, rows, choose_algorithm(p)) for p in party_preferences]
    solo_keys = [{_row_key(r) for r in s} for s in solo]
    common = set.intersection(*solo_keys)
    immediate = [r for r in rows if _row_key(r) in common]

    joint = ParetoPreference(tuple(party_preferences))
    frontier_rows = winnow(joint, rows, choose_algorithm(joint))
    regret_maps = [_regret_levels(p, rows) for p in party_preferences]
    frontier = [
        Candidate(
            row=r,
            regrets=tuple(m[_row_key(r)] for m in regret_maps),
        )
        for r in frontier_rows
    ]
    return NegotiationOutcome(
        immediate_deals=immediate,
        frontier=frontier,
        party_optima=solo,
    )
