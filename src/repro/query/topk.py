"""The ranked ("k-best") query model of Section 6.2.

``rank(F)`` preferences are mostly chains, so BMO would return a single best
object — too few to choose from.  Multi-feature engines therefore use k-best
semantics: the top ``k`` objects by combined score, deliberately including
some non-maximal ones.  This module implements

* :func:`k_best` — the k-best retrieval itself, with a tie policy (the
  engine-level operator behind ``PreferenceQuery.top``),
* :func:`threshold_topk` — a Quick-Combine / threshold-style algorithm
  ([GBK00]) that answers top-k from per-feature sorted access without
  scoring the whole database, plus access statistics (the Section 6.2
  benchmark reproduces "stops after a small prefix" from these stats).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.base_numerical import ScorePreference
from repro.core.constructors import RankPreference
from repro.core.preference import Row
from repro.query.algorithms import _Reversed
from repro.query.bmo import _repack, _unpack
from repro.relations.relation import Relation


def k_best(
    pref: ScorePreference,
    data: Relation | Sequence[Row],
    k: int,
    ties: str = "strict",
) -> Any:
    """The ``k`` best rows by ``pref``'s score, best first.

    ``ties="strict"`` returns exactly ``k`` rows (stable order breaks
    ties); ``ties="all"`` extends the cut to include every row scoring
    equal to the k-th one, so the answer is deterministic as a set.
    """
    if not isinstance(pref, ScorePreference):
        raise TypeError(
            f"k-best semantics needs a SCORE preference, got {type(pref).__name__}"
        )
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if ties not in ("strict", "all"):
        raise ValueError(f"ties must be 'strict' or 'all', got {ties!r}")
    rows, template = _unpack(data)
    scored = [(pref.score(r), i) for i, r in enumerate(rows)]
    # Stable: sort on score descending, original position ascending.
    order = sorted(range(len(rows)), key=lambda i: (_Reversed(scored[i][0]), i))
    cut = order[:k]
    if ties == "all" and len(order) > k and cut:
        kth_score = scored[cut[-1]][0]
        for i in order[k:]:
            if scored[i][0] == kth_score:
                cut.append(i)
            else:
                break
    return _repack([rows[i] for i in cut], template)


@dataclass
class ThresholdStats:
    """Work performed by :func:`threshold_topk`."""

    sorted_accesses: int = 0
    random_accesses: int = 0
    objects_seen: int = 0
    rounds: int = 0

    @property
    def objects_scored(self) -> int:
        return self.objects_seen


def threshold_topk(
    pref: RankPreference,
    data: Relation | Sequence[Row],
    k: int,
) -> tuple[Any, ThresholdStats]:
    """Top-k for ``rank(F)`` by threshold descent over sorted feature lists.

    Requires ``F`` monotone in every argument (true for the weighted sums
    and cosine aggregates of Section 6.2).  One sorted list per child
    preference, scanned in lockstep; an object's full score is computed on
    first sight (random access).  The *threshold* is ``F`` applied to the
    scores at the current scan frontier — no unseen object can beat it, so
    the scan stops as soon as ``k`` seen objects score at least the
    threshold.  Returns ``(top-k rows, access statistics)``.
    """
    if not isinstance(pref, RankPreference):
        raise TypeError(
            f"threshold_topk needs a rank(F) preference, got {type(pref).__name__}"
        )
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    rows, template = _unpack(data)
    stats = ThresholdStats()
    n = len(rows)
    if n == 0:
        return _repack([], template), stats

    children = pref.children
    child_scores = [
        [c.score(r) for r in rows] for c in children  # type: ignore[attr-defined]
    ]
    # Sorted access lists: row indices by child score, best first.
    lists = [
        sorted(range(n), key=lambda i, s=scores: _Reversed(s[i]))
        for scores in child_scores
    ]

    combine = pref.combine
    seen: set[int] = set()
    heap: list[tuple[Any, int]] = []  # (full score, row index) min-heap
    depth = 0
    while depth < n:
        frontier = []
        for li, lst in enumerate(lists):
            idx = lst[depth]
            stats.sorted_accesses += 1
            frontier.append(child_scores[li][lst[depth]])
            if idx not in seen:
                seen.add(idx)
                stats.random_accesses += 1
                stats.objects_seen += 1
                full = combine(*(child_scores[li2][idx] for li2 in range(len(lists))))
                if len(heap) < k:
                    heapq.heappush(heap, (full, idx))
                elif heap[0][0] < full:
                    heapq.heapreplace(heap, (full, idx))
        stats.rounds += 1
        depth += 1
        threshold = combine(*frontier)
        if len(heap) >= k and not (heap[0][0] < threshold):
            break

    best = sorted(heap, key=lambda si: (_Reversed(si[0]), si[1]))
    return _repack([rows[i] for _, i in best], template), stats
