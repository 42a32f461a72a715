"""Incremental BMO maintenance over a changing database set.

Example 9 shows BMO results evolving non-monotonically as tuples arrive:
adding ``shark`` *widens* the answer, adding ``turtle`` *shrinks* it to one.
:class:`IncrementalBMO` maintains ``sigma[P](R)`` under insertions in
amortized window-size time per tuple (the online form of BNL's invariant:
the window always holds exactly the current maxima).  The same maintainer
generalizes to the paper's other evaluation modes:

* ``groupby=("a",)`` maintains ``sigma[P groupby A](R)`` (Definition 16) —
  one window per group, partitioned online,
* ``top=k`` maintains the ranked k-best cut of Section 6.2 for SCORE
  preferences (with the same ``ties`` policy as :func:`~repro.query.topk
  .k_best`), kept as a sorted run instead of a dominance window.

Every update reports its effect on the visible result as a
:class:`BMODelta` of *entered* and *exited* rows — the event stream the
serving layer (:mod:`repro.server`) pushes to subscribers of continuous
winnow views.

Deletions are fundamentally harder — a removed maximum may resurrect any
number of tuples it was dominating — so ``remove`` keeps the full history
and recomputes the touched group lazily, which is the honest cost model for
strict partial orders (no dominance counting shortcut is sound for
arbitrary orders).  The recompute is an ordinary full winnow, run the way
the planner would run it (:func:`repro.query.optimizer.full_winnow`).
Those recomputes are visible in :attr:`stats` (the ``rebuilds`` /
``resurrected`` counters), so view-refresh metrics built on top of them
stay honest.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.core.base_numerical import ScorePreference
from repro.core.preference import Preference, Row, as_row, project
from repro.query.optimizer import full_winnow


@dataclass(frozen=True)
class BMODelta:
    """The visible effect of one maintenance step on the current result.

    ``entered`` rows became part of the result, ``exited`` rows dropped out
    (evicted by a dominating arrival, removed, or pushed off a k-best cut).
    A delta is falsy when the step changed nothing visible.
    """

    entered: tuple[Row, ...] = ()
    exited: tuple[Row, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.entered or self.exited)

    def to_dict(self) -> dict[str, list[Row]]:
        """A JSON-safe ``{"enter": [...], "exit": [...]}`` rendering."""
        return {
            "enter": [dict(r) for r in self.entered],
            "exit": [dict(r) for r in self.exited],
        }


def merge_deltas(deltas: Iterable[BMODelta]) -> BMODelta:
    """Fuse sequential deltas into one net delta.

    A row that enters and later exits within the sequence (or vice versa)
    cancels out, so the merged delta describes exactly the difference
    between the first *before* state and the last *after* state.
    """

    def cancel(pool: list[Row], row: Row) -> bool:
        for i, other in enumerate(pool):
            if other == row:
                del pool[i]
                return True
        return False

    entered: list[Row] = []
    exited: list[Row] = []
    for delta in deltas:
        for row in delta.entered:
            if not cancel(exited, row):
                entered.append(dict(row))
        for row in delta.exited:
            if not cancel(entered, row):
                exited.append(dict(row))
    return BMODelta(tuple(entered), tuple(exited))


class _Neg:
    """Order-reversing sort wrapper for arbitrary comparable scores."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Neg") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Neg) and self.value == other.value


class _WindowState:
    """The online-BNL window of one group: exactly the current maxima.

    The window maps maximal projections to the carrying rows, so
    projection-equal tuples share one dominance test.
    """

    __slots__ = ("pref", "window")

    def __init__(self, pref: Preference):
        self.pref = pref
        self.window: dict[tuple, list[Row]] = {}

    def insert(self, row: Row) -> BMODelta:
        key = project(row, self.pref.attributes)
        if key in self.window:
            self.window[key].append(dict(row))
            return BMODelta(entered=(dict(row),))
        reps = {k: rows[0] for k, rows in self.window.items()}
        for rep in reps.values():
            if self.pref._lt(row, rep):
                return BMODelta()
        exited: list[Row] = []
        for k, rep in reps.items():
            if self.pref._lt(rep, row):
                exited.extend(self.window.pop(k))
        self.window[key] = [dict(row)]
        return BMODelta(entered=(dict(row),), exited=tuple(exited))

    def rebuild(self, rows: list[Row]) -> None:
        self.window.clear()
        for row in full_winnow(self.pref, rows):
            key = project(row, self.pref.attributes)
            self.window.setdefault(key, []).append(dict(row))

    def result(self) -> list[Row]:
        out: list[Row] = []
        for rows in self.window.values():
            out.extend(dict(r) for r in rows)
        return out

    def size(self) -> int:
        return len(self.window)


class _RankedState:
    """One group's k-best cut (Section 6.2), maintained as a sorted run.

    Rows are kept ordered by (score descending, arrival ascending) — the
    exact order :func:`~repro.query.topk.k_best` materializes — so the cut
    is a prefix slice and an insertion is one bisect.
    """

    __slots__ = ("pref", "k", "ties", "keys", "rows", "seq")

    def __init__(self, pref: ScorePreference, k: int, ties: str):
        self.pref = pref
        self.k = k
        self.ties = ties
        self.keys: list[tuple[_Neg, int]] = []
        self.rows: list[Row] = []
        self.seq = 0

    def _cut(self) -> list[Row]:
        out = [dict(r) for r in self.rows[: self.k]]
        if self.ties == "all" and len(self.rows) > self.k and out:
            kth = self.keys[self.k - 1][0]
            for i in range(self.k, len(self.rows)):
                if self.keys[i][0] == kth:
                    out.append(dict(self.rows[i]))
                else:
                    break
        return out

    def insert(self, row: Row) -> BMODelta:
        before = self._cut()
        key = (_Neg(self.pref.score(row)), self.seq)
        self.seq += 1
        pos = bisect.bisect_left(self.keys, key)
        self.keys.insert(pos, key)
        self.rows.insert(pos, dict(row))
        return _diff(before, self._cut())

    def remove(self, row: Row) -> bool:
        for i, other in enumerate(self.rows):
            if other == row:
                del self.rows[i]
                del self.keys[i]
                return True
        return False

    def result(self) -> list[Row]:
        return self._cut()

    def size(self) -> int:
        return len(
            {project(r, self.pref.attributes) for r in self._cut()}
        )


def _diff(before: Sequence[Row], after: Sequence[Row]) -> BMODelta:
    """Multiset difference of two result snapshots as a delta."""
    pool = [dict(r) for r in before]
    entered: list[Row] = []
    for row in after:
        for i, old in enumerate(pool):
            if old == row:
                del pool[i]
                break
        else:
            entered.append(dict(row))
    return BMODelta(tuple(entered), tuple(pool))


class IncrementalBMO:
    """Maintains a preference query result over a stream of updates.

    >>> live = IncrementalBMO(pref)
    >>> live.insert({"fuel_economy": 100, "insurance": 3})
    >>> live.result()        # current best matches, insertion-ordered

    ``groupby`` switches to grouped-winnow maintenance (one window per
    group), ``top``/``ties`` to ranked k-best maintenance (SCORE
    preferences only).  ``insert_delta`` / ``remove_delta`` / ``apply``
    report every visible change as a :class:`BMODelta`.
    """

    def __init__(
        self,
        pref: Preference,
        groupby: Sequence[str] | None = None,
        top: int | None = None,
        ties: str = "strict",
    ):
        self.pref = pref
        self.groupby: tuple[str, ...] = tuple(groupby) if groupby else ()
        self.top = top
        self.ties = ties
        if top is not None:
            if not isinstance(pref, ScorePreference):
                raise TypeError(
                    "k-best maintenance needs a SCORE preference, got "
                    f"{type(pref).__name__}"
                )
            if top < 1:
                raise ValueError(f"k must be positive, got {top}")
            if ties not in ("strict", "all"):
                raise ValueError(f"ties must be 'strict' or 'all', got {ties!r}")
        self._attributes = tuple(
            dict.fromkeys((*pref.attributes, *self.groupby))
        )
        self._history: list[Row] = []
        self._groups: dict[tuple, _WindowState | _RankedState] = {}
        self._inserted = 0
        self._evicted = 0
        self._rejected = 0
        self._removed = 0
        self._resurrected = 0
        self._rebuilds = 0
        self._revisions = 0

    def _state(self, group: tuple) -> _WindowState | _RankedState:
        state = self._groups.get(group)
        if state is None:
            if self.top is not None:
                state = _RankedState(self.pref, self.top, self.ties)
            else:
                state = _WindowState(self.pref)
            self._groups[group] = state
        return state

    def _group_of(self, row: Row) -> tuple:
        return project(row, self.groupby) if self.groupby else ()

    # -- updates ---------------------------------------------------------------

    def insert_delta(self, value: Any) -> BMODelta:
        """Add one tuple; returns the visible enter/exit delta."""
        row = as_row(value, self._attributes)
        self._history.append(dict(row))
        self._inserted += 1
        delta = self._state(self._group_of(row)).insert(row)
        if not delta.entered:
            self._rejected += 1
        self._evicted += len(delta.exited)
        return delta

    def insert(self, value: Any) -> bool:
        """Add one tuple; returns True iff it enters the current result."""
        return bool(self.insert_delta(value).entered)

    def insert_many(self, values: Iterable[Any]) -> int:
        """Insert a batch; returns how many entered the result on arrival."""
        return sum(1 for v in values if self.insert(v))

    def remove_delta(self, value: Any) -> BMODelta | None:
        """Remove one matching tuple; returns the delta, or None if absent.

        Cost is a recompute of the touched group (a removed maximum may
        resurrect arbitrarily many dominated tuples — see the module
        docstring); ranked runs delete in place instead.  The recompute is
        counted in :attr:`stats` under ``rebuilds``.
        """
        row = as_row(value, self._attributes)
        target = dict(row)
        for i, old in enumerate(self._history):
            if old == target:
                del self._history[i]
                break
        else:
            return None
        self._removed += 1
        group = self._group_of(target)
        state = self._state(group)
        if isinstance(state, _RankedState):
            before = state.result()
            state.remove(target)
            delta = _diff(before, state.result())
        else:
            before = state.result()
            state.rebuild(
                [r for r in self._history if self._group_of(r) == group]
                if self.groupby
                else self._history
            )
            self._rebuilds += 1
            delta = _diff(before, state.result())
        if not self._history_has_group(group):
            # The last row of a group left: forget the empty window so
            # result()'s group iteration order stays first-seen-of-live.
            if not state.result():
                del self._groups[group]
        self._resurrected += len(delta.entered)
        return delta

    def _history_has_group(self, group: tuple) -> bool:
        if not self.groupby:
            return bool(self._history)
        return any(self._group_of(r) == group for r in self._history)

    def remove(self, value: Any) -> bool:
        """Remove one matching historical tuple; True iff one was removed."""
        return self.remove_delta(value) is not None

    def apply(
        self,
        inserted: Iterable[Any] = (),
        deleted: Iterable[Any] = (),
    ) -> BMODelta:
        """Apply one mutation batch; returns the fused net delta.

        Deletions are applied first (matching the serving layer's
        delete-then-insert replacement idiom); rows that enter and exit
        within the batch cancel out of the reported delta.
        """
        deltas: list[BMODelta] = []
        for value in deleted:
            delta = self.remove_delta(value)
            if delta is not None:
                deltas.append(delta)
        for value in inserted:
            deltas.append(self.insert_delta(value))
        return merge_deltas(deltas)

    def revise(
        self, new_pref: Preference, candidates: Iterable[Row] | None = None
    ) -> BMODelta:
        """Swap the maintained preference; returns the visible delta.

        The data history is untouched — only the dominance windows are
        re-derived.  ``candidates`` narrows the rows each window is
        re-derived from (the revision layer passes the old view for
        proved order refinements, view + frontier for contractions);
        ``None`` re-derives from the full history.  Ranked maintenance
        always reseeds from history: a sorted run is score-global, so no
        candidate subset short of everything is sound for a changed
        score.  Counted in :attr:`stats` under ``revisions``.
        """
        if self.top is not None and not isinstance(new_pref, ScorePreference):
            raise TypeError(
                "k-best maintenance needs a SCORE preference, got "
                f"{type(new_pref).__name__}"
            )
        before = self.result()
        self.pref = new_pref
        self._attributes = tuple(
            dict.fromkeys((*new_pref.attributes, *self.groupby))
        )
        self._groups = {}
        if self.top is not None:
            for row in self._history:
                self._state(self._group_of(row)).insert(row)
        else:
            pool = self._history if candidates is None else [
                as_row(r, self._attributes) for r in candidates
            ]
            grouped: dict[tuple, list[Row]] = {}
            for row in pool:
                grouped.setdefault(self._group_of(row), []).append(row)
            for group, rows in grouped.items():
                state = self._state(group)
                assert isinstance(state, _WindowState)
                state.rebuild(rows)
        self._revisions += 1
        return _diff(before, self.result())

    # -- inspection ----------------------------------------------------------------

    def result(self) -> list[Row]:
        """The current result (all tuples of maximal projections, or the
        k-best cut), groups in first-seen order."""
        out: list[Row] = []
        for state in self._groups.values():
            out.extend(state.result())
        return out

    def result_size(self) -> int:
        """Distinct maximal projections (Definition 18's size), summed over
        groups."""
        return sum(state.size() for state in self._groups.values())

    def seen(self) -> int:
        return len(self._history)

    def __len__(self) -> int:
        return sum(len(state.result()) for state in self._groups.values())

    def __iter__(self) -> Iterator[Row]:
        return iter(self.result())

    @property
    def stats(self) -> dict[str, int]:
        """Maintenance statistics.

        ``inserted`` / ``rejected`` / ``evicted`` count arrivals and their
        victims; ``removed`` / ``resurrected`` / ``rebuilds`` count the
        deletion side, including the group recomputes that deletions
        trigger — so latency accounting built on these numbers reflects
        the real work done; ``revisions`` counts preference swaps applied
        via :meth:`revise`.
        """
        return {
            "inserted": self._inserted,
            "rejected": self._rejected,
            "evicted": self._evicted,
            "removed": self._removed,
            "resurrected": self._resurrected,
            "rebuilds": self._rebuilds,
            "revisions": self._revisions,
        }

    def __repr__(self) -> str:
        mode = ""
        if self.groupby:
            mode += f", groupby={list(self.groupby)}"
        if self.top is not None:
            mode += f", top={self.top}"
        return (
            f"IncrementalBMO({self.pref!r}{mode}, "
            f"seen={len(self._history)}, maxima={len(self)})"
        )
