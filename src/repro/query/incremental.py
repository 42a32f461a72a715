"""Incremental BMO maintenance over a changing database set.

Example 9 shows BMO results evolving non-monotonically as tuples arrive:
adding ``shark`` *widens* the answer, adding ``turtle`` *shrinks* it to one.
:class:`IncrementalBMO` is the one maintained-winnow state of the library:
it keeps ``sigma[P](R)`` current under insertions, deletions *and*
preference revisions, and reports every visible change as a
:class:`BMODelta` of *entered* and *exited* rows — the event stream the
serving layer (:mod:`repro.server`) pushes to subscribers of continuous
winnow views.

**What it holds.**  What it shows, plus one reference to the bag it shows
it of — nothing else, and no second copy of the rows:

* per group, a dominance *window*: maximal projections mapped to the rows
  carrying them (the online form of BNL's invariant — the window always
  holds exactly the current maxima).  ``groupby=("a",)`` maintains
  ``sigma[P groupby A](R)`` (Definition 16), one window per group;
  ``top=k`` keeps the ranked k-best cut of Section 6.2 with its ties
  (:func:`~repro.query.topk.k_best`'s ``ties`` policy) instead;
* the bag ``R``.  Definition 15 makes ``sigma[P](R)`` a function of the
  term and the database set alone, so a maintainer fed from a catalog is
  *handed* the catalog's immutable :class:`~repro.relations.relation
  .Relation` snapshot — by :meth:`~IncrementalBMO.load`, and again with
  every mutation batch (``bag`` of :meth:`~IncrementalBMO.apply`) — and
  copies nothing; a standalone ``IncrementalBMO(pref)`` that was handed
  nothing owns a plain list.

**What an update costs.**  An insertion is window-sized.  So is a deletion
whenever the window alone can settle it: by transitivity of the strict
partial order every non-maximal tuple of a finite ``R`` lies below a
maximal one, so deleting a dominated row — or one of several carriers of
a maximal projection — resurrects nothing.  Only a delete that takes the
*last carrier of a maximal projection* (or a member of a k-best cut)
re-derives the touched group from the bag, the one way a bag becomes a
window anywhere in this module: :func:`repro.query.optimizer.full_winnow`
(:func:`~repro.query.topk.k_best` for ranked).  Seeding and every revision
that cannot restart from the window go through the same function, and
:attr:`IncrementalBMO.stats` counts them (``rebuilds`` / ``resurrected``
/ ``examined``), so view-refresh metrics built on top stay honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable, Iterator, Sequence

from repro.core.base_numerical import ScorePreference
from repro.core.preference import Preference, Row, as_row, project
from repro.query.optimizer import full_winnow
from repro.query.revision import Revision, classify_revision
from repro.query.topk import k_best
from repro.relations.relation import Relation


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


def _take(rows: list[Row], row: Row) -> bool:
    """Remove the first stored row equal to ``row``; False if none is."""
    try:
        rows.remove(row)
    except ValueError:
        return False
    return True


def merge_deltas(deltas: Iterable[BMODelta]) -> BMODelta:
    """Fuse sequential deltas into one net delta.

    A row that enters and later exits within the sequence (or vice versa)
    cancels out, so the merged delta describes exactly the difference
    between the first *before* state and the last *after* state.
    """
    entered: list[Row] = []
    exited: list[Row] = []
    for delta in deltas:
        for row in delta.entered:
            if not _take(exited, row):
                entered.append(dict(row))
        for row in delta.exited:
            if not _take(entered, row):
                exited.append(dict(row))
    return BMODelta(tuple(entered), tuple(exited))


class _WindowState:
    """The dominance window of one group: exactly the current maxima.

    The window maps maximal projections to the carrying rows, so
    projection-equal tuples share one dominance test — and the carrier
    list of a projection is *every* row of the group's bag with it.
    """

    __slots__ = ("pref", "window")

    def __init__(self, pref: Preference):
        self.pref = pref
        self.window: dict[tuple, list[Row]] = {}

    def reset(self, maxima: Iterable[Row]) -> None:
        self.window = {}
        for row in maxima:
            key = project(row, self.pref.attributes)
            self.window.setdefault(key, []).append(row)

    def insert(self, row: Row) -> BMODelta:
        key = project(row, self.pref.attributes)
        if key in self.window:
            self.window[key].append(row)
            return BMODelta(entered=(dict(row),))
        reps = {k: rows[0] for k, rows in self.window.items()}
        for rep in reps.values():
            if self.pref._lt(row, rep):
                return BMODelta()
        exited: list[Row] = []
        for k, rep in reps.items():
            if self.pref._lt(rep, row):
                exited.extend(dict(r) for r in self.window.pop(k))
        self.window[key] = [row]
        return BMODelta(entered=(dict(row),), exited=tuple(exited))

    def holds(self, row: Row) -> bool:
        return project(row, self.pref.attributes) in self.window

    def drop(self, row: Row) -> bool:
        """Take a held ``row`` out, if the window alone can tell what is
        left: False when it is the last carrier of its projection, whose
        removal may resurrect rows only the bag knows."""
        carriers = self.window[project(row, self.pref.attributes)]
        if len(carriers) == 1:
            return False
        carriers.remove(row)
        return True

    def rows(self) -> list[Row]:
        return list(chain.from_iterable(self.window.values()))

    def size(self) -> int:
        return len(self.window)


class _RankedState:
    """One group's k-best cut (Section 6.2): the first ``k`` rows in
    :func:`~repro.query.topk.k_best` order (score descending, arrival
    ascending), with every row tied at the k-th score under
    ``ties="all"``.

    The cut of ``cut + [arrival]`` is the cut of the whole group plus the
    arrival (rows outside a cut never re-enter on an insertion), so
    :func:`k_best` over those ``k + 1`` rows is the whole insert.
    """

    __slots__ = ("pref", "k", "ties", "cut")

    def __init__(self, pref: ScorePreference, k: int, ties: str):
        self.pref = pref
        self.k = k
        self.ties = ties
        self.cut: list[Row] = []

    def reset(self, cut: Iterable[Row]) -> None:
        self.cut = list(cut)

    def insert(self, row: Row) -> BMODelta:
        before = self.cut
        self.cut = k_best(self.pref, [*before, row], self.k, self.ties)
        return _diff(before, self.cut)

    def holds(self, row: Row) -> bool:
        return row in self.cut

    def drop(self, row: Row) -> bool:
        # Whoever takes a cut member's place is outside the cut.
        return False

    def rows(self) -> list[Row]:
        return self.cut

    def size(self) -> int:
        return len({project(r, self.pref.attributes) for r in self.cut})


def _diff(before: Sequence[Row], after: Sequence[Row]) -> BMODelta:
    """Multiset difference of two result snapshots as a delta."""
    pool = [dict(r) for r in before]
    entered = [dict(r) for r in after if not _take(pool, r)]
    return BMODelta(tuple(entered), tuple(pool))


class IncrementalBMO:
    """Maintains a preference query result over a stream of updates.

    >>> live = IncrementalBMO(pref)
    >>> live.insert({"fuel_economy": 100, "insurance": 3})
    >>> live.result()        # current best matches, insertion-ordered

    ``groupby`` switches to grouped-winnow maintenance (one window per
    group), ``top``/``ties`` to ranked k-best maintenance (SCORE
    preferences only).  ``insert_delta`` / ``remove_delta`` / ``apply``
    report every visible change as a :class:`BMODelta`; :meth:`load`
    starts over from a whole bag and :meth:`revise` swaps the preference.
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
            self._require_score(pref)
            if top < 1:
                raise ValueError(f"k must be positive, got {top}")
            if ties not in ("strict", "all"):
                raise ValueError(f"ties must be 'strict' or 'all', got {ties!r}")
        self._attributes = tuple(
            dict.fromkeys((*pref.attributes, *self.groupby))
        )
        #: The bag ``result()`` is the winnow of: a list this maintainer
        #: owns, or (``_owned`` False) row storage it was handed and must
        #: never mutate.  Either way the row dicts are never handed out.
        self._bag: list[Row] = []
        self._owned = True
        self._groups: dict[tuple, _WindowState | _RankedState] = {}
        self._stats = dict.fromkeys(
            ("inserted", "rejected", "evicted", "removed", "resurrected",
             "rebuilds", "revisions", "examined"),
            0,
        )

    def _require_score(self, pref: Preference) -> None:
        if not isinstance(pref, ScorePreference):
            raise TypeError(
                "k-best maintenance needs a SCORE preference, got "
                f"{type(pref).__name__}"
            )

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

    # -- the bag ---------------------------------------------------------------

    def _own(self) -> list[Row]:
        """The bag as a list this maintainer may mutate (a handed bag is
        copied, by reference to its rows, on the first such write)."""
        if not self._owned:
            self._bag, self._owned = list(self._bag), True
        return self._bag

    def _winnow(self, rows: list[Row]) -> list[Row]:
        """The one way a bag becomes a window."""
        if self.top is not None:
            return k_best(self.pref, rows, self.top, self.ties)
        return full_winnow(self.pref, rows)

    def _rewinnow(self) -> None:
        """Re-derive every group from the bag (groups in first-seen order)."""
        self._groups = {}
        if not self.groupby:
            parts = {(): self._bag} if self._bag else {}
        else:
            parts = {}
            for row in self._bag:
                parts.setdefault(self._group_of(row), []).append(row)
        for group, rows in parts.items():
            self._state(group).reset(self._winnow(rows))

    def load(self, bag: Relation | Iterable[Any]) -> None:
        """Start over as the winnow of ``bag``: one planner-chosen winnow
        per group instead of ``len(bag)`` online insertions.  A
        :class:`~repro.relations.relation.Relation`'s row storage is held
        by reference — the no-copy contract of :meth:`Relation._derive`:
        stored dicts are never mutated and never handed out — anything
        else as an owned list of validated copies."""
        if isinstance(bag, Relation):
            self._bag, self._owned = bag._rows, False
        else:
            self._bag = [as_row(v, self._attributes) for v in bag]
            self._owned = True
        self._rewinnow()

    # -- updates ---------------------------------------------------------------

    def insert_delta(self, value: Any) -> BMODelta:
        """Add one tuple; returns the visible enter/exit delta."""
        return self.apply(inserted=(value,))

    def insert(self, value: Any) -> bool:
        """Add one tuple; returns True iff it enters the current result."""
        return bool(self.insert_delta(value).entered)

    def insert_many(self, values: Iterable[Any]) -> int:
        """Insert a batch; returns how many entered the result on arrival."""
        return sum(1 for v in values if self.insert(v))

    def remove_delta(self, value: Any) -> BMODelta | None:
        """Remove one matching tuple; returns the delta, or None if absent.

        The window alone settles the removal of a dominated row or of a
        non-last carrier of a maximal projection; only the last carrier
        (or a k-best cut member) costs a re-derivation of the touched
        group from the bag — see the module docstring — counted in
        :attr:`stats` under ``rebuilds``.
        """
        row = as_row(value, self._attributes)
        if not _take(self._own(), row):
            return None
        return self._settle((), (row,))

    def remove(self, value: Any) -> bool:
        """Remove one matching tuple; True iff one was removed."""
        return self.remove_delta(value) is not None

    def apply(
        self,
        inserted: Iterable[Any] = (),
        deleted: Iterable[Any] = (),
        bag: Relation | None = None,
    ) -> BMODelta:
        """Apply one mutation batch; returns the fused net delta.

        Deletions are applied first (matching the serving layer's
        delete-then-insert replacement idiom); rows that enter and exit
        within the batch cancel out of the reported delta.

        ``bag`` is the post-batch relation when the caller holds it — the
        catalog's snapshot after the mutation.  It replaces the held bag
        by reference, and ``deleted`` is then taken at its word (the
        catalog decided those rows were there).  Without it the
        maintainer edits its own list, and a ``deleted`` row that is not
        in it is skipped.
        """
        ins = [as_row(v, self._attributes) for v in inserted]
        dels = [as_row(v, self._attributes) for v in deleted]
        if bag is None:
            own = self._own()
            dels = [row for row in dels if _take(own, row)]
            own.extend(ins)
        else:
            self._bag, self._owned = bag._rows, False
        return self._settle(ins, dels)

    def _settle(self, ins: Sequence[Row], dels: Sequence[Row]) -> BMODelta:
        """Bring the windows up to the (already post-batch) bag."""
        deltas: list[BMODelta] = []
        # Groups a delete left for the bag to settle, with what they
        # showed before it.  Rebuilt once, from the post-batch bag — so
        # the batch's later deletes and its inserts in such a group are
        # already counted and must not touch the window again.
        stale: dict[tuple, list[Row]] = {}
        self._stats["removed"] += len(dels)
        for row in dels:
            group = self._group_of(row)
            state = self._groups.get(group)
            if group in stale or state is None or not state.holds(row):
                continue  # a dominated row: the maxima stand
            if state.drop(row):
                deltas.append(BMODelta(exited=(row,)))
            else:
                stale[group] = state.rows()
        for group, before in stale.items():
            state = self._groups[group]
            rows = self._bag if not self.groupby else [
                r for r in self._bag if self._group_of(r) == group
            ]
            state.reset(self._winnow(rows))
            self._stats["rebuilds"] += 1
            delta = _diff(before, state.rows())
            self._stats["resurrected"] += len(delta.entered)
            deltas.append(delta)
            if not state.rows():
                # The last row of a group left: forget the empty window so
                # result()'s group order stays first-seen-of-live.
                del self._groups[group]
        self._stats["inserted"] += len(ins)
        for row in ins:
            group = self._group_of(row)
            if group in stale:
                self._stats["rejected"] += not self._groups[group].holds(row)
                continue
            delta = self._state(group).insert(row)
            if not delta.entered:
                self._stats["rejected"] += 1
            self._stats["evicted"] += len(delta.exited)
            deltas.append(delta)
        return deltas[0] if len(deltas) == 1 else merge_deltas(deltas)

    def revise(
        self, new_pref: Preference, constraints: Any = None
    ) -> tuple[BMODelta, Revision, str]:
        """Swap the maintained preference; returns ``(delta, revision,
        strategy)``.

        The delta is classified (:func:`~repro.query.revision
        .classify_revision`; ``constraints`` as there) and the windows
        re-derived from the cheapest sound restart, named by
        ``strategy``: ``none`` — the result stands, the windows are only
        re-keyed; ``view`` — a proved order refinement, so the old result
        alone is re-winnowed; ``full`` — the bag is.  A ``frontier``
        classification runs as ``full``: the dominated frontier of a
        maintainer that holds the whole bag *is* the bag, exact and never
        truncated.  So does a ``view`` one under ``top=k`` — a ranked cut
        is score-global, and containment of the dominance orders says
        nothing about a revised score's ordering.  Counted in
        :attr:`stats` under ``revisions``, with the rows the restart read
        under ``examined``.
        """
        if self.top is not None:
            self._require_score(new_pref)
        revision = classify_revision(
            self.pref, new_pref, constraints=constraints
        )
        strategy = revision.restart
        if strategy == "frontier" or (
            strategy == "view" and self.top is not None
        ):
            strategy = "full"
        before = self.result()
        shown = self._groups
        old = self.pref, self._attributes, shown
        self.pref = new_pref
        self._attributes = tuple(
            dict.fromkeys((*new_pref.attributes, *self.groupby))
        )
        try:
            if strategy == "full":
                self._stats["examined"] += len(self._bag)
                self._rewinnow()
            else:
                self._groups = {}
                for group, state in shown.items():
                    rows = state.rows()
                    if strategy == "view":
                        self._stats["examined"] += len(rows)
                        rows = self._winnow(rows)
                    self._state(group).reset(rows)
        except Exception:
            # E.g. a term over an attribute the rows lack: keep showing
            # the old preference's result rather than half of a new one.
            self.pref, self._attributes, self._groups = old
            raise
        self._stats["revisions"] += 1
        return _diff(before, self.result()), revision, strategy

    # -- inspection ----------------------------------------------------------------

    def result(self) -> list[Row]:
        """The current result (all tuples of maximal projections, or the
        k-best cut) as private copies, groups in first-seen order."""
        return [
            dict(r) for state in self._groups.values() for r in state.rows()
        ]

    def result_size(self) -> int:
        """Distinct maximal projections (Definition 18's size), summed over
        groups."""
        return sum(state.size() for state in self._groups.values())

    def seen(self) -> int:
        """Rows in the bag the result is a winnow of."""
        return len(self._bag)

    def __len__(self) -> int:
        return sum(len(state.rows()) for state in self._groups.values())

    def __iter__(self) -> Iterator[Row]:
        return iter(self.result())

    @property
    def stats(self) -> dict[str, int]:
        """Maintenance statistics.

        ``inserted`` / ``rejected`` / ``evicted`` count arrivals and their
        victims; ``removed`` counts deletions, ``rebuilds`` the group
        re-derivations they forced (one per group and batch, and only
        when a maximal projection lost its last carrier or a k-best cut a
        member) and ``resurrected`` the rows those brought in — so
        latency accounting built on these numbers reflects the real work
        done; ``revisions`` counts preference swaps applied via
        :meth:`revise` and ``examined`` the rows their restarts read.
        """
        return dict(self._stats)

    def __repr__(self) -> str:
        mode = ""
        if self.groupby:
            mode += f", groupby={list(self.groupby)}"
        if self.top is not None:
            mode += f", top={self.top}"
        return (
            f"IncrementalBMO({self.pref!r}{mode}, "
            f"seen={self.seen()}, maxima={len(self)})"
        )
