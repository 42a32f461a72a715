"""One stateful model test over the one maintainer.

A Hypothesis :class:`RuleBasedStateMachine` drives
:class:`~repro.query.incremental.IncrementalBMO` through interleaved
inserts, deletes (of a maximal row, a dominated row, one of several
carriers of a maximal projection, an absent row), mixed batches and
preference revisions (prio-append, prio-prefix, pareto-extend,
pareto-drop, unrelated), and checks after every step that

* ``result()`` equals the definitional BMO set of the bag
  (:func:`~repro.query.algorithms.naive_nested_loop`, per group; resp.
  :func:`~repro.query.topk.k_best` for ``top=k``),
* the fused deltas reconcile a mirror to it,
* ``stats["rebuilds"]`` grows exactly when a maximal projection lost its
  last carrier (a k-best cut a member) — never on a dominated row or a
  non-last carrier,
* a ``view`` restart examines exactly ``len(old result)`` rows, a
  ``full`` one the bag, a ``none`` one nothing.

The machine runs for plain, ``groupby`` and ``top=k`` (``strict`` and
``all``) maintenance, each on a list the maintainer owns and on a bag it
is handed: the immutable snapshots of a :class:`~repro.session.Session`.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from tests.conftest import (
    ATTRIBUTES,
    around_st,
    base_preference_st,
    canon_rows,
    chain_st,
    row_st,
)

from repro.core.base_numerical import LowestPreference
from repro.core.constructors import ParetoPreference, PrioritizedPreference
from repro.core.preference import project
from repro.query.algorithms import naive_nested_loop
from repro.query.incremental import IncrementalBMO
from repro.query.topk import k_best
from repro.relations.relation import Relation
from repro.relations.schema import Schema
from repro.session import Session

index_st = st.integers(min_value=0, max_value=1000)
score_st = st.one_of(chain_st(), around_st())


class MaintainerMachine(RuleBasedStateMachine):
    """Subclasses fix the evaluation mode and where the bag lives."""

    groupby: tuple[str, ...] = ()
    top: int | None = None
    ties = "strict"
    session_backed = False

    @initialize(seed=st.lists(row_st, max_size=8))
    def start(self, seed):
        self.pref = LowestPreference("a")
        self.live = IncrementalBMO(
            self.pref, groupby=self.groupby or None, top=self.top,
            ties=self.ties,
        )
        self.bag = [dict(r) for r in seed]
        if self.session_backed:
            self.session = Session(
                {"r": Relation("r", Schema(ATTRIBUTES), seed)}
            )
            self.events: list = []
            self.session.on_mutation(self.events.append)
            self.live.load(self.session.catalog.get("r"))
        else:
            self.live.load(seed)
        self.mirror = Counter(canon_rows(self.live.result()))

    # -- the model ---------------------------------------------------------

    def _group(self, row):
        return project(row, self.groupby)

    def _expected(self):
        if self.top is not None:
            return k_best(self.pref, self.bag, self.top, self.ties)
        groups: dict[tuple, list[dict]] = {}
        for row in self.bag:
            groups.setdefault(self._group(row), []).append(row)
        return [
            r for rows in groups.values()
            for r in naive_nested_loop(self.pref, rows)
        ]

    def _forced_rebuilds(self, deleted):
        """Groups in which the batch takes the last carrier of a maximal
        projection (resp. any member of the k-best cut)."""
        shown = self._expected()
        if self.top is not None:
            return int(any(row in shown for row in deleted))
        def key(row):
            return self._group(row), project(row, self.pref.attributes)

        carriers = Counter(key(r) for r in shown)
        taken = Counter(key(r) for r in deleted)
        return len({k[0] for k, n in taken.items() if 0 < carriers[k] <= n})

    def _mutate(self, inserted=(), deleted=()):
        """One batch through the model, the bag's home and the maintainer."""
        deleted = [dict(r) for r in deleted]
        forced = self._forced_rebuilds([r for r in deleted if r in self.bag])
        for row in deleted:
            if row in self.bag:
                self.bag.remove(row)
        self.bag.extend(dict(r) for r in inserted)
        before = self.live.stats["rebuilds"]
        if self.session_backed:
            del self.events[:]
            if deleted:
                self.session.delete_rows("r", rows=deleted)
            if inserted:
                self.session.insert_rows("r", inserted)
            delta = self.live.apply(
                inserted=[r for e in self.events for r in e.inserted],
                deleted=[r for e in self.events for r in e.deleted],
                bag=self.events[-1].snapshot,
            )
        else:
            delta = self.live.apply(inserted=inserted, deleted=deleted)
        assert self.live.stats["rebuilds"] - before == forced
        self._reconcile(delta)

    def _reconcile(self, delta):
        self.mirror.subtract(canon_rows(delta.exited))
        self.mirror.update(canon_rows(delta.entered))
        assert min(self.mirror.values(), default=0) >= 0
        self.mirror = +self.mirror

    def _pick(self, rows, index):
        return rows[index % len(rows)]

    def _dominated(self):
        shown = Counter(canon_rows(self._expected()))
        return [
            r for r in self.bag if not shown[canon_rows([r])[0]]
        ]

    # -- data rules --------------------------------------------------------

    @rule(row=row_st)
    def insert(self, row):
        self._mutate(inserted=[row])

    @precondition(lambda self: self.bag)
    @rule(index=index_st)
    def delete_maximal(self, index):
        self._mutate(deleted=[self._pick(self._expected(), index)])

    @precondition(lambda self: self._dominated())
    @rule(index=index_st)
    def delete_dominated(self, index):
        before = self.live.stats["rebuilds"]
        self._mutate(deleted=[self._pick(self._dominated(), index)])
        assert self.live.stats["rebuilds"] == before

    @precondition(lambda self: self.bag)
    @rule(index=index_st)
    def delete_one_of_two_carriers(self, index):
        row = self._pick(self._expected(), index)
        self._mutate(inserted=[row])
        before = self.live.stats["rebuilds"]
        self._mutate(deleted=[row])
        if self.top is None:
            assert self.live.stats["rebuilds"] == before

    @rule()
    def delete_absent(self):
        before = dict(self.live.stats)
        self._mutate(deleted=[{"a": 99, "b": 99, "c": 99}])
        assert self.live.stats == before

    @rule(
        inserted=st.lists(row_st, max_size=3),
        victims=st.lists(index_st, max_size=3),
    )
    def mixed_batch(self, inserted, victims):
        pool = list(self.bag)
        deleted = [
            pool.pop(i % len(pool)) for i in victims if pool
        ]
        if inserted or deleted:
            self._mutate(inserted=inserted, deleted=deleted)

    # -- revision rules ----------------------------------------------------

    def _revise(self, new_pref):
        shown, seen = len(self.live), self.live.seen()
        before = self.live.stats["examined"]
        delta, revision, strategy = self.live.revise(new_pref)
        self.pref = new_pref
        examined = self.live.stats["examined"] - before
        assert examined == {"none": 0, "view": shown, "full": seen}[strategy]
        self._reconcile(delta)

    @precondition(lambda self: self.top is None)
    @rule(stage=base_preference_st)
    def revise_prio_append(self, stage):
        self._revise(PrioritizedPreference((self.pref, stage)))

    @precondition(lambda self: isinstance(self.pref, PrioritizedPreference))
    @rule()
    def revise_prio_prefix(self):
        self._revise(self.pref.children[0])

    @precondition(lambda self: self.top is None)
    @rule(extra=base_preference_st)
    def revise_pareto_extend(self, extra):
        self._revise(ParetoPreference((self.pref, extra)))

    @precondition(lambda self: isinstance(self.pref, ParetoPreference))
    @rule()
    def revise_pareto_drop(self):
        self._revise(self.pref.children[0])

    @rule(data=st.data())
    def revise_unrelated(self, data):
        self._revise(data.draw(
            score_st if self.top is not None else base_preference_st
        ))

    # -- invariants --------------------------------------------------------

    @invariant()
    def result_is_the_winnow_of_the_bag(self):
        assert canon_rows(self.live.result()) == canon_rows(self._expected())
        assert self.live.seen() == len(self.bag)

    @invariant()
    def deltas_reconcile_a_mirror(self):
        assert self.mirror == Counter(canon_rows(self.live.result()))

    @invariant()
    def a_handed_bag_is_the_catalog_snapshot(self):
        if self.session_backed:
            assert self.live._bag is self.session.catalog.get("r")._rows


_MODES = {
    "Plain": {},
    "Grouped": {"groupby": ("c",)},
    "TopStrict": {"top": 2},
    "TopAll": {"top": 2, "ties": "all"},
}

for _name, _mode in _MODES.items():
    for _backing, _flag in (("Owned", False), ("Session", True)):
        _machine = type(
            f"{_name}{_backing}Machine",
            (MaintainerMachine,),
            {**_mode, "session_backed": _flag},
        )
        _case = _machine.TestCase
        _case.settings = settings(
            max_examples=25, stateful_step_count=20, deadline=None
        )
        globals()[f"Test{_name}{_backing}"] = _case
del _machine, _case
