"""Metamorphic property suite for preference revision.

The ground truth is always the from-scratch evaluation: after any chain of
revisions, the one maintainer (:class:`~repro.query.incremental
.IncrementalBMO`) must hold exactly ``winnow(P', R)`` (element-wise,
duplicates included) — whether the revision restarted from the view or
re-winnowed the bag.  Hypothesis drives random base relations and random
refinement / contraction chains over arbitrary preference terms (SV-style
ties included via the layered constructors), plus the grouped and ranked
top-k shapes; which restart ran, and how many rows it read, is asserted
via the returned strategy and the maintainer's honest stats.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import (
    base_preference_st,
    canon_rows,
    nonempty_rows_st,
    preference_st,
    rows_st,
)

from repro.core.base_nonnumerical import PosPreference
from repro.core.base_numerical import (
    HighestPreference,
    LowestPreference,
    ScorePreference,
)
from repro.core.constructors import ParetoPreference, PrioritizedPreference
from repro.query.bmo import winnow, winnow_groupby
from repro.query.incremental import IncrementalBMO
from repro.query.revision import classify_revision
from repro.query.topk import k_best


# -- classification laws -----------------------------------------------------------


@given(preference_st(max_depth=3))
def test_identity_is_equal(pref):
    revision = classify_revision(pref, pref)
    assert revision.kind == "equal" and revision.restart == "none"


@given(preference_st(max_depth=2), base_preference_st)
def test_prio_append_refines(pref, stage):
    revision = classify_revision(pref, PrioritizedPreference((pref, stage)))
    assert revision.kind in ("equal", "refinement")
    if revision.kind == "refinement":
        assert revision.shape == "prio-append"
        assert revision.restart == "view"
        assert "Definition 9" in revision.law


@given(preference_st(max_depth=2), base_preference_st)
def test_prio_drop_contracts(pref, stage):
    revision = classify_revision(PrioritizedPreference((pref, stage)), pref)
    assert revision.kind in ("equal", "contraction")
    if revision.kind == "contraction":
        assert revision.shape == "prio-prefix"
        assert revision.restart == "frontier"


@given(preference_st(max_depth=2), base_preference_st)
def test_pareto_extend_is_frontier_class(pref, extra):
    revision = classify_revision(pref, ParetoPreference((pref, extra)))
    # A (x)-appended component can promote previously dominated rows, so
    # the pareto-extend shape must never claim the view-only restart.
    # (simplify may canonicalize the Pareto away — e.g. antichain
    # components vanish — in which case another, still-sound shape wins.)
    if revision.shape == "pareto-extend":
        assert revision.kind == "refinement"
        assert revision.restart == "frontier"


@given(preference_st(max_depth=2), preference_st(max_depth=2))
def test_classification_is_total(old, new):
    revision = classify_revision(old, new)
    assert revision.kind in (
        "equal", "refinement", "contraction", "incomparable"
    )
    assert revision.restart in ("none", "view", "frontier", "full")


def test_chain_append_layer_extension():
    from repro.core.base_nonnumerical import PosPosPreference

    pos = PosPreference("a", {3, 4})
    split = PosPosPreference("a", {3}, {4})
    # POS({3,4}) -> POS({3})/POS({4}) splits the top layer in two: every
    # old order pair survives and 4-rows drop below 3-rows.
    revision = classify_revision(pos, split)
    assert revision.kind == "refinement"
    assert revision.shape == "chain-append"
    assert revision.restart == "view"
    back = classify_revision(split, pos)
    assert back.kind == "contraction" and back.shape == "layer-drop"
    assert back.restart == "frontier"


def test_unordered_pareto_arm_is_not_a_noop():
    """An appended Pareto arm that orders nothing on the instance (a
    BETWEEN covering the value range) still separates rows that differ
    on it, so only an arm over constants upgrades to ``equal``; a
    prioritized tail that orders nothing does."""
    from repro.analysis.constraints import ConstraintSet
    from repro.core.base_numerical import BetweenPreference
    from repro.relations.schema import Check

    low = LowestPreference("b")
    between = BetweenPreference("a", 0, 1)
    covered = ConstraintSet([Check("a", ">=", 0), Check("a", "<=", 1)])
    constant = ConstraintSet([Check("a", "=", 1)])
    extended = ParetoPreference((low, between))
    assert classify_revision(low, extended, covered).restart == "frontier"
    assert classify_revision(low, extended, constant).restart == "none"
    appended = PrioritizedPreference((low, between))
    assert classify_revision(low, appended, covered).restart == "none"
    rows = [{"a": 0, "b": 0, "c": 0}, {"a": 1, "b": 1, "c": 0}]
    state = IncrementalBMO(low)
    state.load(rows)
    state.revise(extended, constraints=covered)
    assert canon_rows(state.result()) == canon_rows(winnow(extended, rows))


def test_rejects_non_preferences():
    with pytest.raises(TypeError):
        classify_revision(PosPreference("a", {1}), "not a preference")


# -- revision-from-view equals from-scratch ----------------------------------------


def _seeded(pref, rows, **modes):
    state = IncrementalBMO(pref, **modes)
    state.load(rows)
    return state


def _assert_exact(state, pref, rows):
    assert canon_rows(state.result()) == canon_rows(winnow(pref, rows))


@given(preference_st(max_depth=2), base_preference_st, rows_st)
def test_refinement_from_view_equals_scratch(pref, stage, rows):
    state = _seeded(pref, rows)
    view_size = len(state)
    refined = PrioritizedPreference((pref, stage))
    _, revision, strategy = state.revise(refined)
    _assert_exact(state, refined, rows)
    if revision.shape == "prio-append":
        assert strategy == "view"
        assert state.stats["examined"] == view_size


@given(preference_st(max_depth=2), base_preference_st, rows_st)
def test_contraction_from_frontier_equals_scratch(pref, stage, rows):
    state = _seeded(PrioritizedPreference((pref, stage)), rows)
    _, revision, strategy = state.revise(pref)
    _assert_exact(state, pref, rows)
    if revision.kind == "contraction":
        # The frontier of a maintainer that holds the bag is the bag.
        assert revision.restart == "frontier" and strategy == "full"
        assert state.stats["examined"] == len(rows)


@given(preference_st(max_depth=2), base_preference_st, rows_st)
def test_pareto_extension_equals_scratch(pref, extra, rows):
    state = _seeded(pref, rows)
    extended = ParetoPreference((pref, extra))
    state.revise(extended)
    _assert_exact(state, extended, rows)


@given(preference_st(max_depth=2), preference_st(max_depth=2), rows_st)
def test_incomparable_fallback_is_exact(old, new, rows):
    """Whatever the classification, the revised state is exact — and a
    full recompute is recorded honestly when it happens."""
    state = _seeded(old, rows)
    _, revision, strategy = state.revise(new)
    _assert_exact(state, new, rows)
    if revision.kind == "incomparable":
        assert strategy == "full"
        assert state.stats["examined"] == len(rows)


@given(
    preference_st(max_depth=2),
    st.lists(
        st.tuples(st.sampled_from(["prio", "pareto", "drop"]),
                  base_preference_st),
        min_size=1, max_size=4,
    ),
    rows_st,
)
def test_revision_chains_stay_exact(pref, chain, rows):
    """Random refinement/contraction chains: the state equals the
    from-scratch winnow after every single step."""
    state = _seeded(pref, rows)
    current = pref
    for kind, stage in chain:
        if kind == "prio":
            current = PrioritizedPreference((current, stage))
        elif kind == "pareto":
            current = ParetoPreference((current, stage))
        elif isinstance(current, (PrioritizedPreference, ParetoPreference)):
            current = current.children[0]  # drop the appended tail
        state.revise(current)
        _assert_exact(state, current, rows)
    assert state.stats["revisions"] == len(chain)


@given(st.lists(st.sampled_from([3, 4, 0, 1]), min_size=0, max_size=20))
def test_sv_ties_survive_revision(values):
    """Substitutable values: whole layers of projection-different rows are
    equally good; refining by a tiebreaker keeps exactly the right ones."""
    rows = [{"a": v, "b": i % 3, "c": 0} for i, v in enumerate(values)]
    pos = PosPreference("a", {3, 4})
    state = _seeded(pos, rows)
    refined = PrioritizedPreference((pos, HighestPreference("b")))
    _, _, strategy = state.revise(refined)
    _assert_exact(state, refined, rows)
    assert strategy in ("none", "view")


# -- grouped and ranked shapes -----------------------------------------------------


@given(preference_st(max_depth=2), base_preference_st, nonempty_rows_st)
def test_grouped_revision_equals_scratch(pref, stage, rows):
    groupby = ("c",) if "c" not in pref.attributes else ("a",)
    state = _seeded(pref, rows, groupby=groupby)
    refined = PrioritizedPreference((pref, stage))
    state.revise(refined)
    assert canon_rows(state.result()) == canon_rows(
        winnow_groupby(refined, groupby, rows)
    )


@given(nonempty_rows_st, st.integers(min_value=1, max_value=4),
       st.sampled_from(["strict", "all"]))
def test_ranked_revision_equals_k_best(rows, k, ties):
    score = ScorePreference("a", lambda v: v, name="up")
    flipped = ScorePreference("a", lambda v: -v, name="down")
    state = _seeded(score, rows, top=k, ties=ties)
    assert canon_rows(state.result()) == canon_rows(
        k_best(score, rows, k, ties=ties)
    )
    _, _, strategy = state.revise(flipped)
    # A changed score function reorders the whole cut: never view-class.
    assert strategy == "full"
    assert canon_rows(state.result()) == canon_rows(
        k_best(flipped, rows, k, ties=ties)
    )


def test_ranked_identity_revision_is_noop():
    score = HighestPreference("a")
    rows = [{"a": v} for v in (5, 1, 3, 2)]
    state = _seeded(score, rows, top=2)
    delta, _, strategy = state.revise(score)
    assert strategy == "none" and not delta
    assert state.stats["examined"] == 0


def test_ranked_state_rejects_non_score_terms():
    with pytest.raises(TypeError):
        IncrementalBMO(
            ParetoPreference(
                (HighestPreference("a"), HighestPreference("b"))
            ),
            top=2,
        )


# -- the restarts, asserted via stats ----------------------------------------------


def test_full_recompute_from_retained_rows_needs_no_reload():
    """The maintainer holds the bag, so an incomparable delta recomputes
    exactly without being handed the relation again."""
    rows = [{"a": v, "b": 9 - v, "c": 0} for v in range(10)]
    state = _seeded(LowestPreference("a"), rows)
    _, _, strategy = state.revise(LowestPreference("b"))
    assert strategy == "full"
    _assert_exact(state, LowestPreference("b"), rows)


@given(rows_st)
def test_frontier_plus_view_is_the_relation(rows):
    """What a frontier-class revision draws from is the whole bag — so it
    is exact for any relation size, with nothing to truncate."""
    low = LowestPreference("a")
    state = _seeded(PrioritizedPreference((low, HighestPreference("b"))), rows)
    assert state.seen() == len(rows)
    _, revision, _ = state.revise(low)
    assert revision.restart == "frontier"
    assert state.stats["examined"] == len(rows)
    _assert_exact(state, low, rows)


@settings(max_examples=20)
@given(nonempty_rows_st)
def test_view_restart_examines_fewer_rows(rows):
    """The point of the exercise: a proved refinement looks only at the
    view, never at the whole relation."""
    low = LowestPreference("a")
    state = _seeded(low, rows)
    view_size = len(state.result())
    _, _, strategy = state.revise(
        PrioritizedPreference((low, LowestPreference("b")))
    )
    if strategy == "view":
        assert state.stats["examined"] == view_size <= len(rows)
