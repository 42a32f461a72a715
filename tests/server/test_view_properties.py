"""Property suite: continuous views always equal the batch winnow.

Hypothesis drives a random interleaving of inserts and deletes through a
:class:`ContinuousView` and asserts, after every step, that the maintained
result is exactly the batch ``winnow`` (or grouped winnow / k-best) of the
rows that survive — for arbitrary preference terms, including grouped
winnows and preferences with substitutable values (SV-style ties: layered
terms where distinct values share a level, so projection-different rows
are equally good)."""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from tests.conftest import canon_rows as _canon, preference_st, step_st

from repro.core.base_nonnumerical import PosPreference
from repro.core.base_numerical import ScorePreference
from repro.query.bmo import winnow, winnow_groupby
from repro.query.topk import k_best
from repro.server.views import ContinuousView, ViewSpec
from repro.session import MutationEvent


def _replay(view_spec: ViewSpec, steps, batch_of):
    """Drive the view through the interleaving, checking every step."""
    view = ContinuousView(view_spec)
    view.seed([], version=0)
    survivors: list[dict] = []
    for version, (kind, payload) in enumerate(steps, start=1):
        if kind == "insert":
            survivors.append(dict(payload))
            event = MutationEvent(
                view_spec.relation, inserted=(dict(payload),),
                version=version,
            )
        else:
            if not survivors:
                continue
            # A MutationEvent names the deleted row by value, and the
            # catalog (which the view follows) removes the *first* equal
            # stored row; strict ties break by position, so the oracle's
            # survivors must lose the same copy.
            victim = survivors[payload % len(survivors)]
            survivors.remove(victim)
            event = MutationEvent(
                view_spec.relation, deleted=(dict(victim),),
                version=version,
            )
        before = [tuple(sorted(r.items())) for r in view.rows()]
        delta = view.refresh(event)
        after = _canon(view.rows())
        assert after == _canon(batch_of(survivors)), (
            f"view diverged from batch after {kind} #{version}"
        )
        # The reported delta must account exactly for the visible change:
        # before - exited + entered == after, as multisets.
        accounted = list(before)
        for row in delta.exited:
            accounted.remove(tuple(sorted(row.items())))
        for row in delta.entered:
            accounted.append(tuple(sorted(row.items())))
        assert sorted(accounted) == after


@given(preference_st(max_depth=3), st.lists(step_st, max_size=25))
@settings(max_examples=40)
def test_view_equals_batch_for_arbitrary_preferences(pref, steps):
    _replay(
        ViewSpec("r", pref),
        steps,
        lambda survivors: winnow(pref, survivors),
    )


@given(preference_st(max_depth=2), st.lists(step_st, max_size=25))
@settings(max_examples=30)
def test_grouped_view_equals_batch_groupby(pref, steps):
    groupby = ("c",) if "c" not in pref.attributes else ("a",)
    _replay(
        ViewSpec("r", pref, groupby=groupby),
        steps,
        lambda survivors: winnow_groupby(pref, groupby, survivors),
    )


@given(st.lists(step_st, max_size=25), st.integers(min_value=1, max_value=4),
       st.sampled_from(["strict", "all"]))
@example(
    steps=[
        ("insert", {"a": 0, "b": 1, "c": 0}),
        ("insert", {"a": 0, "b": 0, "c": 0}),
        ("insert", {"a": 0, "b": 1, "c": 0}),
        ("delete", 8),  # index 2, the later of two equal rows
    ],
    k=1,
    ties="strict",
)
@settings(max_examples=30)
def test_ranked_view_equals_k_best(steps, k, ties):
    pref = ScorePreference("a", lambda v: v, name="a")
    _replay(
        ViewSpec("r", pref, top=k, ties=ties),
        steps,
        lambda survivors: k_best(pref, survivors, k, ties=ties),
    )


@given(st.lists(step_st, max_size=25))
@settings(max_examples=30)
def test_sv_style_ties_stay_consistent(steps):
    """Substitutable values: every row with a in {3, 4} is equally good,
    so the view carries whole layers of projection-different maxima."""
    pref = PosPreference("a", {3, 4})
    _replay(
        ViewSpec("r", pref),
        steps,
        lambda survivors: winnow(pref, survivors),
    )
