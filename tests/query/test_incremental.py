"""Incremental BMO maintenance tests, including the live Example 9 replay
and a property: the window always equals the batch evaluation."""

from hypothesis import given, settings

from tests.conftest import nonempty_rows_st, preference_st

from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    ScorePreference,
)
from repro.core.constructors import pareto
from repro.query.algorithms import block_nested_loop
from repro.query.bmo import winnow_groupby
from repro.query.incremental import BMODelta, IncrementalBMO, merge_deltas
from repro.query.topk import k_best


def _keys(rows, attrs):
    return sorted(tuple(r[a] for a in attrs) for r in rows)


def _canon(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


class TestExample9Live:
    def test_non_monotonic_stream(self):
        pref = pareto(HighestPreference("fe"), HighestPreference("ir"))
        live = IncrementalBMO(pref)

        assert live.insert({"fe": 100, "ir": 3})          # frog
        assert not live.insert({"fe": 50, "ir": 3})       # cat: dominated
        assert live.result_size() == 1

        assert live.insert({"fe": 50, "ir": 10})          # shark widens
        assert live.result_size() == 2

        assert live.insert({"fe": 100, "ir": 10})         # turtle shrinks
        assert live.result_size() == 1
        assert live.result()[0] == {"fe": 100, "ir": 10}

    def test_stats(self):
        pref = HighestPreference("x")
        live = IncrementalBMO(pref)
        live.insert_many([{"x": 1}, {"x": 2}, {"x": 0}, {"x": 2}])
        assert live.stats == {
            "inserted": 4, "rejected": 1, "evicted": 1,
            "removed": 0, "resurrected": 0, "rebuilds": 0,
            "revisions": 0, "examined": 0,
        }
        # projection-equal duplicates share the maximal slot
        assert len(live) == 2 and live.result_size() == 1


class TestDeltas:
    def test_insert_delta_reports_evictions(self):
        pref = pareto(HighestPreference("fe"), HighestPreference("ir"))
        live = IncrementalBMO(pref)
        live.insert_many([{"fe": 100, "ir": 3}, {"fe": 50, "ir": 10}])
        delta = live.insert_delta({"fe": 100, "ir": 10})
        assert delta.entered == ({"fe": 100, "ir": 10},)
        assert _canon(delta.exited) == _canon(
            [{"fe": 100, "ir": 3}, {"fe": 50, "ir": 10}]
        )

    def test_dominated_arrival_is_empty_delta(self):
        live = IncrementalBMO(HighestPreference("x"))
        live.insert({"x": 5})
        delta = live.insert_delta({"x": 1})
        assert not delta and delta.entered == () and delta.exited == ()

    def test_remove_delta_reports_resurrection(self):
        live = IncrementalBMO(HighestPreference("x"))
        live.insert_many([{"x": 1}, {"x": 3}, {"x": 2}])
        delta = live.remove_delta({"x": 3})
        assert delta.exited == ({"x": 3},)
        assert delta.entered == ({"x": 2},)
        assert live.stats["rebuilds"] == 1
        assert live.stats["resurrected"] == 1

    def test_remove_missing_returns_none(self):
        live = IncrementalBMO(HighestPreference("x"))
        live.insert({"x": 1})
        assert live.remove_delta({"x": 99}) is None

    def test_remove_nonmaximum_is_empty_delta(self):
        live = IncrementalBMO(HighestPreference("x"))
        live.insert_many([{"x": 1}, {"x": 3}])
        delta = live.remove_delta({"x": 1})
        assert delta is not None and not delta

    def test_apply_merges_batch(self):
        pref = pareto(HighestPreference("fe"), HighestPreference("ir"))
        live = IncrementalBMO(pref)
        live.insert({"fe": 100, "ir": 3})
        delta = live.apply(
            inserted=[{"fe": 50, "ir": 10}, {"fe": 100, "ir": 10}]
        )
        # shark enters then exits within the batch: nets out entirely.
        assert _canon(delta.entered) == _canon([{"fe": 100, "ir": 10}])
        assert _canon(delta.exited) == _canon([{"fe": 100, "ir": 3}])

    def test_merge_deltas_cancels(self):
        a = BMODelta(entered=({"x": 1},))
        b = BMODelta(exited=({"x": 1},), entered=({"x": 2},))
        merged = merge_deltas([a, b])
        assert merged.entered == ({"x": 2},) and merged.exited == ()

    def test_to_dict_is_json_shaped(self):
        delta = BMODelta(entered=({"x": 1},), exited=({"x": 2},))
        assert delta.to_dict() == {"enter": [{"x": 1}], "exit": [{"x": 2}]}


class TestBMODeltaUnit:
    """Direct coverage of the delta algebra (previously only exercised
    through the server suites)."""

    def test_empty_delta_is_falsy(self):
        assert not BMODelta()
        assert not BMODelta(entered=(), exited=())
        assert bool(BMODelta(entered=({"x": 1},)))
        assert bool(BMODelta(exited=({"x": 1},)))

    def test_merge_preserves_arrival_order(self):
        deltas = [
            BMODelta(entered=({"x": 1},)),
            BMODelta(entered=({"x": 2},), exited=({"y": 9},)),
            BMODelta(entered=({"x": 3},), exited=({"y": 8},)),
        ]
        merged = merge_deltas(deltas)
        assert merged.entered == ({"x": 1}, {"x": 2}, {"x": 3})
        assert merged.exited == ({"y": 9}, {"y": 8})

    def test_merge_is_net_before_to_after(self):
        # enter then exit cancels; exit then re-enter cancels too.
        bounce_in = [
            BMODelta(entered=({"x": 1},)),
            BMODelta(exited=({"x": 1},)),
        ]
        assert not merge_deltas(bounce_in)
        bounce_out = [
            BMODelta(exited=({"x": 1},)),
            BMODelta(entered=({"x": 1},)),
        ]
        assert not merge_deltas(bounce_out)

    def test_merge_cancels_one_copy_per_occurrence(self):
        # Two enters and one exit of the same row net to one enter.
        merged = merge_deltas([
            BMODelta(entered=({"x": 1}, {"x": 1})),
            BMODelta(exited=({"x": 1},)),
        ])
        assert merged.entered == ({"x": 1},) and merged.exited == ()

    def test_merge_of_nothing_is_empty(self):
        assert not merge_deltas([])
        assert not merge_deltas([BMODelta(), BMODelta()])

    def test_eviction_then_resurrection_sequencing(self):
        """An arrival evicts a maximum; deleting the arrival resurrects
        it — and the two deltas merge to nothing."""
        live = IncrementalBMO(HighestPreference("x"))
        live.insert({"x": 1})
        evict = live.insert_delta({"x": 5})
        assert evict.entered == ({"x": 5},) and evict.exited == ({"x": 1},)
        assert live.stats["evicted"] == 1
        resurrect = live.remove_delta({"x": 5})
        assert resurrect.exited == ({"x": 5},)
        assert resurrect.entered == ({"x": 1},)
        assert live.stats["resurrected"] == 1
        assert not merge_deltas([evict, resurrect])

    def test_to_dict_copies_rows(self):
        row = {"x": 1}
        delta = BMODelta(entered=(row,))
        rendered = delta.to_dict()
        rendered["enter"][0]["x"] = 99
        assert row == {"x": 1}


class TestRevise:
    def test_refinement_from_view_candidates(self):
        live = IncrementalBMO(HighestPreference("x"))
        live.insert_many([{"x": 3, "y": 1}, {"x": 3, "y": 5}, {"x": 1, "y": 9}])
        delta, revision, strategy = live.revise(
            HighestPreference("x") & HighestPreference("y")
        )
        assert revision.shape == "prio-append" and strategy == "view"
        assert _canon(live.result()) == _canon([{"x": 3, "y": 5}])
        assert delta.exited == ({"x": 3, "y": 1},) and delta.entered == ()
        assert live.stats["revisions"] == 1
        # Restarted from the two old maxima, not from the three-row bag.
        assert live.stats["examined"] == 2

    def test_full_revision_rebuilds_from_history(self):
        live = IncrementalBMO(HighestPreference("x"))
        live.insert_many([{"x": 3, "y": 1}, {"x": 1, "y": 9}])
        delta, revision, strategy = live.revise(HighestPreference("y"))
        assert revision.kind == "incomparable" and strategy == "full"
        assert _canon(live.result()) == _canon([{"x": 1, "y": 9}])
        assert _canon(delta.entered) == _canon([{"x": 1, "y": 9}])
        assert _canon(delta.exited) == _canon([{"x": 3, "y": 1}])
        assert live.stats["examined"] == 2

    def test_history_survives_revision(self):
        live = IncrementalBMO(HighestPreference("x"))
        live.insert_many([{"x": 1}, {"x": 2}])
        delta, _, strategy = live.revise(HighestPreference("x"))
        assert strategy == "none" and not delta
        assert live.seen() == 2 and live.stats["examined"] == 0
        # Deletions after a revision still rebuild from the whole bag.
        live.remove({"x": 2})
        assert _canon(live.result()) == _canon([{"x": 1}])

    def test_contraction_rewinnows_the_bag(self):
        refined = HighestPreference("x") & HighestPreference("y")
        live = IncrementalBMO(refined)
        live.insert_many([{"x": 3, "y": 1}, {"x": 3, "y": 5}, {"x": 1, "y": 9}])
        delta, revision, strategy = live.revise(HighestPreference("x"))
        # The dominated frontier of a maintainer that holds the bag is
        # the bag: classified ``frontier``, run (and reported) as ``full``.
        assert revision.restart == "frontier" and strategy == "full"
        assert delta.entered == ({"x": 3, "y": 1},) and delta.exited == ()
        assert live.stats["examined"] == 3

    def test_failed_revision_keeps_the_old_result(self):
        import pytest

        live = IncrementalBMO(HighestPreference("x"))
        live.insert_many([{"x": 1}, {"x": 2}])
        with pytest.raises(KeyError):
            live.revise(HighestPreference("missing"))
        assert live.pref == HighestPreference("x")
        assert live.result() == [{"x": 2}]
        assert live.insert({"x": 3}) and live.result() == [{"x": 3}]

    def test_grouped_revision(self):
        live = IncrementalBMO(HighestPreference("x"), groupby=("g",))
        live.insert_many([
            {"g": 1, "x": 1}, {"g": 1, "x": 3}, {"g": 2, "x": 5},
        ])
        from repro.core.base_numerical import LowestPreference

        live.revise(LowestPreference("x"))
        assert _canon(live.result()) == _canon(
            [{"g": 1, "x": 1}, {"g": 2, "x": 5}]
        )

    def test_ranked_revision_reseeds_from_history(self):
        score = ScorePreference("x", lambda v: v, name="x")
        flipped = ScorePreference("x", lambda v: -v, name="negx")
        live = IncrementalBMO(score, top=2)
        live.insert_many([{"x": 1}, {"x": 5}, {"x": 3}])
        live.revise(flipped)
        assert live.result() == k_best(
            flipped, [{"x": 1}, {"x": 5}, {"x": 3}], 2
        )

    def test_ranked_revision_needs_score_preference(self):
        import pytest

        score = ScorePreference("x", lambda v: v, name="x")
        live = IncrementalBMO(score, top=2)
        with pytest.raises(TypeError):
            live.revise(HighestPreference("x") & HighestPreference("y"))


class TestRemoval:
    def test_removing_a_maximum_resurrects(self):
        pref = HighestPreference("x")
        live = IncrementalBMO(pref)
        live.insert_many([{"x": 1}, {"x": 3}, {"x": 2}])
        assert _keys(live.result(), ("x",)) == [(3,)]
        assert live.remove({"x": 3})
        assert _keys(live.result(), ("x",)) == [(2,)]

    def test_remove_missing_is_false(self):
        live = IncrementalBMO(HighestPreference("x"))
        live.insert({"x": 1})
        assert not live.remove({"x": 99})
        assert live.seen() == 1

    def test_remove_one_duplicate_keeps_other(self):
        live = IncrementalBMO(HighestPreference("x"))
        live.insert_many([{"x": 5}, {"x": 5}])
        assert live.remove({"x": 5})
        assert _keys(live.result(), ("x",)) == [(5,)]


class TestGroupedMaintenance:
    def test_per_group_windows(self):
        live = IncrementalBMO(HighestPreference("x"), groupby=("g",))
        live.insert_many([
            {"g": 1, "x": 1}, {"g": 1, "x": 3},
            {"g": 2, "x": 5}, {"g": 2, "x": 4},
        ])
        assert _canon(live.result()) == _canon(
            [{"g": 1, "x": 3}, {"g": 2, "x": 5}]
        )
        assert live.result_size() == 2

    def test_matches_batch_groupby(self):
        rows = [
            {"g": g, "x": x} for g in (1, 2, 3) for x in (4, 2, 4, 1)
        ]
        live = IncrementalBMO(HighestPreference("x"), groupby=("g",))
        live.insert_many(rows)
        batch = winnow_groupby(HighestPreference("x"), ("g",), rows)
        assert _canon(live.result()) == _canon(batch)

    def test_remove_rebuilds_only_the_touched_group(self):
        live = IncrementalBMO(HighestPreference("x"), groupby=("g",))
        live.insert_many([
            {"g": 1, "x": 3}, {"g": 1, "x": 2}, {"g": 2, "x": 5},
        ])
        delta = live.remove_delta({"g": 1, "x": 3})
        assert delta.exited == ({"g": 1, "x": 3},)
        assert delta.entered == ({"g": 1, "x": 2},)
        assert live.stats["rebuilds"] == 1
        assert _canon(live.result()) == _canon(
            [{"g": 1, "x": 2}, {"g": 2, "x": 5}]
        )

    def test_emptied_group_disappears(self):
        live = IncrementalBMO(HighestPreference("x"), groupby=("g",))
        live.insert_many([{"g": 1, "x": 1}, {"g": 2, "x": 2}])
        live.remove({"g": 1, "x": 1})
        assert _canon(live.result()) == _canon([{"g": 2, "x": 2}])
        assert live.result_size() == 1


class TestRankedMaintenance:
    def _score(self):
        return ScorePreference("x", lambda v: v, name="x")

    def test_matches_k_best(self):
        rows = [{"x": v} for v in (3, 1, 4, 1, 5, 9, 2, 6)]
        live = IncrementalBMO(self._score(), top=3)
        live.insert_many(rows)
        assert live.result() == k_best(self._score(), rows, 3)

    def test_ties_all_extends_cut(self):
        rows = [{"x": v} for v in (5, 5, 5, 1)]
        live = IncrementalBMO(self._score(), top=2, ties="all")
        live.insert_many(rows)
        assert live.result() == k_best(self._score(), rows, 2, ties="all")

    def test_insert_delta_reports_cut_change(self):
        live = IncrementalBMO(self._score(), top=2)
        live.insert_many([{"x": 1}, {"x": 5}])
        delta = live.insert_delta({"x": 3})
        assert delta.entered == ({"x": 3},)
        assert delta.exited == ({"x": 1},)

    def test_remove_promotes_runner_up(self):
        live = IncrementalBMO(self._score(), top=2)
        live.insert_many([{"x": 1}, {"x": 5}, {"x": 3}])
        delta = live.remove_delta({"x": 5})
        assert delta.exited == ({"x": 5},)
        assert delta.entered == ({"x": 1},)
        assert live.result() == [{"x": 3}, {"x": 1}]

    def test_needs_score_preference(self):
        import pytest

        pareto_pref = pareto(HighestPreference("x"), HighestPreference("y"))
        with pytest.raises(TypeError):
            IncrementalBMO(pareto_pref, top=2)


class TestAgreementProperty:
    @given(preference_st(max_depth=3), nonempty_rows_st)
    @settings(max_examples=50)
    def test_window_equals_batch(self, pref, rows):
        live = IncrementalBMO(pref)
        live.insert_many(rows)
        batch = block_nested_loop(pref, rows)
        key = lambda r: tuple(sorted(r.items()))
        assert sorted(map(key, live.result())) == sorted(map(key, batch))

    @given(nonempty_rows_st)
    def test_window_equals_batch_after_removal(self, rows):
        pref = pareto(AroundPreference("a", 2), HighestPreference("b"))
        live = IncrementalBMO(pref)
        live.insert_many(rows)
        live.remove(rows[0])
        batch = block_nested_loop(pref, rows[1:])
        key = lambda r: tuple(sorted(r.items()))
        assert sorted(map(key, live.result())) == sorted(map(key, batch))
