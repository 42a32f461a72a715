"""k-best and threshold algorithm tests (Section 6.2)."""

import pytest

from repro.core.base_numerical import HighestPreference, ScorePreference
from repro.core.constructors import rank
from repro.query.topk import k_best, threshold_topk
from repro.relations.relation import Relation


def scored_rows(n: int = 20):
    return [{"x": i, "y": (i * 7) % n} for i in range(n)]


class TestTopK:
    def test_best_first(self):
        out = k_best(HighestPreference("x"), scored_rows(), 3)
        assert [r["x"] for r in out] == [19, 18, 17]

    def test_relation_in_relation_out(self):
        rel = Relation.from_dicts("r", scored_rows())
        out = k_best(HighestPreference("x"), rel, 2)
        assert isinstance(out, Relation) and len(out) == 2

    def test_ties_strict_vs_all(self):
        rows = [{"x": 5, "i": 1}, {"x": 5, "i": 2}, {"x": 4, "i": 3}]
        strict = k_best(HighestPreference("x"), rows, 1, ties="strict")
        assert len(strict) == 1
        all_ties = k_best(HighestPreference("x"), rows, 1, ties="all")
        assert {r["i"] for r in all_ties} == {1, 2}

    def test_k_larger_than_input(self):
        out = k_best(HighestPreference("x"), scored_rows(3), 10)
        assert len(out) == 3

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            k_best(HighestPreference("x"), scored_rows(), 0)
        with pytest.raises(ValueError):
            k_best(HighestPreference("x"), scored_rows(), 1, ties="fuzzy")
        from repro.core.base_nonnumerical import PosPreference

        with pytest.raises(TypeError):
            k_best(PosPreference("x", {1}), scored_rows(), 1)


class TestThresholdTopK:
    def rank_pref(self):
        return rank(
            lambda a, b: a + b,
            ScorePreference("x", float, name="fx"),
            ScorePreference("y", float, name="fy"),
            name="sum",
        )

    def test_matches_full_scan(self):
        rows = scored_rows(50)
        pref = self.rank_pref()
        expected = k_best(pref, rows, 5)
        got, _ = threshold_topk(pref, rows, 5)
        assert sorted(pref.score(r) for r in got) == sorted(
            pref.score(r) for r in expected
        )

    def test_stops_early(self):
        # Correlated scores: the best rows sit at the top of both lists, so
        # the threshold drops below the k-th aggregate within a few rounds.
        rows = [{"x": i, "y": i + (i % 3)} for i in range(200)]
        _, stats = threshold_topk(self.rank_pref(), rows, 5)
        assert stats.objects_seen < 50

    def test_requires_rank_preference(self):
        with pytest.raises(TypeError):
            threshold_topk(HighestPreference("x"), scored_rows(), 1)

    def test_empty_input(self):
        got, stats = threshold_topk(self.rank_pref(), [], 3)
        assert got == [] and stats.objects_seen == 0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            threshold_topk(self.rank_pref(), scored_rows(), 0)
