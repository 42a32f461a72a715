"""BMO query model tests (Definitions 14-16, Example 9)."""

import pytest

from repro.core.base_nonnumerical import ExplicitPreference, PosPreference
from repro.core.base_numerical import (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import pareto, prioritized
from repro.core.preference import AntiChain
from repro.query.bmo import (
    is_dream,
    perfect_matches,
    result_size,
    winnow,
    winnow_groupby,
)
from repro.relations.relation import Relation


class TestBmo:
    def test_returns_relation_for_relation(self):
        rel = Relation.from_dicts("r", [{"x": 1}, {"x": 2}])
        out = winnow(HighestPreference("x"), rel)
        assert isinstance(out, Relation)
        assert out.rows() == [{"x": 2}]

    def test_reads_a_relation_in_place_and_hands_out_copies(self, monkeypatch):
        """No defensive copy on the way in (the evaluators only read);
        the copy a caller may edit is made on the way out, by rows()."""
        rel = Relation.from_dicts("r", [{"x": 1}, {"x": 2}, {"x": 2}])
        copies = []
        inner = Relation.rows

        def spy(self):
            copies.append(self)
            return inner(self)

        monkeypatch.setattr(Relation, "rows", spy)
        out = winnow(HighestPreference("x"), rel)
        grouped = winnow_groupby(HighestPreference("x"), ["x"], rel)
        assert copies == []
        assert len(out) == 2 and len(grouped) == 3
        for row in out.rows():
            row["x"] = -1
        assert rel.rows() == [{"x": 1}, {"x": 2}, {"x": 2}]
        assert out.rows() == [{"x": 2}, {"x": 2}]

    def test_returns_list_for_list(self):
        out = winnow(HighestPreference("x"), [{"x": 1}, {"x": 2}])
        assert out == [{"x": 2}]

    def test_keeps_all_tuples_of_maximal_projection(self):
        rows = [
            {"x": 2, "tag": "first"},
            {"x": 2, "tag": "second"},
            {"x": 1, "tag": "loser"},
        ]
        out = winnow(HighestPreference("x"), rows)
        assert {r["tag"] for r in out} == {"first", "second"}

    def test_empty_input(self):
        assert winnow(HighestPreference("x"), []) == []

    def test_never_empty_on_nonempty_input(self):
        # BMO solves the empty-result problem: some maximum always exists.
        rows = [{"x": v} for v in (5, 1, 9)]
        assert winnow(AroundPreference("x", 100), rows)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            winnow(HighestPreference("x"), [{"x": 1}], algorithm="magic")

    def test_callable_algorithm(self):
        called = []

        def engine(pref, rows):
            called.append(len(rows))
            return rows

        winnow(HighestPreference("x"), [{"x": 1}], algorithm=engine)
        assert called == [1]

    def test_example9_non_monotonicity(self):
        pref = pareto(
            HighestPreference("fuel_economy"), HighestPreference("insurance")
        )
        frog = {"fuel_economy": 100, "insurance": 3, "name": "frog"}
        cat = {"fuel_economy": 50, "insurance": 3, "name": "cat"}
        shark = {"fuel_economy": 50, "insurance": 10, "name": "shark"}
        turtle = {"fuel_economy": 100, "insurance": 10, "name": "turtle"}
        assert {r["name"] for r in winnow(pref, [frog, cat])} == {"frog"}
        assert {r["name"] for r in winnow(pref, [frog, cat, shark])} == {
            "frog", "shark",
        }
        assert {r["name"] for r in winnow(pref, [frog, cat, shark, turtle])} == {
            "turtle",
        }


class TestGroupby:
    def test_definition_16(self):
        rows = [
            {"make": "Audi", "price": 40000},
            {"make": "BMW", "price": 35000},
            {"make": "BMW", "price": 50000},
        ]
        out = winnow_groupby(AroundPreference("price", 40000), ["make"], rows)
        assert len(out) == 2
        assert {r["price"] for r in out} == {40000, 35000}

    def test_groupby_equals_antichain_prioritized(self, probe_rows):
        # sigma[P groupby A](R) == sigma[A<-> & P](R), by definition.
        pref = AroundPreference("b", 2)
        grouped = winnow_groupby(pref, ["a"], probe_rows[::3])
        via_term = winnow(prioritized(AntiChain("a"), pref), probe_rows[::3])
        key = lambda r: (r["a"], r["b"], r["c"])
        assert sorted(map(key, grouped)) == sorted(map(key, via_term))


class TestResultSize:
    def test_counts_distinct_projections(self):
        rows = [{"x": 2, "y": 1}, {"x": 2, "y": 2}, {"x": 1, "y": 1}]
        assert result_size(HighestPreference("x"), rows) == 1

    def test_bounds(self):
        rows = [{"x": v} for v in range(5)]
        size = result_size(AroundPreference("x", 2), rows)
        assert 1 <= size <= 5


class TestPerfectMatches:
    def test_definition_14b(self):
        # Example 8: red is a perfect match (maximal in the whole domain).
        pref = ExplicitPreference(
            "color",
            [("green", "yellow"), ("green", "red"), ("yellow", "white")],
        )
        rows = [{"color": c} for c in ("yellow", "red", "green", "black")]
        perfect = perfect_matches(pref, rows)
        assert [r["color"] for r in perfect] == ["red"]
        best = winnow(pref, rows)
        # Perfect matches are best matches, not conversely: yellow is best
        # available but not a dream (white beats it in the domain).
        assert {r["color"] for r in best} == {"yellow", "red"}

    def test_is_dream_layered(self):
        pref = PosPreference("c", {"red"})
        assert is_dream(pref, "red") is True
        assert is_dream(pref, "blue") is False

    def test_is_dream_numeric(self):
        pref = BetweenPreference("x", 2, 4)
        assert is_dream(pref, 3) is True
        assert is_dream(pref, 9) is False

    def test_is_dream_compound(self):
        pref = pareto(PosPreference("a", {1}), BetweenPreference("b", 0, 2))
        assert is_dream(pref, {"a": 1, "b": 1}) is True
        assert is_dream(pref, {"a": 0, "b": 1}) is False

    def test_is_dream_unknown_for_score(self):
        from repro.core.base_numerical import ScorePreference

        pref = ScorePreference("x", lambda v: v, name="id")
        assert is_dream(pref, 5) is None

    def test_antichain_everything_is_dream(self):
        assert is_dream(AntiChain("x"), 42) is True
