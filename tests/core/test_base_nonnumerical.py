"""Tests for POS, NEG, POS/NEG, POS/POS, EXPLICIT (Definition 6)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.base_nonnumerical import (
    ExplicitPreference,
    LayeredPreference,
    NegPreference,
    OTHERS,
    PosNegPreference,
    PosPosPreference,
    PosPreference,
)
from repro.core.validate import check_strict_partial_order

COLORS = ["red", "green", "blue", "yellow", "black", "white"]


class TestPos:
    def test_definition_6a(self):
        p = PosPreference("color", {"red", "blue"})
        # x <_P y iff x not in POS-set and y in POS-set
        assert p.lt("green", "red")
        assert not p.lt("red", "blue")       # both favorites: unranked
        assert not p.lt("green", "yellow")   # both others: unranked
        assert not p.lt("red", "green")

    def test_levels(self):
        p = PosPreference("color", {"red"})
        assert p.level("red") == 1
        assert p.level("green") == 2

    def test_empty_pos_set_rejected(self):
        with pytest.raises(ValueError):
            PosPreference("color", set())

    def test_is_spo(self):
        check_strict_partial_order(PosPreference("color", {"red"}), COLORS)


class TestNeg:
    def test_definition_6b(self):
        p = NegPreference("color", {"gray", "purple"})
        assert p.lt("gray", "red")
        assert not p.lt("red", "gray")
        assert not p.lt("gray", "purple")

    def test_levels(self):
        p = NegPreference("color", {"gray"})
        assert p.level("red") == 1
        assert p.level("gray") == 2

    def test_is_spo(self):
        check_strict_partial_order(NegPreference("color", {"red"}), COLORS)


class TestPosNeg:
    def test_definition_6c(self):
        p = PosNegPreference("color", {"yellow"}, {"gray"})
        assert p.level("yellow") == 1
        assert p.level("red") == 2
        assert p.level("gray") == 3
        assert p.lt("gray", "red")
        assert p.lt("red", "yellow")
        assert p.lt("gray", "yellow")  # transitivity across levels

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError):
            PosNegPreference("color", {"red"}, {"red"})

    def test_is_spo(self):
        check_strict_partial_order(
            PosNegPreference("color", {"yellow"}, {"gray"}), COLORS + ["gray"]
        )


class TestPosPos:
    def test_definition_6d(self):
        p = PosPosPreference("category", {"cabriolet"}, {"roadster"})
        assert p.level("cabriolet") == 1
        assert p.level("roadster") == 2
        assert p.level("van") == 3
        assert p.lt("roadster", "cabriolet")
        assert p.lt("van", "roadster")
        assert p.lt("van", "cabriolet")

    def test_is_spo(self):
        check_strict_partial_order(
            PosPosPreference("c", {"x"}, {"y"}), ["x", "y", "z", "w"]
        )


class TestLayered:
    def test_at_most_one_others(self):
        with pytest.raises(ValueError):
            LayeredPreference("a", [OTHERS, {1}, OTHERS])

    def test_layers_must_be_disjoint(self):
        with pytest.raises(ValueError):
            LayeredPreference("a", [{1, 2}, {2, 3}])

    def test_value_outside_all_layers_without_others(self):
        p = LayeredPreference("a", [{1}, {2}])
        assert p.level(3) is None
        assert not p.lt(3, 1) and not p.lt(1, 3)  # unranked, not an error

    def test_needs_layers(self):
        with pytest.raises(ValueError):
            LayeredPreference("a", [])


REPR_SCRIPT = """
from repro.core.base_nonnumerical import (
    OTHERS, LayeredPreference, NegPreference, PosNegPreference,
    PosPosPreference, PosPreference,
)
from repro.session import Session

colors = {"red", "green", "silver", "blue", "black", "white", "yellow"}
terms = [
    PosPreference("color", colors),
    NegPreference("color", colors),
    PosNegPreference("color", {"red", "green", "silver"}, {"blue", "black"}),
    PosPosPreference("color", {"red", "green", "silver"}, {1, "blue", 2.5}),
    LayeredPreference("color", [{"red", "green", "silver"}, OTHERS]),
    PosPosPreference("color", {"red"}, frozenset()),
]
for term in terms:
    print(repr(term))
rows = [{"color": c, "price": i} for i, c in enumerate(sorted(colors))]
query = Session({"car": rows}, storage="memory").query("car")
print(query.prefer(PosPreference("color", colors)).explain())
"""


def _repr_under_hash_seed(seed: str) -> str:
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
    done = subprocess.run(
        [sys.executable, "-c", REPR_SCRIPT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_reprs_and_explain_do_not_depend_on_string_hashing():
    """A layered term prints its sets sorted (mixed types by type name,
    then repr), so one plan explains alike in every process."""
    first = _repr_under_hash_seed("1")
    assert first == _repr_under_hash_seed("2")
    assert "POS(color, {'black', 'blue', 'green', " in first
    assert "{2.5, 1, 'blue'}" in first
    assert "POS/POS(color, {'red'}; set())" in first


class TestExplicit:
    def example1(self) -> ExplicitPreference:
        return ExplicitPreference(
            "color",
            [("green", "yellow"), ("green", "red"), ("yellow", "white")],
        )

    def test_transitive_closure_induced(self):
        p = self.example1()
        assert p.lt("green", "yellow")
        assert p.lt("green", "white")  # via yellow
        assert not p.lt("white", "green")

    def test_in_graph_values_unranked_without_path(self):
        p = self.example1()
        # yellow and red are both in the graph but on no common path.
        assert not p.lt("yellow", "red") and not p.lt("red", "yellow")

    def test_others_below_graph(self):
        p = self.example1()
        assert p.lt("brown", "green")     # any other < every graph value
        assert not p.lt("green", "brown")
        assert not p.lt("brown", "black")  # two others: unranked

    def test_levels_match_example_1(self):
        p = self.example1()
        assert p.level("white") == 1 and p.level("red") == 1
        assert p.level("yellow") == 2
        assert p.level("green") == 3
        assert p.level("brown") == 4 and p.level("black") == 4

    def test_pure_variant_ignores_others(self):
        p = ExplicitPreference("c", [("b", "a")], rank_others=False)
        assert not p.lt("z", "a")
        assert p.level("z") is None

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            ExplicitPreference("c", [("a", "b"), ("b", "a")])

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            ExplicitPreference("c", [])

    def test_is_spo(self):
        check_strict_partial_order(self.example1(), COLORS + ["brown"])
