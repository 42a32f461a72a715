"""Golden tests: every worked example of the paper, reproduced exactly.

Each test cites its example number and asserts the precise figures/results
printed in the paper.  These are the ground truth for EXPERIMENTS.md.
"""

import pytest

from repro.core.base_nonnumerical import (
    ExplicitPreference,
    NegPreference,
    PosNegPreference,
    PosPosPreference,
    PosPreference,
)
from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    LowestPreference,
    ScorePreference,
)
from repro.core.constructors import (
    intersection,
    pareto,
    prioritized,
    rank,
)
from repro.core.graph import BetterThanGraph
from repro.core.preference import AntiChain
from repro.query.bmo import perfect_matches, winnow
from repro.query.decomposition import (
    eval_prioritized_grouping,
    yy_set,
)
from repro.relations.relation import Relation

A123 = ("A1", "A2", "A3")
EXAMPLE2_R = {
    "val1": (-5, 3, 4),
    "val2": (-5, 4, 4),
    "val3": (5, 1, 8),
    "val4": (5, 6, 6),
    "val5": (-6, 0, 6),
    "val6": (-6, 0, 4),
    "val7": (6, 2, 7),
}


def example2_rows():
    return [dict(zip(A123, v)) for v in EXAMPLE2_R.values()]


def example2_labels():
    return {v: k for k, v in EXAMPLE2_R.items()}


class TestExample1:
    """EXPLICIT colour preference: the 4-level better-than graph."""

    def graph(self):
        pref = ExplicitPreference(
            "Color",
            [("green", "yellow"), ("green", "red"), ("yellow", "white")],
        )
        return BetterThanGraph(
            pref, ["white", "red", "yellow", "green", "brown", "black"]
        )

    def test_levels(self):
        g = self.graph()
        assert sorted(g.level_groups()[1]) == ["red", "white"]
        assert g.level_groups()[2] == ["yellow"]
        assert g.level_groups()[3] == ["green"]
        assert sorted(g.level_groups()[4]) == ["black", "brown"]

    def test_maxima_minima(self):
        g = self.graph()
        assert sorted(g.maxima()) == ["red", "white"]
        assert sorted(g.minima()) == ["black", "brown"]


class TestExample2:
    """Pareto preference (P1 (x) P2) (x) P3 over R: maxima val1, val3, val5."""

    def pref(self):
        return pareto(
            pareto(AroundPreference("A1", 0), LowestPreference("A2")),
            HighestPreference("A3"),
        )

    def test_pareto_optimal_set(self):
        labels = example2_labels()
        g = BetterThanGraph(
            self.pref(), example2_rows(), labels=labels, node_attributes=A123
        )
        assert sorted(labels[m] for m in g.maxima()) == ["val1", "val3", "val5"]

    def test_two_levels(self):
        g = BetterThanGraph(
            self.pref(), example2_rows(), node_attributes=A123
        )
        assert g.height() == 2
        assert sorted(
            example2_labels()[n] for n in g.level_groups()[2]
        ) == ["val2", "val4", "val6", "val7"]

    def test_every_component_contributes_a_maximum(self):
        # The paper notes each of P1, P2, P3 places a maximal value in the
        # Pareto-optimal set: A1 = +-5, A2 = 0, A3 = 8.
        best = winnow(self.pref(), example2_rows())
        assert {r["A1"] for r in best} >= {-5, 5}
        assert 0 in {r["A2"] for r in best}
        assert 8 in {r["A3"] for r in best}


class TestExample3:
    """Shared-attribute Pareto P5 (x) P6: the non-discriminating compromise."""

    def pref(self):
        return pareto(
            PosPreference("Color", {"green", "yellow"}),
            NegPreference("Color", {"red", "green", "blue", "purple"}),
        )

    def test_maxima(self):
        g = BetterThanGraph(
            self.pref(), ["red", "green", "yellow", "blue", "black", "purple"]
        )
        assert sorted(g.maxima()) == ["black", "green", "yellow"]

    def test_level_2(self):
        g = BetterThanGraph(
            self.pref(), ["red", "green", "yellow", "blue", "black", "purple"]
        )
        assert sorted(g.level_groups()[2]) == ["blue", "purple", "red"]


class TestExample4:
    """Prioritized graphs of P8 = P1 & P2 and P9 = (P1 (x) P2) & P3."""

    def test_p8_three_levels(self):
        p8 = prioritized(AroundPreference("A1", 0), LowestPreference("A2"))
        labels = example2_labels()
        g = BetterThanGraph(
            p8, example2_rows(), labels=labels, node_attributes=A123
        )
        groups = {
            lvl: sorted(labels[m] for m in ms)
            for lvl, ms in g.level_groups().items()
        }
        assert groups == {
            1: ["val1", "val3"],
            2: ["val2", "val4"],
            3: ["val5", "val6", "val7"],
        }

    def test_p9_two_levels(self):
        p9 = prioritized(
            pareto(AroundPreference("A1", 0), LowestPreference("A2")),
            HighestPreference("A3"),
        )
        labels = example2_labels()
        g = BetterThanGraph(
            p9, example2_rows(), labels=labels, node_attributes=A123
        )
        groups = {
            lvl: sorted(labels[m] for m in ms)
            for lvl, ms in g.level_groups().items()
        }
        assert groups == {
            1: ["val1", "val3", "val5"],
            2: ["val2", "val4", "val6", "val7"],
        }


class TestExample5:
    """rank(F) with F = x1 + 2*x2: F-values 15, 17, 11, 21, 10, 10."""

    R5 = [(-5, 3), (-5, 4), (5, 1), (5, 6), (-6, 0), (-6, 0)]

    def pref(self):
        f1 = ScorePreference("A1", lambda x: abs(x - 0), name="f1")
        f2 = ScorePreference("A2", lambda x: abs(x - (-2)), name="f2")
        return rank(lambda x1, x2: x1 + 2 * x2, f1, f2, name="F")

    def rows(self):
        return [
            {"A1": a1, "A2": a2, "id": i}
            for i, (a1, a2) in enumerate(self.R5, start=1)
        ]

    def test_f_values(self):
        scores = [self.pref().score(r) for r in self.rows()]
        assert scores == [15, 17, 11, 21, 10, 10]

    def test_five_levels_not_a_chain(self):
        # val5 and val6 are the identical tuple (-6, 0); the paper's figure
        # keeps both, tied at F = 10 — so the graph is not a chain.  The
        # id column separates the duplicates, as the figure does.
        g = BetterThanGraph(
            self.pref(), self.rows(), node_attributes=("A1", "A2", "id")
        )
        assert g.height() == 5
        assert not g.is_chain()

    def test_discrimination_observation(self):
        # The top performer val4 = (5, 6) does not carry the maximal
        # f1-value 6 — rank(F) "discriminates against P1".
        best = winnow(self.pref(), self.rows())
        assert all(abs(r["A1"]) != 6 for r in best)


class TestExample7:
    """Non-discrimination theorem on Car-DB."""

    CAR_DB = {
        "val1": (40000, 15000),
        "val2": (35000, 30000),
        "val3": (20000, 10000),
        "val4": (15000, 35000),
        "val5": (15000, 30000),
    }

    def rows(self):
        return [dict(zip(("Price", "Mileage"), v)) for v in self.CAR_DB.values()]

    def labels(self):
        return {v: k for k, v in self.CAR_DB.items()}

    def test_pareto_maxima(self):
        pref = pareto(LowestPreference("Price"), LowestPreference("Mileage"))
        g = BetterThanGraph(
            pref, self.rows(), labels=self.labels(),
            node_attributes=("Price", "Mileage"),
        )
        assert sorted(self.labels()[m] for m in g.maxima()) == ["val3", "val5"]

    def test_prioritized_chains(self):
        p1, p2 = LowestPreference("Price"), LowestPreference("Mileage")
        g1 = BetterThanGraph(
            prioritized(p1, p2), self.rows(), labels=self.labels(),
            node_attributes=("Price", "Mileage"),
        )
        assert [self.labels()[n] for n in g1.chain_order()] == [
            "val5", "val4", "val3", "val2", "val1",
        ]
        g2 = BetterThanGraph(
            prioritized(p2, p1), self.rows(), labels=self.labels(),
            node_attributes=("Price", "Mileage"),
        )
        assert [self.labels()[n] for n in g2.chain_order()] == [
            "val3", "val1", "val5", "val2", "val4",
        ]

    def test_intersection_of_chains_equals_pareto(self):
        p1, p2 = LowestPreference("Price"), LowestPreference("Mileage")
        lhs = pareto(p1, p2)
        rhs = intersection(prioritized(p1, p2), prioritized(p2, p1))
        g_lhs = BetterThanGraph(lhs, self.rows(), node_attributes=("Price", "Mileage"))
        g_rhs = BetterThanGraph(rhs, self.rows(), node_attributes=("Price", "Mileage"))
        assert set(g_lhs.edges()) == set(g_rhs.edges())


class TestExample8:
    """BMO query over the EXPLICIT preference: {yellow, red}, red perfect."""

    def test_bmo_and_perfect_match(self):
        pref = ExplicitPreference(
            "Color",
            [("green", "yellow"), ("green", "red"), ("yellow", "white")],
        )
        r = Relation.from_tuples(
            "R", ["Color"], [("yellow",), ("red",), ("green",), ("black",)]
        )
        best = winnow(pref, r)
        assert sorted(row["Color"] for row in best) == ["red", "yellow"]
        perfect = perfect_matches(pref, r)
        assert [row["Color"] for row in perfect] == ["red"]


class TestExample9:
    """Non-monotonicity of BMO results across growing database states."""

    def pref(self):
        return pareto(
            HighestPreference("Fuel_Economy"),
            HighestPreference("Insurance_Rating"),
        )

    def test_three_states(self):
        frog = {"Fuel_Economy": 100, "Insurance_Rating": 3, "Nickname": "frog"}
        cat = {"Fuel_Economy": 50, "Insurance_Rating": 3, "Nickname": "cat"}
        shark = {"Fuel_Economy": 50, "Insurance_Rating": 10, "Nickname": "shark"}
        turtle = {"Fuel_Economy": 100, "Insurance_Rating": 10,
                  "Nickname": "turtle"}
        state1 = winnow(self.pref(), [frog, cat])
        assert [r["Nickname"] for r in state1] == ["frog"]
        state2 = winnow(self.pref(), [frog, cat, shark])
        assert sorted(r["Nickname"] for r in state2) == ["frog", "shark"]
        state3 = winnow(self.pref(), [frog, cat, shark, turtle])
        assert [r["Nickname"] for r in state3] == ["turtle"]


class TestExample10:
    """Prioritized accumulation query: one offer per make around 40000."""

    def test_grouping_evaluation(self):
        cars = Relation.from_tuples(
            "Cars",
            ["Make", "Price", "Oid"],
            [("Audi", 40000, 1), ("BMW", 35000, 2), ("VW", 20000, 3),
             ("BMW", 50000, 4)],
        )
        p1 = AntiChain("Make")
        p2 = AroundPreference("Price", 40000)
        result = eval_prioritized_grouping(p1, p2, cars)
        assert sorted(r["Oid"] for r in result) == [1, 2, 3]
        direct = winnow(prioritized(p1, p2), cars)
        assert sorted(r["Oid"] for r in direct) == [1, 2, 3]


class TestExample11:
    """Pareto evaluation with the YY term: LOWEST (x) HIGHEST keeps all of R."""

    def test_yy_and_result(self):
        p1, p2 = LowestPreference("A"), HighestPreference("A")
        r = Relation.from_tuples("R", ["A"], [(3,), (6,), (9,)])
        # sigma[P1 (x) P2](R) = R (Props 6, 3d, 3g).
        result = winnow(pareto(p1, p2), r)
        assert sorted(row["A"] for row in result) == [3, 6, 9]
        # The YY term contributes exactly {6}.
        yy = yy_set(prioritized(p1, p2), prioritized(p2, p1), r)
        assert [row["A"] for row in yy] == [6]
