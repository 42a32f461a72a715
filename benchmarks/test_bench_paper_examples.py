"""EX1-EX11: the paper's worked examples, timed and verified.

Each benchmark re-derives the example's published result inside the timed
function and asserts it, so the numbers in ``EXPERIMENTS.md`` come from
runs that provably reproduced the figures.
"""

from repro.core.base_nonnumerical import (
    ExplicitPreference,
    NegPreference,
    PosPreference,
)
from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    LowestPreference,
    ScorePreference,
)
from repro.core.constructors import intersection, pareto, prioritized, rank
from repro.core.graph import BetterThanGraph
from repro.core.preference import AntiChain
from repro.datasets.cars import example6_preferences
from repro.query.bmo import perfect_matches, winnow
from repro.query.decomposition import eval_prioritized_grouping, yy_set
from repro.relations.relation import Relation

A123 = ("A1", "A2", "A3")
EXAMPLE2_ROWS = [
    dict(zip(A123, v))
    for v in [(-5, 3, 4), (-5, 4, 4), (5, 1, 8), (5, 6, 6), (-6, 0, 6),
              (-6, 0, 4), (6, 2, 7)]
]


def test_ex1_explicit_graph(benchmark):
    pref = ExplicitPreference(
        "Color", [("green", "yellow"), ("green", "red"), ("yellow", "white")]
    )
    domain = ["white", "red", "yellow", "green", "brown", "black"]

    def build():
        return BetterThanGraph(pref, domain)

    graph = benchmark(build)
    assert sorted(graph.maxima()) == ["red", "white"]
    assert graph.height() == 4


def test_ex2_pareto_graph(benchmark):
    pref = pareto(
        pareto(AroundPreference("A1", 0), LowestPreference("A2")),
        HighestPreference("A3"),
    )

    def build():
        return BetterThanGraph(pref, EXAMPLE2_ROWS, node_attributes=A123)

    graph = benchmark(build)
    assert sorted(graph.maxima()) == [(-6, 0, 6), (-5, 3, 4), (5, 1, 8)]
    assert graph.height() == 2


def test_ex3_shared_attribute_pareto(benchmark):
    pref = pareto(
        PosPreference("Color", {"green", "yellow"}),
        NegPreference("Color", {"red", "green", "blue", "purple"}),
    )
    values = ["red", "green", "yellow", "blue", "black", "purple"]

    graph = benchmark(lambda: BetterThanGraph(pref, values))
    assert sorted(graph.maxima()) == ["black", "green", "yellow"]


def test_ex4_prioritized_graphs(benchmark):
    p8 = prioritized(AroundPreference("A1", 0), LowestPreference("A2"))
    p9 = prioritized(
        pareto(AroundPreference("A1", 0), LowestPreference("A2")),
        HighestPreference("A3"),
    )

    def build():
        g8 = BetterThanGraph(p8, EXAMPLE2_ROWS, node_attributes=A123)
        g9 = BetterThanGraph(p9, EXAMPLE2_ROWS, node_attributes=A123)
        return g8, g9

    g8, g9 = benchmark(build)
    assert g8.height() == 3 and g9.height() == 2


def test_ex5_rank_scoring(benchmark):
    pref = rank(
        lambda x1, x2: x1 + 2 * x2,
        ScorePreference("A1", lambda x: abs(x), name="f1"),
        ScorePreference("A2", lambda x: abs(x + 2), name="f2"),
        name="F",
    )
    rows = [
        dict(zip(("A1", "A2"), v))
        for v in [(-5, 3), (-5, 4), (5, 1), (5, 6), (-6, 0), (-6, 0)]
    ]

    scores = benchmark(lambda: [pref.score(r) for r in rows])
    assert scores == [15, 17, 11, 21, 10, 10]


def test_ex6_engineering_scenario(benchmark, cars_1k):
    prefs = example6_preferences()

    def run():
        return {
            key: len(winnow(prefs[key], cars_1k))
            for key in ("Q1", "Q2", "Q1_star", "Q2_star")
        }

    sizes = benchmark.pedantic(run, rounds=3, iterations=1)
    assert all(0 < n < len(cars_1k) for n in sizes.values())
    print(f"\n[EX6] BMO sizes on 1k cars: {sizes}")


def test_ex7_non_discrimination(benchmark):
    p1, p2 = LowestPreference("Price"), LowestPreference("Mileage")
    rows = [
        dict(zip(("Price", "Mileage"), v))
        for v in [(40000, 15000), (35000, 30000), (20000, 10000),
                  (15000, 35000), (15000, 30000)]
    ]
    lhs = pareto(p1, p2)
    rhs = intersection(prioritized(p1, p2), prioritized(p2, p1))

    def check():
        g1 = BetterThanGraph(lhs, rows, node_attributes=("Price", "Mileage"))
        g2 = BetterThanGraph(rhs, rows, node_attributes=("Price", "Mileage"))
        return g1, g2

    g1, g2 = benchmark(check)
    assert set(g1.edges()) == set(g2.edges())
    assert sorted(g1.maxima()) == [(15000, 30000), (20000, 10000)]


def test_ex8_bmo_query(benchmark):
    pref = ExplicitPreference(
        "Color", [("green", "yellow"), ("green", "red"), ("yellow", "white")]
    )
    r = Relation.from_tuples(
        "R", ["Color"], [("yellow",), ("red",), ("green",), ("black",)]
    )

    best = benchmark(lambda: winnow(pref, r))
    assert sorted(row["Color"] for row in best) == ["red", "yellow"]
    assert [row["Color"] for row in perfect_matches(pref, r)] == ["red"]


def test_ex9_non_monotonicity(benchmark):
    pref = pareto(
        HighestPreference("Fuel_Economy"), HighestPreference("Insurance_Rating")
    )
    states = [
        [(100, 3, "frog"), (50, 3, "cat")],
        [(100, 3, "frog"), (50, 3, "cat"), (50, 10, "shark")],
        [(100, 3, "frog"), (50, 3, "cat"), (50, 10, "shark"),
         (100, 10, "turtle")],
    ]
    attrs = ("Fuel_Economy", "Insurance_Rating", "Nickname")

    def run():
        return [
            sorted(
                r["Nickname"]
                for r in winnow(pref, [dict(zip(attrs, t)) for t in state])
            )
            for state in states
        ]

    results = benchmark(run)
    assert results == [["frog"], ["frog", "shark"], ["turtle"]]


def test_ex10_prioritized_grouping(benchmark):
    cars = Relation.from_tuples(
        "Cars",
        ["Make", "Price", "Oid"],
        [("Audi", 40000, 1), ("BMW", 35000, 2), ("VW", 20000, 3),
         ("BMW", 50000, 4)],
    )
    p1, p2 = AntiChain("Make"), AroundPreference("Price", 40000)

    out = benchmark(lambda: eval_prioritized_grouping(p1, p2, cars))
    assert sorted(r["Oid"] for r in out) == [1, 2, 3]


def test_ex11_yy_term(benchmark):
    p1, p2 = LowestPreference("A"), HighestPreference("A")
    r = Relation.from_tuples("R", ["A"], [(3,), (6,), (9,)])

    def run():
        yy = yy_set(prioritized(p1, p2), prioritized(p2, p1), r)
        full = winnow(pareto(p1, p2), r)
        return yy, full

    yy, full = benchmark(run)
    assert [row["A"] for row in yy] == [6]
    assert sorted(row["A"] for row in full) == [3, 6, 9]
