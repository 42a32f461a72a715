"""LAW-P2..P6 and FIG-H: the algebra and the constructor hierarchy, timed.

These benches measure the machinery that makes the optimizer's rewriting
practical: law checking on probe domains, term simplification, and the
hierarchy witnesses.
"""

import itertools

from repro.algebra.equivalence import equivalent_on
from repro.algebra.laws import ALL_LAWS
from repro.algebra import rewriter
from repro.core.base_nonnumerical import NegPreference, PosPreference
from repro.core.base_numerical import AroundPreference, LowestPreference
from repro.core.constructors import dual, pareto, prioritized
from repro.core.hierarchy import (
    around_as_between,
    between_as_score,
    pos_as_pospos,
    pospos_as_explicit,
)
from repro.core.base_nonnumerical import PosPosPreference

PROBE = [
    {"a": x, "b": y} for x in range(4) for y in range(4)
]
SINGLE_PROBE = [{"a": x, "b": 0} for x in range(5)]


def test_law_suite_on_probe(benchmark):
    """Check every applicable unary/binary law on fixed operands."""
    operands = [
        PosPreference("a", {1, 2}),
        NegPreference("a", {0}),
        AroundPreference("a", 2),
        LowestPreference("a"),
    ]

    def check_all():
        checked = 0
        for law in ALL_LAWS:
            if law.arity > 2 or law.name.startswith(("union", "linear_sum")):
                continue
            pools = [operands] * law.arity
            for args in itertools.product(*pools):
                try:
                    lhs, rhs = law.sides(*args)
                except (ValueError, TypeError):
                    continue
                assert equivalent_on(lhs, rhs, PROBE), law.name
                checked += 1
        return checked

    checked = benchmark.pedantic(check_all, rounds=1, iterations=1)
    print(f"\n[LAW] {checked} law instances verified")
    assert checked > 50


def test_simplification_throughput(benchmark):
    p = PosPreference("a", {1})
    term = prioritized(
        pareto(p, dual(p), AroundPreference("b", 2)),
        prioritized(p, p),
        dual(dual(LowestPreference("b"))),
    )

    def cold_normalize():
        rewriter._memo.clear()  # time the walk, not a memo hit
        return rewriter.normalize(term)[0]

    simplified = benchmark(cold_normalize)
    assert equivalent_on(term, simplified, PROBE)


def test_hierarchy_witnesses(benchmark):
    """FIG-H: all three taxonomy diagrams verified as equivalences."""
    pos = PosPreference("a", {1, 2})
    pospos = PosPosPreference("a", {1}, {2})
    around = AroundPreference("a", 2)

    def verify():
        assert equivalent_on(pos, pos_as_pospos(pos), SINGLE_PROBE)
        assert equivalent_on(pospos, pospos_as_explicit(pospos), SINGLE_PROBE)
        assert equivalent_on(around, around_as_between(around), SINGLE_PROBE)
        between = around_as_between(around)
        assert equivalent_on(between, between_as_score(between), SINGLE_PROBE)
        return True

    assert benchmark(verify)
