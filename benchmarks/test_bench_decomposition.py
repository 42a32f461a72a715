"""DEC-P8..P12: decomposition evaluation vs. direct algorithms.

The paper offers the decomposition theorems as the basis for divide &
conquer optimizers.  The ablation here measures when the Prop. 12 route
(two grouped prioritized queries plus the YY term) pays off against the
direct engines — on our substrate the direct algorithms win, which is why
the optimizer prefers them; the decomposition's value is structural insight
and cross-checking, exactly how the paper uses it.
"""

import pytest

from repro.core.base_numerical import AroundPreference, LowestPreference
from repro.core.constructors import pareto, prioritized
from repro.query.bmo import winnow
from repro.query.decomposition import (
    eval_pareto_decomposition,
    eval_prioritized_cascade,
    eval_prioritized_grouping,
)


@pytest.fixture(scope="module")
def car_rows(request):
    from repro.datasets.cars import generate_cars

    return generate_cars(600, seed=11).rows()


P1 = AroundPreference("price", 25000)
P2 = LowestPreference("mileage")


def _proj_set(rows, attrs=("price", "mileage")):
    return {tuple(r[a] for a in attrs) for r in rows}


class TestProp12Pareto:
    def test_direct_bnl(self, benchmark, car_rows):
        pref = pareto(P1, P2)
        out = benchmark.pedantic(
            lambda: winnow(pref, car_rows, algorithm="bnl"), rounds=3, iterations=1
        )
        assert out

    def test_decomposed(self, benchmark, car_rows):
        direct = _proj_set(winnow(pareto(P1, P2), car_rows))
        out = benchmark.pedantic(
            lambda: eval_pareto_decomposition(P1, P2, car_rows),
            rounds=3,
            iterations=1,
        )
        assert _proj_set(out) == direct


class TestProp10And11Prioritized:
    def test_grouping_route(self, benchmark, car_rows):
        pref = prioritized(P1, P2)
        direct = _proj_set(winnow(pref, car_rows))
        out = benchmark.pedantic(
            lambda: eval_prioritized_grouping(P1, P2, car_rows),
            rounds=3,
            iterations=1,
        )
        assert _proj_set(out) == direct

    def test_cascade_route(self, benchmark, car_rows):
        # P2 (a chain) leads, so Proposition 11 applies.
        pref = prioritized(P2, P1)
        direct = _proj_set(winnow(pref, car_rows))
        out = benchmark.pedantic(
            lambda: eval_prioritized_cascade(P2, P1, car_rows),
            rounds=3,
            iterations=1,
        )
        assert _proj_set(out) == direct

    def test_direct_prioritized(self, benchmark, car_rows):
        pref = prioritized(P1, P2)
        out = benchmark.pedantic(
            lambda: winnow(pref, car_rows, algorithm="bnl"), rounds=3, iterations=1
        )
        assert out
