"""BETWEEN and AROUND arms scored as one column expression.

On the NumPy leg the code kernel scores a BETWEEN / AROUND arm's distinct
values with ``columns.interval_scores`` — ``-distance(v, [low, up])`` as
one array expression — where every step is exact: an int64 or float64
column whose entries are below 2**52 in magnitude, bounds that are
``int`` or ``float`` below 2**52.  Everything else calls the score once
per distinct value.  The property pins the winnow against the one
oracle, ``naive_nested_loop``, as bags of rows over hostile columns on
both legs, whole and on an index; the spy pins which columns take the
array path.
"""

from __future__ import annotations

import datetime
import random
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base_numerical import (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
)
from repro.core.constructors import DualPreference, pareto
from repro.engine import backend as engine_backend
from repro.engine import columnar
from repro.engine.columnar import columnar_winnow
from repro.query.algorithms import naive_nested_loop
from repro.relations.relation import Relation
from repro.relations.schema import Schema

needs_numpy = pytest.mark.skipif(
    engine_backend.get_numpy() is None, reason="NumPy is absent or disabled"
)

#: One NaN object shared by every row that draws it: the row engines and
#: the kernel both take it for equal to itself on a weak arm.
SHARED_NAN = float("nan")

BIG = 2**53
INF = float("inf")
NAN = float("nan")


def _uint64(value: int):
    np = engine_backend.get_numpy()
    return value if np is None else np.uint64(value)


def _nan(rng: random.Random) -> float:
    return SHARED_NAN if rng.random() < 0.5 else float("nan")


#: Column kinds: a value drawer and the bounds the kind can meet without
#: raising in Python's own arithmetic.
NUMERIC_BOUNDS = (0, 3, -2, 2.5, -0.5, 7, INF, -INF, NAN)
KINDS = {
    "ints": (lambda r: r.randrange(-6, 9), NUMERIC_BOUNDS),
    "floats": (lambda r: r.randrange(-12, 17) / 2, NUMERIC_BOUNDS),
    "mixed": (
        lambda r: r.choice((r.randrange(-6, 9), r.randrange(-12, 17) / 2)),
        NUMERIC_BOUNDS,
    ),
    "nan": (
        lambda r: _nan(r) if r.random() < 0.2 else r.randrange(-6, 9) / 2,
        NUMERIC_BOUNDS,
    ),
    "inf": (
        lambda r: r.choice((INF, -INF)) if r.random() < 0.2
        else r.randrange(-6, 9),
        NUMERIC_BOUNDS,
    ),
    "bools": (lambda r: r.random() < 0.5, (0, 1, 0.5, 2, -1, NAN)),
    "bools_ints": (
        lambda r: r.random() < 0.5 if r.random() < 0.3 else r.randrange(-3, 4),
        NUMERIC_BOUNDS,
    ),
    "near_2_53": (
        lambda r: r.choice((BIG - 1, BIG, BIG + 1, -BIG - 1, 2**52, 2**52 - 1,
                            -(2**52) + 1, 0)),
        (0, 2**52 - 1, -(2**52) + 1, BIG + 1, 2.0**52, 0.5, INF, NAN),
    ),
    "near_2_53_mixed": (
        lambda r: r.choice((2**52 - 1, -(2**52) + 1, 2**52 - 3, 0.5, -1.5)),
        (0, 2**52 - 1, -(2**52) + 1, 2**52 - 2, 0.5, NAN),
    ),
    "uint64": (
        lambda r: _uint64(r.randrange(0, 9)), (0, 3, 2.5, 7, INF, NAN),
    ),
    "dates": (
        lambda r: datetime.date(2001, 1, 1)
        + datetime.timedelta(days=r.randrange(0, 20)),
        (datetime.date(2001, 1, 5), datetime.date(2001, 1, 9)),
    ),
    "decimals": (
        lambda r: Decimal(r.randrange(-12, 17)) / 2,
        (0, 3, -2, 7, Decimal("2.5")),
    ),
}


@st.composite
def interval_arm(draw, attribute: str, kind: str):
    """AROUND or BETWEEN (or its dual) with bounds the kind can meet:
    int, float, infinite and NaN ones for numbers."""
    bounds = KINDS[kind][1]
    low, up = draw(st.sampled_from(bounds)), draw(st.sampled_from(bounds))
    if up < low:
        low, up = up, low
    if draw(st.booleans()):
        arm = BetweenPreference(attribute, low, up)
    else:
        arm = AroundPreference(attribute, low)
    return DualPreference(arm) if draw(st.integers(0, 4)) == 0 else arm


@st.composite
def winnows(draw):
    """A Pareto term of one or two interval arms over hostile columns,
    perhaps with a HIGHEST arm over a clean int column, and its rows."""
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1,
                          max_size=2))
    names = [f"a{i}" for i in range(len(kinds))]
    arms = [draw(interval_arm(a, k)) for a, k in zip(names, kinds)]
    if len(arms) == 1 or draw(st.booleans()):
        arms.append(HighestPreference("h"))
    size = draw(st.sampled_from((0, 1, 5, 47, 48, 120)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [
        dict(
            {a: KINDS[k][0](rng) for a, k in zip(names, kinds)},
            h=rng.randrange(0, 4), tag=i,
        )
        for i in range(size)
    ]
    return pareto(*arms), rows


def _bag(rows):
    return sorted(row["tag"] for row in rows)


class TestAgainstTheOracle:
    @settings(max_examples=120, deadline=None)
    @given(case=winnows(), picks=st.sets(st.integers(0, 119)))
    def test_winnow_matches_naive_on_both_legs(self, case, picks):
        pref, rows = case
        expected = _bag(naive_nested_loop(pref, rows))
        index = sorted(i for i in picks if i < len(rows))
        on_index = _bag(naive_nested_loop(pref, [rows[i] for i in index]))
        np = engine_backend.get_numpy()

        def check() -> None:
            assert _bag(columnar_winnow(pref, rows)) == expected
            if index:
                snapshot = Relation("r", Schema(list(rows[0])), rows)
                at = index if np is None else np.asarray(index)
                got = columnar_winnow(pref, snapshot, index=at)
                assert _bag(got) == on_index

        check()
        with mock.patch.object(columnar, "NUMPY_MIN_ROWS", 0):
            check()
        with mock.patch.object(engine_backend, "_numpy", None):
            np = None
            check()


def _spy():
    """Patch the kernel's array expression and count its calls."""
    calls = []
    real = columnar.interval_scores

    def spy(values, low, up, np):
        calls.append(values.dtype)
        return real(values, low, up, np)

    return calls, mock.patch.object(columnar, "interval_scores", spy)


#: ``(column values, bounds, whether the array path is taken)``.
SPY_CASES = [
    pytest.param([1, 5, -3, 8, 2], (2, 4), True, id="ints"),
    pytest.param([1.5, 5.0, -3.25, 8.0], (2.0, 4.5), True, id="floats"),
    pytest.param([1, 5.5, -3, 8.0], (2, 4.5), True, id="mixed"),
    pytest.param([1.0, NAN, 3.0, NAN], (2.0, 2.0), True, id="nan"),
    pytest.param([True, 3, -1, 2], (1, 1), True, id="bools-among-ints"),
    pytest.param([2**52 - 1, -(2**52) + 1, 0], (0, 0), True, id="below-2**52"),
    pytest.param([1, 5, -3], (2**52 - 1, 2**52 - 1), True, id="bound-below-2**52"),
    pytest.param([1.0, INF, 3.0], (2.0, 2.0), False, id="inf"),
    pytest.param([True, False, True], (1, 1), False, id="bools"),
    pytest.param([_uint64(v) for v in (1, 5, 3)], (2.5, 2.5), False,
                 id="uint64"),
    pytest.param([2**52, 0, 1], (0, 0), False, id="2**52"),
    pytest.param([BIG + 1, 0, 1], (0, 0), False, id="2**53+1"),
    pytest.param([0.5, 2**52 + 1.0], (0, 0), False, id="float-2**52"),
    pytest.param([1, 5, -3], (2, INF), False, id="inf-bound"),
    pytest.param([1, 5, -3], (NAN, NAN), False, id="nan-bound"),
    pytest.param([1, 5, -3], (True, True), False, id="bool-bound"),
    pytest.param([1, 5, -3], (2**52, 2**52), False, id="bound-2**52"),
    pytest.param([1, 5, -3], (Decimal(2), Decimal(2)), False,
                 id="decimal-bound"),
    pytest.param([Decimal(1), Decimal(5), Decimal(-3)], (2, 2), False,
                 id="decimals"),
    pytest.param(
        [datetime.date(2001, 1, d) for d in (1, 9, 4)],
        (datetime.date(2001, 1, 3), datetime.date(2001, 1, 5)),
        False,
        id="dates",
    ),
]


class TestUnsignedValues:
    """A NumPy unsigned distance is scored as a Python int: negated as a
    uint64 it wrapped around, and an exact match ranked first only
    because 0 negates to 0."""

    ROWS = [{"x": _uint64(3)}, {"x": _uint64(5)}]

    def test_the_exact_match_wins_on_the_oracle(self):
        assert naive_nested_loop(AroundPreference("x", 3), self.ROWS) == [
            self.ROWS[0]
        ]

    @pytest.mark.parametrize("size", [2, 60])
    def test_every_engine_agrees(self, size):
        rows = [
            {"x": _uint64(v), "h": 0, "tag": i}
            for i, v in enumerate([3, 5, 1, 7] * (size // 2))
        ][:size]
        for pref in (
            AroundPreference("x", 3),
            pareto(AroundPreference("x", 3), HighestPreference("h")),
            pareto(BetweenPreference("x", 2, 4), HighestPreference("h")),
        ):
            expected = _bag(naive_nested_loop(pref, rows))
            assert {rows[t]["x"] for t in expected} == {3}
            assert _bag(columnar_winnow(pref, rows)) == expected
            with mock.patch.object(engine_backend, "_numpy", None):
                assert _bag(columnar_winnow(pref, rows)) == expected


@needs_numpy
class TestArrayPathSpy:
    @pytest.mark.parametrize("values, bounds, admitted", SPY_CASES)
    def test_the_array_path_runs_exactly_where_the_rule_admits(
        self, values, bounds, admitted
    ):
        np = engine_backend.get_numpy()
        low, up = bounds
        pref = pareto(BetweenPreference("x", low, up), HighestPreference("h"))
        rows = [
            {"x": values[i % len(values)], "h": i % 7, "tag": i}
            for i in range(60)
        ]
        expected = _bag(naive_nested_loop(pref, rows))
        calls, spy = _spy()
        with spy:
            assert _bag(columnar_winnow(pref, rows)) == expected
            snapshot = Relation("r", Schema(list(rows[0])), rows)
            index = np.arange(0, 60, 3)
            got = columnar_winnow(pref, snapshot, index=index)
            assert _bag(got) == _bag(
                naive_nested_loop(pref, [rows[i] for i in index.tolist()])
            )
        assert bool(calls) is admitted
        assert all(dtype in (np.int64, np.float64) for dtype in calls)

    def test_a_mixed_column_near_2_53_keeps_pythons_int_distances(self):
        # In float64, 2**53 - 2 - -(2**53 - 1) rounds onto its neighbour's
        # distance; Python's ints keep the second row strictly closer.
        # The float entry makes the array float64; its worse ``h`` keeps
        # it from dominating the two ints.
        far, near = -(2**53 - 1), -(2**53 - 2)
        rows = [
            {"x": x, "h": h}
            for x, h in [(far, 1), (near, 1), (0.5, 0)] * 20
        ]
        pref = pareto(AroundPreference("x", 2**53 - 2), HighestPreference("h"))
        calls, spy = _spy()
        with spy:
            got = columnar_winnow(pref, rows)
        assert {row["x"] for row in got} == {near, 0.5}
        assert got == naive_nested_loop(pref, rows)
        assert calls == []

    def test_the_interpreted_leg_never_takes_it(self):
        pref = pareto(AroundPreference("x", 3), HighestPreference("h"))
        rows = [{"x": i % 9, "h": i % 4} for i in range(60)]
        calls, spy = _spy()
        with spy, mock.patch.object(engine_backend, "_numpy", None):
            columnar_winnow(pref, rows)
        with spy:
            columnar_winnow(pref, rows[:10])  # below NUMPY_MIN_ROWS
        assert calls == []

    def test_the_distinct_values_array_is_cached_on_the_store(self):
        np = engine_backend.get_numpy()
        rows = [{"x": i % 9, "h": i % 4} for i in range(60)]
        snapshot = Relation("r", Schema(["x", "h"]), rows)
        store = snapshot.column_store()
        first = store.weak_values("x", np)
        assert first is store.weak_values("x", np)
        assert first.tolist() == store.weak_identity("x", np)[1]
