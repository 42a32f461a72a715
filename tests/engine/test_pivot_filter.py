"""Pivot elimination before the code kernel's dedup and presort.

``vectorized.pivot_filter`` drops every row that one of two pivot rows
strictly dominates.  The property pins the whole winnow it runs inside
against the one oracle, ``naive_nested_loop``, as bags of rows: on the
NumPy leg with the filter forced on at every size, with the default size
floors, and on the interpreted leg.  The unit tests pin the filter
itself: what it drops is strictly dominated by one of at most two kept
rows, and it drops nothing it cannot justify.
"""

from __future__ import annotations

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base_nonnumerical import PosPreference
from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import pareto
from repro.engine import backend as engine_backend
from repro.engine import columnar
from repro.engine.columnar import columnar_winnow
from repro.engine.vectorized import pivot_filter
from repro.query.algorithms import naive_nested_loop

needs_numpy = pytest.mark.skipif(
    engine_backend.get_numpy() is None, reason="NumPy is absent or disabled"
)

SIZES = (0, 1, 47, 48, 255, 256, 2000)
ARMS = ("lowest", "highest", "around", "pos")


def _arm(kind: str, attribute: str, spread: int):
    if kind == "lowest":
        return LowestPreference(attribute)
    if kind == "highest":
        return HighestPreference(attribute)
    if kind == "around":
        # Halfway between two values: equidistant pairs tie (Example 2).
        return AroundPreference(attribute, (spread - 1) / 2)
    return PosPreference(attribute, {"v0", "v1"})


def _value(kind: str, rng: random.Random, spread: int, nan_share: float):
    if kind == "pos":
        return f"v{rng.randrange(spread)}"
    if kind in ("lowest", "highest") and rng.random() < nan_share:
        # A fresh object each time: the row engines' projection equality
        # takes one shared NaN object for equal to itself.
        return float("nan")
    return rng.randrange(spread)


@st.composite
def winnows(draw):
    """A Pareto term of 2-3 arms and rows for it, built from a seed so
    that 2 000-row inputs stay cheap to draw: duplicates, ties, columns of
    one value and NaN chain values all occur."""
    kinds = draw(st.lists(st.sampled_from(ARMS), min_size=2, max_size=3))
    size = draw(st.sampled_from(SIZES))
    # The oracle is quadratic in distinct projections, and every NaN makes
    # one: keep them few where the rows are many.
    small = size <= 256
    spreads = [draw(st.integers(1, 12 if small else 5)) for _ in kinds]
    nan_share = draw(st.sampled_from((0.0, 0.0, 0.05, 1.0 if small else 0.01)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    names = [f"a{i}" for i in range(len(kinds))]
    pref = pareto(
        *(_arm(k, a, s) for k, a, s in zip(kinds, names, spreads))
    )
    rows = [
        {
            a: _value(k, rng, s, nan_share)
            for k, a, s in zip(kinds, names, spreads)
        }
        for _ in range(size)
    ]
    return pref, rows


def _bag(rows):
    return sorted(map(id, rows))


class TestWinnowProperty:
    @settings(max_examples=40, deadline=None)
    @given(case=winnows())
    def test_matches_the_oracle_on_both_legs(self, case):
        pref, rows = case
        expected = _bag(naive_nested_loop(pref, rows))
        assert _bag(columnar_winnow(pref, rows)) == expected
        with mock.patch.object(columnar, "NUMPY_MIN_ROWS", 0), \
                mock.patch.object(columnar, "PIVOT_MIN_ROWS", 0):
            assert _bag(columnar_winnow(pref, rows)) == expected
        with mock.patch.object(engine_backend, "_numpy", None):
            assert _bag(columnar_winnow(pref, rows)) == expected


def _dominates(a, b):
    return all(x >= y for x, y in zip(a, b)) and a != b


@needs_numpy
class TestPivotFilter:
    def _filter(self, vectors):
        np = engine_backend.get_numpy()
        codes = [np.asarray(c, dtype=np.int64) for c in zip(*vectors)]
        return pivot_filter(np, codes).tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        vectors=st.lists(
            st.tuples(st.integers(0, 5), st.integers(-3, 3), st.integers(0, 9)),
            min_size=1,
            max_size=40,
        )
    )
    def test_every_drop_is_strictly_dominated_by_a_pivot(self, vectors):
        kept = self._filter(vectors)
        assert kept == sorted(set(kept))
        dropped = [v for i, v in enumerate(vectors) if i not in set(kept)]
        survivors = {vectors[i] for i in kept}
        # Two kept rows account for every drop.
        assert any(
            all(_dominates(p, v) or _dominates(q, v) for v in dropped)
            for p, q in itertools.combinations_with_replacement(survivors, 2)
        )
        maximal = {
            v for v in vectors if not any(_dominates(w, v) for w in vectors)
        }
        assert maximal <= survivors

    def test_an_all_equal_matrix_loses_nothing(self):
        assert self._filter([(3, 1, 4)] * 50) == list(range(50))
        assert self._filter([(7,)] * 3) == [0, 1, 2]

    def test_duplicates_of_a_pivot_survive_with_it(self):
        vectors = [(1, 1), (5, 5), (0, 2), (5, 5), (2, 0)]
        assert self._filter(vectors) == [1, 3]

    def test_constant_axes_are_ignored(self):
        vectors = [(4, i, 9 - i) for i in range(10)] + [(4, 0, 0)]
        assert self._filter(vectors) == list(range(10))


class TestFloor:
    def test_an_all_nan_input_returns_every_row(self):
        pref = pareto(LowestPreference("a"), HighestPreference("b"),
                      LowestPreference("c"))
        rows = [
            {"a": float("nan"), "b": i % 7, "c": float("nan")}
            for i in range(600)
        ]
        for leg in (0, 10**9):
            with mock.patch.object(columnar, "NUMPY_MIN_ROWS", leg), \
                    mock.patch.object(columnar, "PIVOT_MIN_ROWS", 0):
                assert _bag(columnar_winnow(pref, rows)) == _bag(rows)

    @needs_numpy
    def test_the_filter_runs_from_the_floor_up(self):
        pref = pareto(LowestPreference("a"), HighestPreference("b"),
                      LowestPreference("c"))
        rng = random.Random(5)
        floor = columnar.PIVOT_MIN_ROWS
        for size, runs in ((floor - 1, 0), (floor, 1)):
            rows = [
                {"a": rng.random(), "b": rng.random(), "c": rng.random()}
                for _ in range(size)
            ]
            with mock.patch.object(
                columnar, "pivot_filter", wraps=columnar.pivot_filter
            ) as spy:
                got = columnar_winnow(pref, rows)
            assert spy.call_count == runs
            assert _bag(got) == _bag(naive_nested_loop(pref, rows))
