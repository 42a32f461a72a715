"""The weak-order lowering is exact: ``columnar_winnow`` ≡ Definition 15.

One property over random Pareto terms whose arms are drawn from every
constructor the columnar engine lowers to code axes — AROUND, BETWEEN,
single-attribute SCORE, POS, NEG, POS/NEG, POS/POS (each a *weak order*:
two codes), LOWEST, HIGHEST, a prioritized-chain arm (one code), duals of
all of them, and a layered arm without OTHERS — on domains small enough
that equidistant values, score ties, duplicate projections, NaN values and
values in no layer all occur in most examples.  The oracle is
``naive_nested_loop``; the legs are the NumPy kernels, the interpreted
kernels (which inputs this small take by themselves, and
``REPRO_NO_NUMPY=1`` forces), and the three ways a term reaches the
engine: ``full_winnow``, a planned (rewritten) query and a grouped winnow.

A table then walks the size switch between the two legs: one term per
lowered shape, at 0, 1 and N-1 / N / N+1 rows around
``NUMPY_MIN_ROWS``, with NumPy and without.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import LOWERED_TERMS, lowered_rows

from repro.core.base_nonnumerical import (
    LayeredPreference,
    NegPreference,
    PosNegPreference,
    PosPosPreference,
    PosPreference,
)
from repro.core.base_numerical import (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
    LowestPreference,
    ScorePreference,
)
from repro.core.constructors import dual, pareto, prioritized
from repro.engine import backend as engine_backend
from repro.engine import columnar
from repro.engine.columnar import columnar_axes, columnar_winnow
from repro.query.algorithms import naive_nested_loop
from repro.query.api import PreferenceQuery
from repro.query.bmo import winnow_groupby
from repro.query.optimizer import choose_algorithm, full_winnow

NUMBERS = (0, 1, 2, 3, 4, 5)
WORDS = ("ash", "bay", "elm", "fir", "oak")

number_st = st.sampled_from(NUMBERS)
#: A fresh NaN object per draw: rows sharing one NaN object would be
#: projection-equal to the row engine's identity-first tuple comparison.
cell_st = st.one_of(
    number_st, number_st, number_st, st.builds(float, st.just("nan"))
)


def _mod3(value):
    return value % 3


def _layered(attribute, domain):
    """Arms of the POS/NEG family over ``domain`` (disjoint value sets)."""
    disjoint = st.lists(
        st.sampled_from(domain), min_size=2, max_size=4, unique=True
    )
    return st.one_of(
        disjoint.map(lambda v: PosPreference(attribute, v[:2])),
        disjoint.map(lambda v: NegPreference(attribute, v[:1])),
        disjoint.map(lambda v: PosNegPreference(attribute, v[:1], v[1:])),
        disjoint.map(lambda v: PosPosPreference(attribute, v[:1], v[1:])),
        # No OTHERS layer: values outside v are ranked against nothing.
        disjoint.map(lambda v: LayeredPreference(attribute, [v[:1], v[1:]])),
    )


def _numeric(attribute):
    return st.one_of(
        number_st.map(lambda z: AroundPreference(attribute, z)),
        st.tuples(number_st, number_st).map(
            lambda b: BetweenPreference(attribute, min(b), max(b))
        ),
        st.just(ScorePreference(attribute, _mod3, name="mod3")),
        st.just(LowestPreference(attribute)),
        st.just(HighestPreference(attribute)),
        _layered(attribute, NUMBERS),
    )


arm_st = st.one_of(
    _numeric("n0"),
    _numeric("n1"),
    _layered("w", WORDS),
    st.just(HighestPreference("w")),  # LOWEST negates: numbers only
    st.just(prioritized(LowestPreference("p0"), HighestPreference("p1"))),
)
arm_st = st.one_of(arm_st, arm_st, arm_st.map(dual))

term_st = st.lists(arm_st, min_size=2, max_size=4).map(lambda a: pareto(*a))

rows_st = st.lists(
    st.fixed_dictionaries(
        {
            "n0": cell_st,
            "n1": cell_st,
            "w": st.sampled_from(WORDS),
            # NaN stays off the composite arm: inside its key tuple a NaN
            # compares by identity, which no backend promises to mirror.
            "p0": st.sampled_from((0, 1)),
            "p1": st.sampled_from((0, 1)),
        }
    ),
    min_size=1,
    max_size=30,
)


def _bag(rows):
    return sorted(
        tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows
    )


@settings(max_examples=200)
@given(pref=term_st, rows=rows_st)
def test_columnar_winnow_is_the_definitional_bmo_set(pref, rows):
    rows = [dict(row, tag=i) for i, row in enumerate(rows)]
    expected = _bag(naive_nested_loop(pref, rows))
    assert columnar_axes(pref) is not None

    assert _bag(columnar_winnow(pref, rows)) == expected
    with mock.patch.object(columnar, "NUMPY_MIN_ROWS", 0):
        assert _bag(columnar_winnow(pref, rows)) == expected
    with mock.patch.dict("os.environ", {"REPRO_NO_NUMPY": "1"}):
        assert _bag(columnar_winnow(pref, rows)) == expected
    _check_every_entry(pref, rows, expected)


def _check_every_entry(pref, rows, expected):
    """``full_winnow``, a planned query and a grouped winnow (all of
    ``rows`` as one group beside a second, smaller one) against the oracle."""
    assert _bag(full_winnow(pref, rows)) == expected
    planned = PreferenceQuery.over(rows).prefer(pref)
    assert _bag(planned.run()) == expected
    grouped = [dict(row, g=0) for row in rows]
    grouped += [dict(row, g=1) for row in rows[:5]]
    algorithm = choose_algorithm(pref)
    assert algorithm == "vsfs"
    out = winnow_groupby(pref, ["g"], grouped, algorithm=algorithm)
    assert _bag(r for r in out if r["g"] == 0) == _bag(
        dict(row, g=0) for row in naive_nested_loop(pref, rows)
    )
    assert _bag(r for r in out if r["g"] == 1) == _bag(
        dict(row, g=1) for row in naive_nested_loop(pref, rows[:5])
    )


N = columnar.NUMPY_MIN_ROWS


@pytest.mark.parametrize("use_numpy", [True, False])
@pytest.mark.parametrize("size", [0, 1, N - 1, N, N + 1])
@pytest.mark.parametrize("name", sorted(LOWERED_TERMS))
def test_every_entry_is_the_bmo_set_on_both_sides_of_the_leg_switch(
    monkeypatch, name, size, use_numpy
):
    if not use_numpy:
        monkeypatch.setattr(engine_backend, "_numpy", None)
    pref = LOWERED_TERMS[name]
    rows = lowered_rows(size, seed=size)
    legs = []
    inner = columnar._skyline_rows

    def spy(store, axes, np, block_size):
        legs.append("numpy" if np is not None else "python")
        return inner(store, axes, np, block_size)

    monkeypatch.setattr(columnar, "_skyline_rows", spy)
    expected = _bag(naive_nested_loop(pref, rows))
    assert _bag(full_winnow(pref, rows)) == expected
    if size:
        vectorized = size >= N and engine_backend.numpy_available()
        assert legs == ["numpy" if vectorized else "python"]
    _check_every_entry(pref, rows, expected)
