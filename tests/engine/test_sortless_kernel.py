"""The code kernel without the sorts its answers never read.

A dense rank, a re-densified identity code and a deduplicated key all
depend on values alone (Definition 15 makes ``sigma[P](R)`` a function of
attribute values), so the kernel computes them with the default sort and
a presence mask instead of a stable sort and ``np.unique``.  The unit
equivalences pin each piece against the expression it replaced; the
property pins the whole winnow on an index against the one oracle,
``naive_nested_loop``, as bags of rows, over columns that hold
duplicates, equidistant AROUND values, NaN on chain axes (composite
chains' stage columns included), ±0.0, mixed ints and floats, ints at
2**53 ± 1 and strings, at index sizes on both sides of
``NUMPY_MIN_ROWS`` and ``PIVOT_MIN_ROWS``.
"""

from __future__ import annotations

import datetime
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base_nonnumerical import PosPreference
from repro.core.base_numerical import (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import DualPreference, pareto, prioritized
from repro.engine import backend as engine_backend
from repro.engine import columnar
from repro.engine.columnar import (
    NUMPY_MIN_ROWS,
    PIVOT_MIN_ROWS,
    columnar_winnow,
)
from repro.engine.columns import _argsort_codes, interval_scores
from repro.query.algorithms import naive_nested_loop
from repro.relations.relation import Relation
from repro.relations.schema import Schema

np = engine_backend.get_numpy()
needs_numpy = pytest.mark.skipif(np is None, reason="NumPy is absent or disabled")

BIG = 2**53
NAN = float("nan")
WORDS = ("", "a", "ab", "b", "é", "ü", "zz", "a\x00")


# -- the pieces against what they replaced -----------------------------------------


def _stable_codes(arr):
    """Dense ranks as the stable sort computed them."""
    order = np.argsort(arr, kind="stable")
    in_order = arr[order]
    bumps = np.zeros(len(arr), dtype=np.int64)
    bumps[1:] = in_order[1:] > in_order[:-1]
    codes = np.empty(len(arr), dtype=np.int64)
    codes[order] = np.cumsum(bumps)
    return codes


numbers = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([0.0, -0.0, 0.5, -1.5, NAN, BIG - 1, BIG + 1, -BIG - 1]),
)


@needs_numpy
class TestPieces:
    @given(values=st.lists(numbers, min_size=1, max_size=60))
    def test_rank_codes_equal_the_stable_sorts(self, values):
        arr = np.asarray(values)
        assert _argsort_codes(np, arr).tolist() == _stable_codes(arr).tolist()

    @given(values=st.lists(st.sampled_from(WORDS[:-1]), min_size=1,
                           max_size=40))
    def test_rank_codes_of_strings(self, values):
        arr = np.asarray(values)
        assert _argsort_codes(np, arr).tolist() == _stable_codes(arr).tolist()

    def test_rank_codes_of_dates_with_nat(self):
        arr = np.array(["2001-01-03", "NaT", "2001-01-01", "2001-01-03",
                        "NaT"], dtype="datetime64[D]")
        assert _argsort_codes(np, arr).tolist() == _stable_codes(arr).tolist()

    @given(
        distinct=st.integers(1, 30),
        picks=st.lists(st.integers(0, 29), min_size=1, max_size=80),
        as_array=st.booleans(),
    )
    def test_present_equals_unique(self, distinct, picks, as_array):
        identity = np.asarray([p % distinct for p in picks], dtype=np.int64)
        values = [f"v{i}" for i in range(distinct)]
        held, inverse = np.unique(identity, return_inverse=True)
        dense, kept = columnar._present(
            identity, np.asarray(values) if as_array else values, np
        )
        assert dense.tolist() == inverse.reshape(-1).tolist()
        assert list(kept) == [values[i] for i in held.tolist()]

    @given(key=st.lists(st.integers(-5, 5) | st.sampled_from([2**62, -2**62]),
                        min_size=1, max_size=80))
    def test_dedup_keeps_the_set_unique_keeps(self, key):
        key = np.asarray(key, dtype=np.int64)
        distinct, first, inverse = np.unique(
            key, return_index=True, return_inverse=True
        )
        got_first, got_inverse = columnar._distinct_keys(np, key)
        # The same distinct keys in the same (ascending) order, each row
        # numbered alike; a run may be represented by another of its rows.
        assert key[got_first].tolist() == distinct.tolist()
        assert key[got_first].tolist() == key[first].tolist()
        assert got_inverse.tolist() == inverse.reshape(-1).tolist()

    @given(
        values=st.lists(
            st.integers(-20, 20) | st.sampled_from([NAN, -0.0, 2.5]),
            min_size=1, max_size=40,
        ),
        low=st.integers(-5, 5) | st.sampled_from([2.5, -0.5, -0.0]),
        width=st.integers(0, 4) | st.just(1.5),
    )
    def test_interval_scores_rank_as_the_three_way_where(
        self, values, low, width
    ):
        v = np.asarray(values)
        up = low + width
        before = -np.where(
            v < low, low - v, np.where(v > up, v - up, v - v)
        )
        after = interval_scores(v, low, up, np)
        assert np.array_equal(after, before, equal_nan=True)
        assert after.dtype == before.dtype


# -- the winnow on an index against the oracle -------------------------------------


def _nan() -> float:
    """A fresh NaN object.  With one NaN shared by two rows the oracle
    takes their projections for equal (tuple equality tests identity
    first) and the kernel does not: that divergence is a known open
    decision about NaN identity, not something these pieces touch."""
    return float("nan")


def _words(rng: random.Random) -> str:
    return rng.choice(WORDS[:-1]) if rng.random() < 0.97 else "a\x00"


#: Column kinds for chain arms (HIGHEST / LOWEST, maybe a dual).
CHAIN_KINDS = {
    "duplicates": lambda r: r.randrange(4),
    "nan": lambda r: _nan() if r.random() < 0.1 else r.randrange(8) / 2,
    "zeros": lambda r: r.choice((0.0, -0.0, 0.5, -0.5, 1.0)),
    "mixed": lambda r: r.choice((r.randrange(6), r.randrange(12) / 2)),
    "near_2_53": lambda r: r.choice((BIG - 1, BIG, BIG + 1, 0, -BIG - 1)),
    "words": _words,
    "dates": lambda r: datetime.date(2001, 1, 1 + r.randrange(9)),
}
#: Column kinds for AROUND / BETWEEN arms, around 3.
WEAK_KINDS = {
    "equidistant": lambda r: 3 + r.choice((-2, -1, 0, 1, 2)),
    "nan": lambda r: _nan() if r.random() < 0.1 else r.randrange(8) / 2,
    "zeros": lambda r: r.choice((0.0, -0.0, 3.0, 6.0, -3.0)),
    "mixed": lambda r: r.choice((r.randrange(7), r.randrange(14) / 2)),
    "near_2_53": lambda r: r.choice((BIG - 1, BIG + 1, 1, 5)),
}

#: Index sizes: both sides of both floors, and the empty and one-row input.
SIZES = (0, 1, 2, NUMPY_MIN_ROWS - 1, NUMPY_MIN_ROWS, NUMPY_MIN_ROWS + 1,
         300, PIVOT_MIN_ROWS - 1, PIVOT_MIN_ROWS, PIVOT_MIN_ROWS + 1)


@st.composite
def arms(draw, attribute: str):
    """One Pareto arm over ``attribute`` (a composite chain: over it and
    ``attribute + "s"``) and the drawers of its columns."""
    shape = draw(st.sampled_from(("chain", "weak", "pos", "composite")))
    if shape == "composite":
        kinds = [draw(st.sampled_from(sorted(CHAIN_KINDS))) for _ in "ab"]
        arm = prioritized(
            HighestPreference(attribute), LowestPreference(attribute + "s")
        )
        return arm, {attribute: CHAIN_KINDS[kinds[0]],
                     attribute + "s": CHAIN_KINDS[kinds[1]]}
    if shape == "chain":
        kind = draw(st.sampled_from(sorted(CHAIN_KINDS)))
        ctor = draw(st.sampled_from((HighestPreference, LowestPreference)))
        arm, column = ctor(attribute), CHAIN_KINDS[kind]
    elif shape == "weak":
        kind = draw(st.sampled_from(sorted(WEAK_KINDS)))
        if draw(st.booleans()):
            arm = AroundPreference(attribute, 3)
        else:
            arm = BetweenPreference(attribute, 2, draw(st.sampled_from((2, 4))))
        column = WEAK_KINDS[kind]
    else:
        picked = draw(st.sets(st.sampled_from(WORDS), min_size=1, max_size=3))
        arm, column = PosPreference(attribute, picked), _words
    if draw(st.integers(0, 5)) == 0:
        arm = DualPreference(arm)
    return arm, {attribute: column}


@st.composite
def indexed_winnows(draw):
    """A Pareto term of 2-4 arms, a relation, and a WHERE index into it."""
    width = draw(st.integers(2, 4))
    drawn = [draw(arms(f"a{i}")) for i in range(width)]
    size = draw(st.sampled_from(SIZES))
    n = size + draw(st.integers(0, 40))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [
        dict({attribute: column(rng) for _, columns in drawn
              for attribute, column in columns.items()}, tag=t)
        for t in range(n)
    ]
    index = sorted(rng.sample(range(n), size))
    return pareto(*(arm for arm, _ in drawn)), rows, index


def _bag(rows):
    return sorted(row["tag"] for row in rows)


@settings(deadline=None)
@given(case=indexed_winnows())
def test_a_winnow_on_an_index_is_the_oracles_bag(case):
    pref, rows, index = case
    relation = Relation("r", Schema(list(rows[0]) if rows else ["tag"]), rows)
    at = index if np is None else np.asarray(index, dtype=np.int64)
    got = columnar_winnow(pref, relation, index=at)
    assert _bag(got) == _bag(naive_nested_loop(pref, [rows[i] for i in index]))
