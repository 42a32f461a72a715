"""WHERE conjuncts as NumPy masks select exactly what the row closure does.

``where_mask`` answers a boolean vector over a store's exact columns, or
None (the conjunct keeps its closure); ``select_index`` composes the
conjuncts of a ``HardSelect`` chain into one index of the snapshot.  The
oracle is ``translate_where``, one dict at a time.  Columns are drawn per
family — ints reaching past 2**53, floats with NaN and ±inf, mixed
int/float, bools, words with trailing NULs — each sometimes holding None,
against literals of every type, so the empty and the one-row answer and
every leaf kind under AND / OR occur.
"""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import backend as engine_backend
from repro.engine import columnar
from repro.engine.columnar import select_index
from repro.psql.ast import (
    BoolOp,
    Comparison,
    HardBetween,
    InList,
    IsNull,
    LikePattern,
    NotOp,
)
from repro.psql.translate import translate_where, where_mask
from repro.relations.relation import Relation
from repro.relations.schema import Schema

#: The NumPy module even under REPRO_NO_NUMPY: the mask itself is tested
#: directly, and select_index picks its leg by itself.
np = engine_backend._numpy
needs_numpy = pytest.mark.skipif(np is None, reason="masks need NumPy")
numpy_leg = pytest.mark.skipif(
    engine_backend.get_numpy() is None, reason="the NumPy leg is off"
)

BIG = 2**53
INTS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([BIG - 1, BIG, BIG + 1, -BIG - 1, 2**63 - 1]),
)
FLOATS = st.one_of(
    st.sampled_from([0.5, -1.5, 2.0, float(BIG), math.inf, -math.inf]),
    st.builds(float, st.just("nan")),
)
WORDS = st.sampled_from(["", "a", "a\x00", "ab", "a\x00b", "b"])
FAMILIES = {
    "int": INTS,
    "float": FLOATS,
    "mixed": st.one_of(st.integers(-3, 3), FLOATS),
    "bool": st.booleans(),
    "word": WORDS,
}
LITERALS = st.one_of(
    INTS, FLOATS, st.booleans(), WORDS,
    st.sampled_from([2**63, 2**70, 9007199254740992.0, -0.0]),
)
ATTRIBUTES = ("a", "b")
OPS = ("=", "<>", "<", "<=", ">", ">=")


@st.composite
def relations(draw):
    n = draw(st.integers(0, 12))
    columns = {}
    for attribute in ATTRIBUTES:
        cell = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
        if draw(st.integers(0, 4)) == 0:
            cell = st.one_of(cell, st.none())
        columns[attribute] = [draw(cell) for _ in range(n)]
    rows = [{a: columns[a][i] for a in ATTRIBUTES} for i in range(n)]
    return Relation("r", Schema(list(ATTRIBUTES)), rows)


attribute_st = st.sampled_from(ATTRIBUTES)
leaf_st = st.one_of(
    st.builds(Comparison, attribute_st, st.sampled_from(OPS), LITERALS),
    st.builds(
        InList, attribute_st,
        st.lists(LITERALS, max_size=3).map(tuple), st.booleans(),
    ),
    st.builds(HardBetween, attribute_st, LITERALS, LITERALS),
    st.builds(IsNull, attribute_st, st.booleans()),
    st.builds(LikePattern, attribute_st, st.just("a%"), st.booleans()),
)
expr_st = st.recursive(
    leaf_st,
    lambda kids: st.one_of(
        st.builds(
            BoolOp, st.sampled_from(("AND", "OR")),
            st.lists(kids, min_size=1, max_size=3).map(tuple),
        ),
        st.builds(NotOp, kids),
    ),
    max_leaves=4,
)


def _closure(relation, exprs):
    predicates = [translate_where(e) for e in exprs]
    return [
        i for i, row in enumerate(relation._rows)
        if all(p(row) for p in predicates)
    ]


@needs_numpy
@settings(max_examples=300)
@given(relation=relations(), expr=expr_st)
def test_a_mask_selects_what_the_closure_selects(relation, expr):
    store = relation.column_store()
    mask = where_mask(expr, lambda a: store.array(a, np), np)
    if mask is not None:
        assert np.flatnonzero(mask).tolist() == _closure(relation, [expr])


@settings(max_examples=300)
@given(
    relation=relations(),
    exprs=st.lists(expr_st, min_size=1, max_size=3),
    numpy_leg=st.booleans(),
)
def test_a_chain_of_conjuncts_is_one_index(relation, exprs, numpy_leg):
    """Innermost first, each conjunct a mask or a closure over the rows
    the index holds so far: the same positions, in the same order."""
    conjuncts = [(translate_where(e), e) for e in exprs]
    with mock.patch.object(columnar, "NUMPY_MIN_ROWS", 0 if numpy_leg else 10**9):
        index = select_index(relation, conjuncts)
    assert list(index) == _closure(relation, exprs)


@needs_numpy
@pytest.mark.parametrize("rows, expr, expected", [
    # NumPy compares int64 with float64 in float64: 2**53 + 1 rounds down.
    ([{"a": BIG + 1}, {"a": 1}], Comparison("a", ">", float(BIG)), [0]),
    # ... and a float column with an int literal that float64 rounds.
    ([{"a": float(BIG)}, {"a": 1e300}], Comparison("a", "<", BIG + 1), [0]),
    # Fixed-width strings strip trailing NULs.
    ([{"a": "a"}, {"a": "a\x00"}], Comparison("a", "=", "a"), [0]),
    ([{"a": "a"}, {"a": "b"}], Comparison("a", "=", "a\x00"), []),
    # None makes the column an object array: no mask, and no match.
    ([{"a": None}, {"a": 2}], Comparison("a", ">=", 1), [1]),
])
def test_inexact_comparisons_keep_the_closure(rows, expr, expected):
    relation = Relation("r", Schema(["a"]), rows)
    store = relation.column_store()
    assert where_mask(expr, lambda a: store.array(a, np), np) is None
    with mock.patch.object(columnar, "NUMPY_MIN_ROWS", 0):
        assert list(select_index(relation, [(translate_where(expr), expr)])) \
            == expected


@numpy_leg
def test_exact_conjuncts_never_call_the_closure():
    rows = [{"a": i, "b": f"w{i % 3}"} for i in range(100)]
    relation = Relation("r", Schema.infer(rows), rows)
    exprs = [
        BoolOp("OR", (Comparison("b", "=", "w1"), InList("a", (0, 5)))),
        HardBetween("a", 2, 70.5),
    ]

    def refuse(row):
        raise AssertionError("closure called")

    index = select_index(relation, [(refuse, e) for e in exprs])
    assert index.tolist() == _closure(relation, exprs)
