"""``Preference.lt`` compares plain dict rows in place.

A plain ``dict`` holding every attribute is handed to ``_lt`` as it is;
every other shape, and a dict lacking an attribute, is normalized by
``as_row`` first, as before.  These tests hold ``lt`` to the old
definition — ``_lt`` over ``as_row`` copies — on every shape, pin the
shared-NaN reading of a one-attribute Pareto or prioritized arm, and pin
the comparison counts of the row algorithms.
"""

from __future__ import annotations

import types
from collections import OrderedDict
from collections.abc import Mapping
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import preference as preference_module
from repro.core.base_nonnumerical import PosPreference
from repro.core.base_numerical import (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
    LowestPreference,
    ScorePreference,
)
from repro.core.constructors import DualPreference, PrioritizedPreference, pareto
from repro.core.preference import as_row
from repro.datasets import generate_cars
from repro.query.algorithms import (
    ComparisonCounter,
    block_nested_loop,
    compatible_sort_key,
    naive_nested_loop,
    sort_filter_skyline,
)

NAN = float("nan")


class _Row(Mapping):
    """A Mapping that is not a dict."""

    def __init__(self, data):
        self._data = dict(data)

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


TERMS = [
    HighestPreference("a"),
    LowestPreference("a"),
    AroundPreference("a", 2),
    BetweenPreference("a", 1, 3),
    DualPreference(AroundPreference("a", 2)),
    ScorePreference(("a", "b"), lambda t: t[0] - t[1], name="diff"),
    PosPreference("a", {1, 3}),
    pareto(AroundPreference("a", 2), HighestPreference("b")),
    pareto(
        ScorePreference(("a", "b"), lambda t: t[0] + t[1], name="sum"),
        LowestPreference("c"),
    ),
    PrioritizedPreference((LowestPreference("a"), HighestPreference("b"))),
    PrioritizedPreference((
        pareto(HighestPreference("a"), HighestPreference("b")),
        AroundPreference("c", 1),
    )),
]

values = st.sampled_from((0, 1, 2, 3, 4, 2.0, NAN))


def _old_lt(pref, x, y):
    return pref._lt(as_row(x, pref.attributes), as_row(y, pref.attributes))


@pytest.mark.parametrize("pref", TERMS, ids=repr)
@settings(max_examples=30, deadline=None)
@given(x=st.tuples(values, values, values), y=st.tuples(values, values, values))
def test_lt_is_lt_over_normalized_rows_for_every_shape(pref, x, y):
    attributes = pref.attributes
    x_row = dict(zip("abc", x), extra="x")
    y_row = dict(zip("abc", y), extra="y")
    expected = _old_lt(pref, x_row, y_row)
    assert pref.lt(x_row, y_row) is expected
    for shape in (OrderedDict, types.MappingProxyType, _Row):
        assert pref.lt(shape(x_row), shape(y_row)) is expected
        assert pref.lt(x_row, shape(y_row)) is expected
    positional = tuple(x_row[a] for a in attributes)
    other = tuple(y_row[a] for a in attributes)
    if len(attributes) == 1:  # a scalar; a 1-tuple would be one too
        positional, other = positional[0], other[0]
    assert pref.lt(positional, other) is expected


def test_plain_dicts_are_not_copied():
    pref = pareto(AroundPreference("a", 2), HighestPreference("b"))
    with mock.patch.object(
        preference_module, "as_row", side_effect=AssertionError
    ):
        assert pref.lt({"a": 0, "b": 1}, {"a": 2, "b": 1})
    with mock.patch.object(
        preference_module, "as_row", wraps=as_row
    ) as spy:
        pref.lt(OrderedDict(a=0, b=1), {"a": 2, "b": 1})
    assert spy.call_count == 2


@pytest.mark.parametrize("pref", TERMS, ids=repr)
def test_a_missing_attribute_raises_as_before(pref):
    full = {"a": 1, "b": 2, "c": 3}
    for missing in pref.attributes:
        short = {k: v for k, v in full.items() if k != missing}
        with pytest.raises(KeyError) as old:
            as_row(short, pref.attributes)
        for x, y in ((short, full), (full, short)):
            with pytest.raises(KeyError) as new:
                pref.lt(x, y)
            assert new.value.args == old.value.args


@pytest.mark.parametrize(
    "make", [pareto, lambda *arms: PrioritizedPreference(arms)]
)
def test_a_shared_nan_is_equal_to_itself_on_a_one_attribute_arm(make):
    # As the projection 1-tuple compares: the same object is equal to
    # itself, another NaN object is not.
    pref = make(HighestPreference("a"), HighestPreference("b"))
    shared = float("nan")
    assert pref.lt({"a": shared, "b": 1}, {"a": shared, "b": 2})
    assert not pref.lt({"a": float("nan"), "b": 1}, {"a": NAN, "b": 2})
    two = make(
        ScorePreference(("a", "c"), lambda t: 0, name="zero"),
        HighestPreference("b"),
    )
    assert two.lt({"a": shared, "b": 1, "c": 0}, {"a": shared, "b": 2, "c": 0})
    assert not two.lt({"a": NAN, "b": 1, "c": 0},
                      {"a": float("nan"), "b": 2, "c": 0})


#: ``_lt`` calls of naive, BNL and SFS on 300 generated cars, as counted
#: before plain dicts were compared in place: the row algorithms and
#: ``kernel.row_comparisons`` count exactly what they counted.
COUNTS = {
    "pareto": (9472, 1504, 499),
    "pareto3": (42345, 21634, 8185),
    "prio": (2250, 307, 299),
}


def _count_terms():
    return {
        "pareto": pareto(
            AroundPreference("price", 20000), HighestPreference("horsepower")
        ),
        "pareto3": pareto(
            BetweenPreference("price", 15000, 25000),
            LowestPreference("mileage"),
            PosPreference("color", {"red"}),
        ),
        "prio": PrioritizedPreference((
            AroundPreference("price", 20000), HighestPreference("horsepower"),
        )),
    }


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_row_algorithms_count_the_same_comparisons(name):
    rows = generate_cars(300).rows()
    term = _count_terms()[name]
    counts = []
    for run in (
        naive_nested_loop,
        block_nested_loop,
        lambda p, r: sort_filter_skyline(p, r, key=compatible_sort_key(term)),
    ):
        counter = ComparisonCounter()
        run(counter.wrap(term), rows)
        counts.append(counter.comparisons)
    assert tuple(counts) == COUNTS[name]
