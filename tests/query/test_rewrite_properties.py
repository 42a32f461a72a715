"""Property-based soundness of the plan rewrite rules.

The master invariant: for ANY preference term, relation, and selection,
the rewritten plan returns exactly what the canonical (unrewritten) plan
and the naive declarative evaluation return.  Every rule — rigid-selection
pushdown, quality pushdown, prioritization splitting, Pareto arm
decomposition, constant pruning, trivial-winnow elimination — stays inside
this invariant or it is a bug, no matter how profitable the transform.

Strategies come from ``tests/conftest.py``: arbitrary terms over the
attributes a/b/c with values 0..4, so dual pairs, anti-chains (SV-style
no-ops), empty relations, and all-maximal inputs all occur naturally.
"""

import math

from hypothesis import example, given, settings, strategies as st

from tests.conftest import ATTRIBUTES, preference_st, rows_st

from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import pareto, prioritized
from repro.query.api import PreferenceQuery
from repro.query.bmo import winnow
from repro.query.quality import but_only

_OPS = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "="}


def row_multiset(result):
    out = {}
    for r in result:
        key = tuple(sorted(r.items()))
        out[key] = out.get(key, 0) + 1
    return out


def _passes(row, attribute, suffix, bound):
    value = row[attribute]
    return {
        "lt": value < bound,
        "le": value <= bound,
        "gt": value > bound,
        "ge": value >= bound,
        "eq": value == bound,
    }[suffix]


conjunct_st = st.tuples(
    st.sampled_from(ATTRIBUTES),
    st.sampled_from(sorted(_OPS)),
    st.sampled_from((0, 1, 2, 3, 4)),
)


class TestSelectionPushdownSoundness:
    @given(preference_st(max_depth=3), rows_st, conjunct_st)
    @settings(max_examples=80)
    def test_filtered_query_equals_naive_on_filtered_rows(
        self, pref, rows, conjunct
    ):
        """WHERE-before-PREFERRING semantics survive every rewrite,
        whether or not the rigidity analysis certified the conjunct."""
        attribute, suffix, bound = conjunct
        query = (
            PreferenceQuery.over(rows)
            .where(**{f"{attribute}__{suffix}": bound})
            .prefer(pref)
        )
        filtered = [r for r in rows if _passes(r, attribute, suffix, bound)]
        reference = winnow(pref, filtered, algorithm="naive")
        assert row_multiset(query.run()) == row_multiset(reference)
        assert row_multiset(query.optimize(False).run()) == row_multiset(
            reference
        )

    @given(preference_st(max_depth=3), rows_st)
    @settings(max_examples=60)
    def test_rewritten_equals_unrewritten(self, pref, rows):
        query = PreferenceQuery.over(rows).prefer(pref)
        assert row_multiset(query.run()) == row_multiset(
            query.optimize(False).run()
        )

    @given(preference_st(max_depth=2), rows_st.filter(lambda r: len(r) <= 1))
    @settings(max_examples=30)
    def test_trivial_inputs(self, pref, rows):
        """Empty and single-tuple relations: the shortcut is the identity."""
        query = PreferenceQuery.over(rows).prefer(pref)
        assert row_multiset(query.run()) == row_multiset(
            winnow(pref, rows, algorithm="naive")
        )


def _quality_pref_st():
    around = st.builds(
        AroundPreference, st.sampled_from(ATTRIBUTES), st.sampled_from(range(5))
    )
    other = st.one_of(
        st.builds(HighestPreference, st.just("b")),
        st.builds(LowestPreference, st.just("b")),
    )
    return st.one_of(
        around,
        st.builds(lambda a, o: pareto(a, o), around, other),
        st.builds(lambda a, o: prioritized(a, o), around, other),
        st.builds(lambda a, o: prioritized(o, a), around, other),
    )


class TestQualityPushdownSoundness:
    @given(
        _quality_pref_st(),
        rows_st,
        st.sampled_from(("<", "<=")),
        st.sampled_from((0, 1, 2)),
    )
    @settings(max_examples=80)
    def test_but_only_equals_post_filter(self, pref, rows, op, bound):
        """BUT ONLY pushed below the winnow == BUT ONLY applied on top.

        The AROUND base lands in certified and uncertified positions
        alike; uncertified conditions must simply stay above.
        """
        attribute = next(
            a for a in ATTRIBUTES
            if any(
                isinstance(b, AroundPreference)
                for b in _leaves(pref)
                if b.attributes == (a,)
            )
        )
        query = (
            PreferenceQuery.over(rows)
            .prefer(pref)
            .but_only(("distance", attribute, op, bound))
        )
        from repro.query.quality import QualityCondition

        reference = but_only(
            pref,
            winnow(pref, list(rows), algorithm="naive"),
            [QualityCondition("distance", attribute, op, bound)],
        )
        assert row_multiset(query.run()) == row_multiset(reference)


_BOUND_ST = st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-10**6, 10**6)


class TestQualityPrefilterIsASuperset:
    @given(
        low=_BOUND_ST,
        width=st.floats(0, 1e4, allow_nan=False) | st.integers(0, 10**4),
        bound=st.floats(0, 1e4, allow_nan=False) | st.integers(0, 10**4),
    )
    @example(low=-2000.0, width=0, bound=2000.5)
    @example(low=0.1, width=0, bound=0.2)
    @settings(max_examples=300)
    def test_every_value_within_the_distance_passes_the_interval(
        self, low, width, bound
    ):
        """The pushed ``HardBetween`` only prefilters: every value whose
        DISTANCE (in the arithmetic the exact condition uses) is within
        the bound lies inside it, next to both ends to the last ulp."""
        from repro.core.base_numerical import BetweenPreference
        from repro.query.quality import QualityCondition
        from repro.query.rewrite import _quality_ast

        base = BetweenPreference("a", low, low + width)
        condition = QualityCondition("distance", "a", "<=", bound)
        interval = _quality_ast(base, condition)
        for edge in (base.low - bound, base.up + bound):
            probe = float(edge)
            for _ in range(4):
                probe = math.nextafter(probe, -math.inf)
            for _ in range(9):
                for value in (probe, int(probe)):
                    if condition.matches(base, {"a": value}):
                        assert interval.low <= value <= interval.up
                probe = math.nextafter(probe, math.inf)


def _leaves(pref):
    stack = [pref]
    while stack:
        node = stack.pop()
        if node.children:
            stack.extend(node.children)
        else:
            yield node
