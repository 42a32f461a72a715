"""Model-level BMO invariants, property-tested for arbitrary terms.

These are the guarantees the paper's prose promises for every preference:

* non-emptiness (no empty-result effect) on non-empty inputs,
* containment: the answer is a sub-bag of the input,
* idempotence: the best of the best is the best,
* soundness: no answer tuple is dominated by any input tuple,
* completeness: every undominated input tuple is in the answer,
* duplicate preservation: projection-equal tuples live and die together.
"""

from hypothesis import given, settings

from tests.conftest import nonempty_rows_st, preference_st

from repro.query.bmo import winnow


def _key(row):
    return tuple(sorted(row.items()))


@given(preference_st(max_depth=3), nonempty_rows_st)
@settings(max_examples=60)
def test_never_empty(pref, rows):
    assert winnow(pref, rows)


@given(preference_st(max_depth=3), nonempty_rows_st)
@settings(max_examples=60)
def test_answers_come_from_the_input(pref, rows):
    input_keys = {_key(r) for r in rows}
    assert all(_key(r) in input_keys for r in winnow(pref, rows))


@given(preference_st(max_depth=3), nonempty_rows_st)
@settings(max_examples=60)
def test_idempotent(pref, rows):
    once = winnow(pref, rows)
    twice = winnow(pref, once)
    assert sorted(map(_key, once)) == sorted(map(_key, twice))


@given(preference_st(max_depth=3), nonempty_rows_st)
@settings(max_examples=60)
def test_sound_and_complete(pref, rows):
    answer = {_key(r) for r in winnow(pref, rows)}
    for candidate in rows:
        dominated = any(pref.lt(candidate, other) for other in rows)
        if dominated:
            assert _key(candidate) not in answer
        else:
            assert _key(candidate) in answer


@given(preference_st(max_depth=3), nonempty_rows_st)
@settings(max_examples=40)
def test_projection_equal_tuples_share_fate(pref, rows):
    answer_keys = {_key(r) for r in winnow(pref, rows)}
    attrs = pref.attributes
    by_projection: dict[tuple, list] = {}
    for row in rows:
        by_projection.setdefault(
            tuple(row[a] for a in attrs), []
        ).append(row)
    for group in by_projection.values():
        verdicts = {_key(r) in answer_keys for r in group}
        assert len(verdicts) == 1  # all in, or all out
