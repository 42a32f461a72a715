"""The one normal form: every spelling of a term keys and plans as one.

Terms are drawn from :func:`tests.conftest.preference_st` and respelled
the ways Definition 13 equivalence allows syntax to vary: commutative
arms permuted (Proposition 2a), associative arms regrouped (2b, 2c),
arms duplicated (Propositions 3f, 3l and the covered prioritized stage)
and leaves wrapped in the dual pair ``(P^d)^d`` (Proposition 3b).
"""

from hypothesis import given, settings, strategies as st

from tests.conftest import (
    canon_rows,
    nonempty_rows_st,
    normalizer_walks,
    preference_st,
)

from repro.algebra import rewriter
from repro.algebra.equivalence import canonical_form
from repro.core.base_numerical import ScorePreference
from repro.core.constructors import (
    DualPreference,
    IntersectionPreference,
    ParetoPreference,
    PrioritizedPreference,
)
from repro.query.algorithms import naive_nested_loop
from repro.server.views import ViewSpec
from repro.session import Session

_ASSOCIATIVE = (ParetoPreference, IntersectionPreference, PrioritizedPreference)
_COMMUTATIVE = (ParetoPreference, IntersectionPreference)


def _arms(term, ctor):
    if type(term) is not ctor:
        return [term]
    return [arm for child in term.children for arm in _arms(child, ctor)]


def _group(ctor, arms, rng):
    if len(arms) == 1:
        return arms[0]
    if len(arms) == 2 or rng.random() < 0.5:
        return ctor(tuple(arms))
    cut = rng.randrange(1, len(arms))
    return ctor((_group(ctor, arms[:cut], rng), _group(ctor, arms[cut:], rng)))


def respell(term, rng):
    """An equivalent spelling of ``term``."""
    ctor = type(term)
    if ctor in _ASSOCIATIVE:
        arms = [respell(arm, rng) for arm in _arms(term, ctor)]
        if ctor in _COMMUTATIVE:
            rng.shuffle(arms)
        if rng.random() < 0.3:  # a later duplicate never changes the order
            arms.append(arms[rng.randrange(len(arms))])
        return _group(ctor, arms, rng)
    if ctor is DualPreference:
        return DualPreference(respell(term.base, rng))
    if not term.children and rng.random() < 0.3:
        return DualPreference(DualPreference(term))
    return term


spelled_st = st.tuples(
    preference_st(max_depth=5), st.lists(st.randoms(), min_size=3, max_size=3)
).map(lambda drawn: [drawn[0], *(respell(drawn[0], r) for r in drawn[1])])


@given(spelled_st)
@settings(max_examples=120)
def test_every_spelling_gets_one_key(spellings):
    normal = canonical_form(spellings[0])
    assert canonical_form(normal) == normal  # idempotent
    keys = {ViewSpec("r", s).key for s in spellings}
    assert keys == {ViewSpec("r", normal).key}


@given(spelled_st, nonempty_rows_st)
def test_planned_answers_are_the_definition(spellings, rows):
    session = Session({"r": [dict(r) for r in rows]})
    expected = canon_rows(naive_nested_loop(spellings[0], rows))
    for spelling in spellings:
        planned = session.query("r").prefer(spelling).run()
        assert canon_rows(planned) == expected


@given(preference_st(max_depth=4))
def test_terms_differing_only_in_code_never_share_a_key(pref):
    def code():
        return lambda v: v

    # A prioritized head is never simplified away, so its code decides.
    f, g = code(), code()  # the same source, two function objects
    spell_f = PrioritizedPreference((ScorePreference("a", f), pref))
    spell_g = PrioritizedPreference((ScorePreference("a", g), pref))
    assert ViewSpec("r", spell_f).key != ViewSpec("r", spell_g).key
    again = PrioritizedPreference((ScorePreference("a", f), pref))
    assert ViewSpec("r", again).key == ViewSpec("r", spell_f).key


@given(st.lists(spelled_st, min_size=1, max_size=4))
def test_the_memo_walks_each_signature_once_and_stays_bounded(families):
    terms = [s for spellings in families for s in spellings]
    with normalizer_walks() as walks:
        first = [canonical_form(t) for t in terms]
        walked = [w.signature for w in walks]
        assert len(walked) == len(set(walked))
        assert set(walked) <= {t.signature for t in terms}
        assert [canonical_form(t) for t in terms] == first
        assert len(walks) == len(walked)  # every repeat was a memo hit
        cap = rewriter._MEMO_CAP
        rewriter._MEMO_CAP = 3
        rewriter._memo.clear()  # the context's own memo
        try:
            for t in terms:
                canonical_form(t)
                assert len(rewriter._memo) <= 3
            assert [canonical_form(t) for t in terms] == first
        finally:
            rewriter._MEMO_CAP = cap




def test_a_cold_plan_walks_the_normalizer_once():
    from repro.server.service import PreferenceService

    rows = [{"a": a, "b": b} for a in range(4) for b in range(4)]
    term = ParetoPreference((
        DualPreference(DualPreference(ScorePreference("b", abs))),
        ScorePreference("a", abs),
    ))
    service = PreferenceService({"r": rows}, auto_view_threshold=1)
    try:
        with normalizer_walks() as walks:
            # The view key, the view's seeding winnow and a cold plan of
            # the same spelling all take the one memoized walk.
            answer = service.query(spec={"relation": "r", "prefer": term})
            assert "commute" in service.session.query("r").prefer(
                term).explain()
            assert len(walks) == 1
        assert answer.source == "view"
    finally:
        service.close()
