"""Terms that differ only in their code never share a cache entry.

A ``SCORE`` function, a ``rank`` combiner or a chain key decides the
order, so two terms over the same attributes whose code differs — two
lambdas both named ``<lambda>``, a name re-bound in the session
registry — are different terms.  Each case below once answered from the
other term's plan, normal form or view.
"""

from repro.core.base_numerical import ScorePreference
from repro.core.constructors import pareto, prioritized
from repro.core.preference import ChainPreference
from repro.query.algorithms import naive_nested_loop
from repro.server.service import PreferenceService
from repro.session import Session

ROWS = [{"x": v} for v in range(5)]


def _xs(rows):
    return sorted(r["x"] for r in rows)


def _up():
    return ScorePreference("x", lambda v: v)


def _down():
    return ScorePreference("x", lambda v: -v)


def test_plan_cache_keeps_lambdas_apart():
    session = Session({"t": [dict(r) for r in ROWS]})
    assert _xs(session.query("t").prefer(_up()).run()) == [4]
    assert _xs(session.query("t").prefer(_down()).run()) == [0]
    assert session.cache_info().hits == 0


def test_plan_cache_keeps_chain_keys_apart():
    session = Session({"t": [dict(r) for r in ROWS]})
    assert _xs(session.query("t").prefer(ChainPreference("x")).run()) == [4]
    negated = ChainPreference("x", key=lambda v: -v)
    assert _xs(session.query("t").prefer(negated).run()) == [0]
    assert "key=<lambda>" in session.query("t").prefer(negated).explain()


def test_normal_form_keeps_lambdas_apart():
    term = pareto(_up(), _down())
    session = Session({"t": [dict(r) for r in ROWS]})
    planned = session.query("t").prefer(term).run()
    assert _xs(planned) == _xs(naive_nested_loop(term, ROWS)) == [0, 1, 2, 3, 4]


def test_view_keys_keep_argument_positions():
    f, g = _up(), _down()
    service = PreferenceService({"t": [dict(r) for r in ROWS]})
    try:
        first = service.materialize("t", prioritized(f, g))
        second = service.materialize("t", prioritized(g, f))
        assert first is not second
        assert _xs(first.rows()) == [4]
        assert _xs(second.rows()) == [0]
    finally:
        service.close()


def test_rebinding_a_function_name_never_replays_the_old_plan():
    session = Session({"t": [dict(r) for r in ROWS]},
                      functions={"f": lambda v: v})
    sql = "SELECT * FROM t PREFERRING SCORE(x, f)"
    assert _xs(session.sql_query(sql).run()) == [4]
    session.register_function("f", lambda v: -v)
    assert _xs(session.sql_query(sql).run()) == [0]
    # One registered object per name: re-reading it hits the cache.
    hits = session.cache_info().hits
    assert _xs(session.sql_query(sql).run()) == [0]
    assert session.cache_info().hits == hits + 1
