"""repro — a reproduction of Kiessling's *Foundations of Preferences in
Database Systems* (VLDB 2002).

The library models preferences as strict partial orders, composes them with
the paper's constructors (Pareto, prioritized, rank(F), intersection,
disjoint union, linear sum), evaluates preference queries under the
Best-Matches-Only (BMO) model over an in-memory relational substrate, and
ships the two query-language front ends the paper describes: Preference SQL
and Preference XPath.

Quickstart::

    from repro import AROUND, POS, Session, pareto, prioritized

    s = Session({"car": [
        {"color": "red", "price": 40000},
        {"color": "gray", "price": 20000},
    ]})
    wish = prioritized(POS("color", {"red"}), AROUND("price", 25000))
    best = s.query("car").prefer(wish).run()
    print(s.query("car").prefer(wish).explain())   # plan + fired laws
    same = s.sql("SELECT * FROM car PREFERRING color = 'red'")

Every entry point — the fluent :class:`~repro.query.api.PreferenceQuery`
builder above, Preference SQL (:class:`~repro.psql.executor.PreferenceSQL`
or ``Session.sql``), and Preference XPath — funnels through one lazily
evaluated planning pipeline with a per-session plan cache.

Migrating from the pre-Session functional helpers (``bmo``, ``bmo_groupby``
and ``top_k`` are removed; ``repro.query.winnow`` / ``winnow_groupby`` /
``k_best`` take the same arguments without planning):

===================================  =========================================
old entry point                      fluent equivalent
===================================  =========================================
``bmo(p, rel)``                      ``PreferenceQuery.over(rel).prefer(p).run()``
``bmo(p, rel, algorithm="sfs")``     ``...prefer(p).using("sfs").run()``
``bmo_groupby(p, by, rel)``          ``...prefer(p).groupby(*by).run()``
``top_k(p, rel, k, ties=t)``         ``...prefer(p).top(k, ties=t).run()``
``but_only(p, rel, conds)``          ``...prefer(p).but_only(*conds).run()``
``optimizer.execute(p, rel, ...)``   ``Session(cat).query(name).prefer(p).run()``
``optimizer.explain(p, rel, ...)``   ``...prefer(p).explain()``
``PreferenceSQL(cat).execute(text)`` ``Session(cat).sql(text)``
===================================  =========================================

(Catalog-bound queries via ``Session.query`` additionally memoize their
plans, keyed on the relation's catalog version.)
"""

from repro.core import (
    AntiChain,
    AroundPreference,
    BetterThanGraph,
    BetweenPreference,
    ChainPreference,
    DisjointUnionPreference,
    DualPreference,
    ExplicitPreference,
    HighestPreference,
    IntersectionPreference,
    LayeredPreference,
    LinearSumPreference,
    LowestPreference,
    NegPreference,
    ParetoPreference,
    PosNegPreference,
    PosPosPreference,
    PosPreference,
    Preference,
    PrioritizedPreference,
    RankPreference,
    ScorePreference,
    SubsetPreference,
    dual,
    intersection,
    linear_sum,
    pareto,
    prioritized,
    rank,
    union,
)
from repro.query.api import PreferenceQuery
from repro.relations.catalog import Catalog
from repro.relations.relation import Relation
from repro.session import MutationEvent, Session

# Paper-style aliases: read like Definition 6/7 constructor applications.
POS = PosPreference
NEG = NegPreference
POS_NEG = PosNegPreference
POS_POS = PosPosPreference
EXPLICIT = ExplicitPreference
AROUND = AroundPreference
BETWEEN = BetweenPreference
LOWEST = LowestPreference
HIGHEST = HighestPreference
SCORE = ScorePreference

__version__ = "1.0.0"

__all__ = [
    "AROUND",
    "AntiChain",
    "AroundPreference",
    "BETWEEN",
    "BetterThanGraph",
    "BetweenPreference",
    "Catalog",
    "ChainPreference",
    "DisjointUnionPreference",
    "DualPreference",
    "EXPLICIT",
    "ExplicitPreference",
    "HIGHEST",
    "HighestPreference",
    "IntersectionPreference",
    "LOWEST",
    "LayeredPreference",
    "LinearSumPreference",
    "LowestPreference",
    "NEG",
    "NegPreference",
    "POS",
    "POS_NEG",
    "POS_POS",
    "ParetoPreference",
    "PosNegPreference",
    "PosPosPreference",
    "PosPreference",
    "Preference",
    "PreferenceQuery",
    "PrioritizedPreference",
    "RankPreference",
    "Relation",
    "SCORE",
    "ScorePreference",
    "MutationEvent",
    "Session",
    "SubsetPreference",
    "dual",
    "intersection",
    "linear_sum",
    "pareto",
    "prioritized",
    "rank",
    "union",
]
