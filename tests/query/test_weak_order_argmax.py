"""One weak-order evaluator: every path that evaluates a weak order over one
column runs the same argmax, and it keeps exactly the BMO set.

HIGHEST, LOWEST, the SCORE family and the layered POS / NEG family are weak
orders (Definitions 6 and 7); their BMO set is the best-scored group plus
every row whose score ranks against nothing.  The property below draws each
constructor ``weak_score`` accepts, and its dual, over hostile columns —
NaN (shared and distinct objects), +-inf, duplicates, mixed int/float,
words, words mixed with numbers, empty and one-row inputs — and checks
every entry point against the declarative evaluator: equal bags, or the
same exception type where the definition itself cannot compare.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.core.constructors import DualPreference, pareto
from repro.core.preference import ChainPreference
from repro.core.constructors import prioritized
from repro.engine.columnar import columnar_winnow
from repro.engine.columns import ColumnStore
from repro.query.algorithms import ALGORITHMS, naive_nested_loop, weak_score
from repro.query.api import PreferenceQuery
from repro.query.bmo import winnow_groupby
from repro.query.optimizer import choose_algorithm, full_winnow
from repro.query.optimizer import plan as make_plan
from repro.query.plan import PreferenceSelect, Scan
from repro.relations.relation import Relation
from repro.relations.schema import Schema

NAN = float("nan")


def _mod3(value):
    return value % 3


def _diff(pair):
    return pair[0] - pair[1]


#: name -> (constructor, which column values it can score).  "any" terms
#: only order or look up values, so words (and words mixed with numbers)
#: are fair game; "number" terms subtract.
CONSTRUCTORS = {
    "highest": (lambda: HighestPreference("a"), "any"),
    "lowest": (lambda: LowestPreference("a"), "any"),
    "around": (lambda: AroundPreference("a", 1), "number"),
    "between": (lambda: BetweenPreference("a", 0, 1), "number"),
    "score": (lambda: ScorePreference("a", _mod3, name="mod3"), "number"),
    "score2": (lambda: ScorePreference(("a", "b"), _diff, name="diff"),
               "number"),
    "pos": (lambda: PosPreference("a", {1, "ash"}), "any"),
    "neg": (lambda: NegPreference("a", {2, "elm"}), "any"),
    "posneg": (lambda: PosNegPreference("a", {1, "ash"}, {2, "elm"}), "any"),
    "pospos": (lambda: PosPosPreference("a", {1, "ash"}, {0, "bay"}), "any"),
    "layered": (lambda: LayeredPreference("a", [{0, "ash"}, {1, 2.0, "oak"}]),
                "any"),
    "chain": (lambda: ChainPreference("a"), "any"),
}

numbers = st.one_of(
    st.sampled_from(
        [-2, -1, 0, 1, 2, 3, 0.5, 1.0, 2.0, float("inf"), float("-inf"), NAN]
    ),
    st.builds(float, st.just("nan")),  # a NaN object of its own
)
words = st.sampled_from(["ash", "bay", "elm", "oak"])
mixed = st.one_of(st.integers(min_value=-1, max_value=2), words)


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(CONSTRUCTORS)))
    make, domain = CONSTRUCTORS[name]
    pref = make()
    if draw(st.booleans()):
        pref = DualPreference(pref)
    # Words never meet NaN: the definition cannot compare the two, while
    # an evaluator that sets NaN scores aside never tries.
    values = numbers if domain == "number" else draw(
        st.sampled_from([numbers, words, mixed])
    )
    rows = draw(st.lists(
        st.fixed_dictionaries({
            "a": values, "b": numbers, "g": st.sampled_from([0, 1]),
        }),
        max_size=12,
    ))
    for i, row in enumerate(rows):
        row["i"], row["k"] = i, 7
    return pref, rows


def _outcome(evaluate):
    """The bag of row ids an evaluator keeps, or the type it raised."""
    try:
        return sorted(row["i"] for row in evaluate())
    except (TypeError, ValueError, KeyError) as exc:
        return type(exc)


def _naive_groupby(pref, rows):
    kept = []
    for g in (0, 1):
        kept += naive_nested_loop(pref, [r for r in rows if r["g"] == g])
    return kept


@given(cases())
@settings(max_examples=300, deadline=None)
def test_every_path_is_the_definition(case):
    pref, rows = case
    assert weak_score(pref) is not None
    expected = _outcome(lambda: naive_nested_loop(pref, rows))
    assert _outcome(lambda: ALGORITHMS["sort"](pref, rows)) == expected
    assert _outcome(lambda: columnar_winnow(pref, rows)) == expected
    assert _outcome(lambda: full_winnow(pref, rows)) == expected
    assert _outcome(
        lambda: PreferenceQuery.over(rows).prefer(pref).run()
    ) == expected
    assert _outcome(
        lambda: winnow_groupby(pref, ["g"], rows, algorithm="sort")
    ) == _outcome(lambda: _naive_groupby(pref, rows))

    # A constant arm beside the weak order: the constraint registry proves
    # it indifferent, and winnow_to_sort rebuilds the winnow over the weak
    # order alone.
    padded = pareto(pref, HighestPreference("k"))
    query = PreferenceQuery.over(rows).prefer(padded)
    assert _outcome(query.run) == _outcome(
        lambda: naive_nested_loop(padded, rows)
    )
    if isinstance(expected, list) and "winnow_to_sort" in _rules(query):
        root = query.plan().root
        assert isinstance(root, PreferenceSelect) and root.algorithm == "sort"


def _rules(query):
    try:
        return query.plan().rewrite_rules()
    except TypeError:
        return ()


HOSTILE = [
    {"a": a, "b": b, "g": i % 2, "i": i, "k": 7}
    for i, (a, b) in enumerate([
        (NAN, 1), (2, 0.5), (1.0, float("inf")), (1, 1), (0.5, NAN),
        (float("-inf"), 2), (float("nan"), -1), (2.0, 0), (0, 3),
    ])
]


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
@pytest.mark.parametrize("dual", [False, True])
def test_constant_arm_is_pruned_into_the_argmax(name, dual):
    """winnow_to_sort fires for every weak order and rebuilds the winnow
    as the planner's own argmax, naming the constant it pruned once."""
    pref = CONSTRUCTORS[name][0]()
    if dual:
        pref = DualPreference(pref)
    padded = pareto(pref, HighestPreference("k"))
    query = PreferenceQuery.over(HOSTILE).prefer(padded)
    plan = query.plan()
    assert "winnow_to_sort" in plan.rewrite_rules()
    assert isinstance(plan.root, PreferenceSelect)
    assert plan.root.algorithm == "sort"
    assert plan.explain().count("k = 7") == 1
    assert sorted(r["i"] for r in plan.execute()) == sorted(
        r["i"] for r in naive_nested_loop(padded, HOSTILE)
    )


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
@pytest.mark.parametrize("dual", [False, True])
def test_every_weak_order_plans_the_argmax(name, dual):
    pref = CONSTRUCTORS[name][0]()
    if dual:
        pref = DualPreference(pref)
    assert choose_algorithm(pref) == "sort"


def test_bare_pos_explains_the_argmax():
    rows = [{"color": c} for c in ("red", "blue", "red", "green")]
    text = PreferenceQuery.over(rows).prefer(
        PosPreference("color", {"red"})
    ).explain()
    assert "algorithm=sort" in text
    assert "decision: weak order: one argmax pass" in text
    assert "no columnar dominance form" not in text


def test_planned_argmax_reads_the_cached_columns(monkeypatch):
    """Over a relation whose columns are cached, a node that runs the
    argmax — a plain winnow, the node winnow_to_sort rebuilds — reads
    those columns and never rebuilds them from the rows."""
    rows = [{"a": (i * 7) % 50, "b": i % 3, "i": i} for i in range(200)]
    rel = Relation("r", Schema.infer(rows), rows)
    for attribute in ("a", "b", "i"):
        rel.column_store().column(attribute)

    def rebuild(*args, **kwargs):
        raise AssertionError("columns rebuilt from the rows")

    monkeypatch.setattr(ColumnStore, "__init__", rebuild)
    highest = HighestPreference("a")
    expected = naive_nested_loop(highest, rows)
    assert PreferenceSelect(Scan(rel), highest, "sort").execute().rows() == (
        expected
    )
    # "i" is continuous, so statistics derive key(i) and the key-headed
    # chain collapses to an argmax over its head.
    chain = prioritized(LowestPreference("i"), HighestPreference("a"))
    planned = make_plan(chain, rel)
    assert "winnow_to_sort" in planned.rewrite_rules()
    assert planned.root.algorithm == "sort"
    assert planned.execute().rows() == [rows[0]]
