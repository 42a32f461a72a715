"""Composite chain arms over NaN-holding columns give Definition 15's answer.

A prioritization of chains is a chain (Proposition 3h), and the code
engine lowers it to one code over its stage-value tuples.  A NaN-like
value in a stage column breaks that: under Definition 9 such a row still
loses on an earlier stage, and is unranked only against the rows it ties
there — neither one code per row nor a Proposition-11 cascade stage says
so.  Over such columns the term goes to the row engine.

The property draws composite arms of two and three stages, as Pareto arms
(of two- and three-arm terms) and as prioritized heads, over stage
columns holding fresh and shared NaN, ±inf and duplicates; the planned
answer, on both engine legs, on memory and SQLite storage, and on the
view path, is ``naive_nested_loop``'s as a bag.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base_numerical import HighestPreference, LowestPreference
from repro.core.constructors import DualPreference, pareto, prioritized
from repro.engine import backend as engine_backend
from repro.engine import columnar
from repro.engine.columnar import columnar_winnow
from repro.query.algorithms import naive_nested_loop
from repro.query.incremental import IncrementalBMO
from repro.query.rewrite import cascade_stages
from repro.relations.relation import Relation
from repro.session import Session

INF = float("inf")
#: One NaN object the rows that draw it share (equal to itself, as the
#: row engine's projection tuples see it).
SHARED_NAN = float("nan")

#: Stage-column values: duplicates, infinities, fresh and shared NaN.
STAGE_VALUES = (0, 1, 1, 2, 3, -INF, INF, "fresh", SHARED_NAN)
#: Plain-chain columns: a plain chain ranks a NaN against nothing, the
#: row engine takes one NaN object for equal to itself, so they draw
#: fresh NaNs only.
PLAIN_VALUES = (0, 1, 2, 2, 3, INF, "fresh")

STAGES = (HighestPreference, LowestPreference,
          lambda a: DualPreference(LowestPreference(a)))


def _value(rng: random.Random, pool: tuple) -> object:
    value = rng.choice(pool)
    return float("nan") if value == "fresh" else value


@st.composite
def composite_terms(draw):
    """A term with a composite chain arm over ``s0..s2``, and its rows."""
    width = draw(st.integers(2, 3))
    stages = [draw(st.sampled_from(STAGES))(f"s{i}") for i in range(width)]
    composite = prioritized(*stages)
    shape = draw(st.sampled_from(
        ("pareto2", "pareto3", "head", "head-pareto")
    ))
    if shape == "pareto2":
        term = pareto(LowestPreference("a"), composite)
    elif shape == "pareto3":
        term = pareto(LowestPreference("a"), composite, HighestPreference("e"))
    elif shape == "head":
        term = prioritized(composite, LowestPreference("a"))
    else:
        term = prioritized(
            composite, pareto(LowestPreference("a"), HighestPreference("e"))
        )
    n = draw(st.sampled_from((1, 12, 30, 60)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [
        {**{f"s{i}": _value(rng, STAGE_VALUES) for i in range(3)},
         "a": _value(rng, PLAIN_VALUES), "e": _value(rng, PLAIN_VALUES),
         "tag": t}
        for t in range(n)
    ]
    return term, rows


def _bag(rows) -> list[int]:
    return sorted(row["tag"] for row in rows)


def _planned(term, rows, storage: str) -> list[int]:
    session = Session({"r": rows}, storage=storage)
    try:
        return _bag(session.query("r").prefer(term).run().rows())
    finally:
        session.close()


def _viewed(term, rows) -> tuple[list[int], list[int]]:
    """The view path: a maintainer seeded with half the rows, the rest
    arriving as one insert batch, then the first third deleted — its
    windows after the insert and after the delete."""
    live = IncrementalBMO(term)
    half, third = len(rows) // 2, len(rows) // 3
    live.load(rows[:half])
    live.apply(inserted=rows[half:])
    inserted = _bag(live.result())
    live.apply(deleted=rows[:third])
    return inserted, _bag(live.result())


def _legs():
    """Run the body on the NumPy leg (every size) and the interpreted one."""
    if engine_backend.get_numpy() is not None:
        with mock.patch.object(columnar, "NUMPY_MIN_ROWS", 0):
            yield "numpy"
    with mock.patch.object(engine_backend, "_numpy", None):
        yield "interpreted"


@settings(deadline=None, max_examples=150)
@given(case=composite_terms())
def test_planned_viewed_and_kernel_answers_are_the_oracles(case):
    term, rows = case
    expected = _bag(naive_nested_loop(term, rows))
    remaining = _bag(naive_nested_loop(term, rows[len(rows) // 3:]))
    for _ in _legs():
        for storage in ("memory", "sqlite"):
            assert _planned(term, rows, storage) == expected
        assert _viewed(term, rows) == (expected, remaining)
        if columnar.columnar_profile(term) == "skyline":
            assert _bag(columnar_winnow(term, rows)) == expected


def _probe_rows(rng: random.Random) -> list[dict]:
    return [
        {"a": rng.randint(0, 3), "b": rng.randint(0, 3),
         "c": float("nan") if rng.random() < 0.2 else rng.randint(0, 3),
         "tag": t}
        for t in range(12)
    ]


def test_the_300_input_probe_reads_no_divergence():
    term = pareto(
        LowestPreference("a"),
        prioritized(HighestPreference("b"), LowestPreference("c")),
    )
    rng = random.Random(0)
    diverging = 0
    for _ in range(300):
        rows = _probe_rows(rng)
        if _bag(columnar_winnow(term, rows)) != _bag(
            naive_nested_loop(term, rows)
        ):
            diverging += 1
    assert diverging == 0


class TestTheDecision:
    TERM = pareto(
        LowestPreference("a"),
        prioritized(HighestPreference("b"), LowestPreference("c")),
    )

    def _explain(self, c_values):
        rows = [{"a": i % 3, "b": i % 2, "c": c, "tag": i}
                for i, c in enumerate(c_values)]
        return Session({"r": rows}).query("r").prefer(self.TERM).explain()

    def test_nan_free_stage_columns_lower_to_code_axes(self):
        text = self._explain([0, 1, 2, 3])
        assert "ColumnarPreferenceSelect" in text
        assert "lowers to code axes" in text

    def test_a_nan_in_a_stage_column_names_it_and_runs_the_row_engine(self):
        text = self._explain([0, float("nan"), 2, 3])
        assert "ColumnarPreferenceSelect" not in text
        assert "composite chain arm's column holds NaN" in text

    @pytest.mark.parametrize("head", [
        LowestPreference("c"),
        prioritized(HighestPreference("b"), LowestPreference("c")),
    ])
    def test_a_nan_in_a_head_column_is_no_cascade_stage(self, head):
        term = prioritized(head, HighestPreference("a"))
        rows = [{"a": i % 3, "b": i % 2,
                 "c": float("nan") if i % 4 == 0 else i % 3, "tag": i}
                for i in range(8)]
        clean = [{**r, "c": i % 3} for i, r in enumerate(rows)]

        def heads(data):
            store = Relation.from_dicts("r", data).column_store()
            stages = cascade_stages(term, store) or ()
            return {a for stage, _ in stages[:-1] for a in stage.attributes}

        assert "c" not in heads(rows)
        assert "c" in heads(clean)
        for data in (rows, clean):
            got = Session({"r": data}).query("r").prefer(term).run().rows()
            assert _bag(got) == _bag(naive_nested_loop(term, data))
