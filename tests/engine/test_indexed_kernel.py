"""The code kernel on ``(snapshot, index)`` is the BMO set of the rows there.

A plan's ``ColumnarPreferenceSelect`` over ``HardSelect``s on a ``Scan``
hands the kernel the snapshot and an index of the rows its WHERE keeps;
the kernel gathers the snapshot's cached codes at the index and scores
only the weak-arm values present.  The oracle is ``naive_nested_loop``
on the gathered rows: same rows, same order, on the NumPy leg and on the
interpreted one, with the snapshot's caches warm from other indexes.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from tests.engine.test_weak_order_lowering import rows_st, term_st

from repro.core.base_numerical import AroundPreference, LowestPreference
from repro.core.constructors import pareto
from repro.engine import backend as engine_backend
from repro.engine import columnar
from repro.engine.columnar import columnar_winnow
from repro.psql.ast import Comparison
from repro.psql.translate import translate_where
from repro.query.algorithms import naive_nested_loop
from repro.query.plan import ColumnarPreferenceSelect, HardSelect, Scan
from repro.relations.relation import Relation
from repro.relations.schema import Schema


def _tags(rows):
    return [row["tag"] for row in rows]


@settings(max_examples=150)
@given(
    pref=term_st,
    rows=rows_st,
    subsets=st.lists(st.sets(st.integers(0, 29)), min_size=1, max_size=3),
    numpy_leg=st.booleans(),
)
def test_the_kernel_on_an_index_is_the_bmo_set_of_its_rows(
    pref, rows, subsets, numpy_leg
):
    rows = [dict(row, tag=i) for i, row in enumerate(rows)]
    snapshot = Relation("r", Schema(list(rows[0])), rows)
    np = engine_backend.get_numpy() if numpy_leg else None
    with mock.patch.object(columnar, "NUMPY_MIN_ROWS", 0), \
            mock.patch.object(engine_backend, "_numpy", np):
        for subset in subsets:
            index = sorted(i for i in subset if i < len(rows))
            if np is not None:
                index = np.asarray(index, dtype=np.int64)
            expected = naive_nested_loop(pref, [rows[i] for i in index])
            got = columnar_winnow(pref, snapshot, index=index)
            assert _tags(got) == _tags(expected)


def test_a_plan_runs_the_kernel_on_the_snapshot():
    """The WHERE conjuncts under a code-kernel winnow become an index:
    the kernel reads the snapshot's store, never a filtered copy's."""
    rows = [
        {"x": i % 7, "y": (i * 5) % 11, "g": i % 3, "tag": i}
        for i in range(120)
    ]
    snapshot = Relation.from_dicts("r", rows)
    pref = pareto(AroundPreference("x", 3), LowestPreference("y"))
    node = Scan(snapshot)
    for expr in (Comparison("g", "<>", 1), Comparison("y", ">=", 2)):
        node = HardSelect(node, translate_where(expr), ast=expr)
    plan = ColumnarPreferenceSelect(node, pref)
    expected = naive_nested_loop(
        pref, [r for r in rows if r["g"] != 1 and r["y"] >= 2]
    )
    for _ in range(2):
        assert _tags(plan.execute()) == _tags(expected)
    built = {key[1] for key in snapshot.column_store()._cache}
    assert {"x", "y"} <= built
