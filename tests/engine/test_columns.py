"""Columnar materialization: ColumnStore, rank encoding, relation caching."""

import pytest

from repro.core.base_numerical import HighestPreference, LowestPreference
from repro.core.constructors import pareto
from repro.engine import backend as engine_backend
from repro.engine.columnar import columnar_winnow
from repro.engine.columns import (
    ColumnStore,
    encode_axis,
    exact_array,
    rank_code_vector,
    rank_codes,
)
from repro.query.algorithms import naive_nested_loop
from repro.relations.relation import Relation
from repro.session import Session

needs_numpy = pytest.mark.skipif(
    engine_backend._numpy is None, reason="NumPy is not installed"
)

ROWS = [
    {"a": 3, "b": "x"},
    {"a": 1, "b": "y"},
    {"a": 3, "b": "x"},
    {"a": 2, "b": "z"},
]


class _Text(str):
    """A ``str`` subclass: NumPy stores it as text, the rule rejects it."""


def _built(store):
    """The attributes whose values a store has built so far."""
    return {key[1] for key in store._cache if key[0] == "values"}


class TestColumnStore:
    def test_columns_in_row_order(self):
        store = ColumnStore(ROWS)
        assert store.column("a") == (3, 1, 3, 2)
        assert store.column("b") == ("x", "y", "x", "z")
        assert len(store) == 4

    def test_relation_store_shares_cached_columns(self):
        rel = Relation.from_dicts("r", ROWS)
        store = rel.column_store()
        assert store is rel.column_store()
        assert store.column("a") == tuple(rel.column("a"))
        assert store.column("a") is store.column("a")
        assert store.length == len(rel)

    def test_unknown_column_raises(self):
        store = ColumnStore(ROWS)
        with pytest.raises(KeyError, match="no column 'c'"):
            store.column("c")

    def test_builds_only_the_columns_read(self):
        # Sparse rows: a column nobody reads may be missing from some.
        store = ColumnStore([{"a": 1, "b": 2}, {"a": 2}])
        assert store.column("a") == (1, 2)
        assert _built(store) == {"a"}
        with pytest.raises(KeyError):
            store.column("b")
        assert store.array("b", engine_backend.get_numpy()) is None


class TestRelationColumns:
    def test_columns_match_rows(self):
        store = Relation.from_dicts("r", ROWS).column_store()
        assert {a: store.column(a) for a in ("a", "b")} == {
            "a": (3, 1, 3, 2), "b": ("x", "y", "x", "z"),
        }

    def test_cached_once(self):
        rel = Relation.from_dicts("r", ROWS)
        first = rel.column_store()
        assert rel._store_cache is first
        codes = first.chain_codes("a", None)
        assert rel.column_store().chain_codes("a", None) is codes

    def test_derived_relations_start_empty(self):
        rel = Relation.from_dicts("r", ROWS)
        rel.column_store().column("a")
        derived = rel.select(lambda r: r["a"] > 1)
        assert derived.column_store() is not rel.column_store()
        assert _built(derived.column_store()) == set()

    def test_a_planned_query_builds_only_its_columns(self):
        # One read of a fresh twelve-column snapshot: the preference's
        # two columns (which the planner also profiles) and, on the NumPy
        # leg, the WHERE column its mask reads — never the other nine.
        rows = [
            {f"c{j}": (i * (j + 3)) % 17 for j in range(12)}
            for i in range(200)
        ]
        session = Session({"t": rows})
        pref = pareto(HighestPreference("c1"), LowestPreference("c2"))
        session.query("t").where(c0__ge=3).prefer(pref).run()
        built = _built(session.column_store("t"))
        assert {"c1", "c2"} <= built <= {"c0", "c1", "c2"}


class TestExactness:
    """One rule decides which columns NumPy represents exactly."""

    @needs_numpy
    @pytest.mark.parametrize("values", [
        ["a", "a\x00"],
        ["a", 1],
        [2**53 + 1, 0.5],
        [1, None],
    ])
    def test_inexact_columns_have_no_array(self, values):
        assert exact_array(values, engine_backend._numpy) is None

    @needs_numpy
    @pytest.mark.parametrize("values", [
        ["a", "b\x00c"],
        [2**53 + 1, 3],
        [True, 2],
        [0.1, float("nan"), float("inf")],
        [2**60 + 0.5, 1.0],
    ])
    def test_exact_columns_keep_their_values(self, values):
        arr = exact_array(values, engine_backend._numpy)
        assert arr is not None
        assert all(
            v == w or v != v for v, w in zip(arr.tolist(), values)
        )

    @needs_numpy
    @pytest.mark.parametrize("values, exact", [
        (["ab", "cd"], True),
        (["", "cd"], True),
        (["a\x00b", "cd"], True),
        (["\x00a", "\x00"], False),
        (["ab", "cd\x00"], False),
        (["a\x00b", "c\x00"], False),
        ([b"ab", b"c\x00d"], True),
        ([b"ab", b"cd\x00"], False),
        (["ab", b"cd"], False),
        ([b"ab", "cd"], False),
        (["ab", 1], False),
        ([_Text("ab"), "cd"], False),
        ([b"ab", bytearray(b"cd")], False),
    ])
    def test_string_columns(self, values, exact):
        """All ``str`` (or all ``bytes``, exact types) and no trailing
        NUL: an inner NUL passes the one-scan check's second look."""
        assert (exact_array(values, engine_backend._numpy) is not None) is exact

    def test_trailing_nuls_keep_distinct_codes(self):
        codes, _ = encode_axis(["a", "a\x00", "a"])
        assert list(codes) == [0, 1, 0]

    def test_pareto_over_words_with_trailing_nuls(self):
        """NumPy's string dtypes strip trailing NULs: 'a' and 'a\\x00'
        must not share a code, or the kernel drops half the answer."""
        rows = [{"s": "a", "x": 1}, {"s": "a\x00", "x": 0}] * 30
        pref = pareto(HighestPreference("s"), HighestPreference("x"))
        expected = naive_nested_loop(pref, rows)
        assert len(expected) == 60
        assert columnar_winnow(pref, rows) == expected


class TestRankCodes:
    def test_order_preserving_and_dense(self):
        assert rank_codes([3.5, 1.0, 3.5, 2.0]) == [2, 0, 2, 1]

    def test_strings(self):
        assert rank_codes(["b", "a", "c", "a"]) == [1, 0, 2, 0]

    def test_empty(self):
        assert rank_codes([]) == []

    def test_python_and_numpy_paths_agree(self, monkeypatch):
        values = [0.25, -1.5, 0.25, 7.0, 3.25, -1.5]
        with_numpy = rank_codes(values)
        monkeypatch.setattr(engine_backend, "_numpy", None)
        assert rank_codes(values) == with_numpy

    def test_object_values_fall_back(self):
        class Odd:
            def __init__(self, v):
                self.v = v

            def __lt__(self, other):
                return self.v < other.v

        codes = rank_codes([Odd(2), Odd(1), Odd(2)])
        assert codes == [1, 0, 1]

    def test_vector_form_matches_list_form(self):
        values = [5, 1, 5, 3]
        vector = rank_code_vector(values)
        listed = list(vector) if not isinstance(vector, list) else vector
        assert [int(c) for c in listed] == rank_codes(values)
