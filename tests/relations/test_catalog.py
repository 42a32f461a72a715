"""Catalog tests."""

import gc
import math
import tempfile
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.backend import get_numpy
from repro.engine.columnar import NUMPY_MIN_ROWS
from repro.psql.ast import Comparison
from repro.psql.translate import translate_where
from repro.relations.catalog import Catalog
from repro.relations.relation import Relation, RelationError
from repro.relations.schema import Schema
from repro.server import PreferenceService
from repro.session import Session
from repro.storage.binding import WAL_FILE


def rel(name: str) -> Relation:
    return Relation.from_dicts(name, [{"x": 1}])


class TestCatalog:
    def test_register_and_get_case_insensitive(self):
        cat = Catalog()
        cat.register(rel("Car"))
        assert cat.get("CAR").name == "Car"
        assert "car" in cat and "CAR" in cat

    def test_double_register_rejected(self):
        cat = Catalog()
        cat.register(rel("car"))
        with pytest.raises(RelationError):
            cat.register(rel("car"))
        cat.register(rel("car"), replace=True)  # explicit replace is fine

    def test_unknown_relation(self):
        with pytest.raises(RelationError):
            Catalog().get("ghost")

    def test_drop(self):
        cat = Catalog()
        cat.register(rel("car"))
        cat.drop("car")
        assert len(cat) == 0
        with pytest.raises(RelationError):
            cat.drop("car")

    def test_init_mapping_renames(self):
        cat = Catalog({"trips": rel("whatever")})
        assert cat.get("trips").name == "trips"

    def test_names_sorted(self):
        cat = Catalog({"b": rel("b"), "a": rel("a")})
        assert cat.names() == ["a", "b"]


class _Recorder:
    def __init__(self):
        self.events = []

    def on_catalog_event(self, event):
        self.events.append(event)


class TestRowMutations:
    """``insert_rows`` / ``delete_rows`` derive the next snapshot from the
    old one: untouched stored rows are shared, never re-copied, and no
    stored dict is ever handed out."""

    def _catalog(self):
        cat = Catalog()
        cat.register(Relation.from_dicts("t", [{"x": i} for i in range(4)]))
        recorder = _Recorder()
        cat.attach(recorder)
        return cat, recorder

    def test_insert_shares_the_stored_rows_and_copies_the_new_ones(self):
        cat, recorder = self._catalog()
        old = cat.get("t")
        incoming = [{"x": 9}]
        new = cat.insert_rows("t", incoming)
        assert all(a is b for a, b in zip(old._rows, new._rows))
        assert new._rows[-1] == {"x": 9} and new._rows[-1] is not incoming[0]
        incoming[0]["x"] = -1                     # the caller's dict is its own
        assert new.rows()[-1] == {"x": 9} and len(old) == 4
        (event,) = recorder.events
        assert (event.op, event.version, event.relation) == ("insert", 2, new)
        assert event.rows == ({"x": 9},)
        assert event.rows[0] is not new._rows[-1]  # stored dicts stay inside

    def test_a_bad_batch_leaves_the_catalog_untouched(self):
        cat, recorder = self._catalog()
        old = cat.get("t")
        with pytest.raises(ValueError):
            cat.insert_rows("t", [{"x": 5}, {"y": 1}])
        assert cat.get("t") is old and cat.version("t") == 1
        assert recorder.events == []

    def test_delete_shares_the_kept_rows_and_hands_out_copies(self):
        cat, recorder = self._catalog()
        old = cat.get("t")
        new, deleted = cat.delete_rows("t", rows=[{"x": 1}, {"x": 7}])
        assert deleted == [{"x": 1}] and deleted[0] is not old._rows[1]
        assert [r["x"] for r in new._rows] == [0, 2, 3]
        assert all(any(r is o for o in old._rows) for r in new._rows)
        new2, deleted2 = cat.delete_rows("t", predicate=lambda r: r["x"] > 2)
        assert deleted2 == [{"x": 3}] and len(new2) == 2 and len(old) == 4
        assert [(e.op, e.version, e.rows) for e in recorder.events] == [
            ("delete", 2, ({"x": 1},)), ("delete", 3, ({"x": 3},)),
        ]
        assert recorder.events[-1].relation is new2


# -- deletes by index, and the arrays a snapshot inherits --------------------

BIG = 2**53
INTS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([BIG - 1, BIG + 1, -BIG - 1, 2**63 - 1]),
)
FLOATS = st.one_of(
    st.sampled_from([0.5, -1.5, 2.0, float(BIG), math.inf]),
    st.builds(float, st.just("nan")),
)
WORDS = st.sampled_from(["", "a", "a\x00", "ab", "b"])
#: Column families; each may also hold None.
FAMILIES = {
    "int": INTS,
    "small": st.integers(-3, 3),
    "float": FLOATS,
    "mixed": st.one_of(st.integers(-3, 3), FLOATS),
    "bool": st.booleans(),
    "huge": st.one_of(st.booleans(), st.sampled_from([2**63, 2**64 - 1])),
    "boolint": st.one_of(st.booleans(), st.integers(-1, 3)),
    "word": WORDS,
    "wordnul": st.one_of(WORDS, st.just("b\x00")),
}
ATTRIBUTES = ("k", "a", "b")
OPS = ("=", "<>", "<", "<=", ">", ">=")
#: Sizes on both sides of the leg switch.
SIZES = (0, 1, 7, NUMPY_MIN_ROWS - 1, NUMPY_MIN_ROWS, 70)


@st.composite
def tables(draw, sizes=st.sampled_from(SIZES)):
    """Rows of ``k`` (small ints: duplicates, so bags matter) and two
    hostile columns, each drawn from one family, sometimes with None."""
    n = draw(sizes)
    columns = {"k": draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))}
    for attribute in ATTRIBUTES[1:]:
        cell = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
        if draw(st.integers(0, 3)) == 0:
            cell = st.one_of(cell, st.none())
        columns[attribute] = draw(st.lists(cell, min_size=n, max_size=n))
    return [{a: columns[a][i] for a in ATTRIBUTES} for i in range(n)]


@st.composite
def wheres(draw, rows):
    """One or two ``attribute op literal`` conjuncts, the literal often a
    value the column holds."""
    out = []
    for _ in range(draw(st.integers(1, 2))):
        attribute = draw(st.sampled_from(ATTRIBUTES))
        held = [row[attribute] for row in rows]
        literal = draw(st.one_of(
            *([st.sampled_from(held)] if held else []),
            INTS, FLOATS, st.booleans(), WORDS,
        ))
        out.append(Comparison(attribute, draw(st.sampled_from(OPS)), literal))
    return out


def _positions(relation, stored):
    """Where each of ``relation``'s stored dicts sat in ``stored``."""
    at = {id(row): i for i, row in enumerate(stored)}
    return [at[id(row)] for row in relation._rows]


def _bag_reference(rows, targets):
    """Positions a bag delete takes: each target in turn takes the first
    equal row not taken yet."""
    taken = []
    for target in targets:
        for i, row in enumerate(rows):
            if i not in taken and row == target:
                taken.append(i)
                break
    return sorted(taken)


class _Twins:
    """Two sessions over the same rows, on memory or on SQLite with a
    write-ahead log each; one deletes by index, the other by closure."""

    def __init__(self, rows, backend, directory):
        def session(side):
            relation = Relation("r", Schema(list(ATTRIBUTES)), rows)
            if backend == "memory":
                return Session({"r": relation})
            return Session({"r": relation}, storage="sqlite",
                           data_dir=f"{directory}/{side}")

        self.index, self.closure = session("index"), session("closure")

    def wal(self, session):
        return (session.storage.directory / WAL_FILE).read_bytes()

    def close(self):
        for session in (self.index, self.closure):
            session.close()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), backend=st.sampled_from(["memory", "sqlite"]))
def test_delete_by_index_is_delete_by_closure(data, backend):
    """``predicate=`` as ``(predicate, ast)`` conjuncts deletes what the
    conjunction closure deletes: the same rows, the same kept order, the
    same version and the same event rows (so the same WAL bytes) — twice,
    with an insert and a bag delete in between."""
    rows = data.draw(tables())
    with tempfile.TemporaryDirectory() as directory:
        twins = _Twins(rows, backend, directory)
        try:
            for step in range(2):
                stored = twins.index.catalog.get("r")._rows
                asts = data.draw(wheres(stored))
                closures = [translate_where(ast) for ast in asts]
                expected = [
                    i for i, row in enumerate(stored)
                    if all(c(row) for c in closures)
                ]
                by_index = twins.index.delete_rows(
                    "r", predicate=list(zip(closures, asts)))
                by_closure = twins.closure.delete_rows(
                    "r", predicate=lambda row: all(c(row) for c in closures))
                kept = [i for i in range(len(stored)) if i not in expected]
                assert _positions(by_index.snapshot, stored) == kept
                assert by_index.deleted == by_closure.deleted
                assert by_index.deleted == tuple(stored[i] for i in expected)
                assert by_index.version == by_closure.version
                if step == 0 and stored:
                    extra = [dict(data.draw(st.sampled_from(stored)))]
                    twins.index.insert_rows("r", extra)
                    twins.closure.insert_rows("r", extra)
                    stored = twins.index.catalog.get("r")._rows
                    targets = [
                        dict(row) for row in data.draw(st.lists(
                            st.sampled_from(stored), max_size=3))
                    ]
                    expected = _bag_reference(stored, targets)
                    event = twins.index.delete_rows("r", rows=targets)
                    twins.closure.delete_rows("r", rows=targets)
                    assert event.deleted == tuple(stored[i] for i in expected)
                    kept = [i for i in range(len(stored)) if i not in expected]
                    assert _positions(event.snapshot, stored) == kept
            if backend == "sqlite":
                assert twins.wal(twins.index) == twins.wal(twins.closure)
        finally:
            twins.close()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bag_delete_takes_the_first_equal_rows(data):
    """``rows=`` removes, for each target, the first equal row still
    there, and keeps the others in relation order."""
    rows = data.draw(tables())
    cat = Catalog({"r": Relation("r", Schema(list(ATTRIBUTES)), rows)})
    stored = cat.get("r")._rows
    pool = stored + [{"k": 99, "a": 0, "b": 0}]
    targets = [dict(t) for t in data.draw(st.lists(st.sampled_from(pool),
                                                   max_size=4))]
    expected = _bag_reference(stored, targets)
    new, deleted = cat.delete_rows("r", rows=targets)
    assert deleted == [stored[i] for i in expected]
    assert _positions(new, stored) == [
        i for i in range(len(stored)) if i not in expected]


@pytest.mark.skipif(get_numpy() is None, reason="arrays need NumPy")
def test_a_superseded_snapshot_is_collected():
    """Nothing keeps a superseded snapshot alive — not its successors,
    not a view maintained over the relation — so the old snapshot and its
    warm arrays go once nothing else references them."""
    service = PreferenceService(
        {"t": [{"oid": i, "v": i % 7} for i in range(200)]})
    try:
        service.materialize("t", {"type": "lowest", "attribute": "v"})
        old = service.session.catalog.get("t")
        gone = [weakref.ref(old),
                weakref.ref(old.column_store().array("oid", get_numpy()))]
        del old
        service.insert("t", [{"oid": 500, "v": 0}])
        service.delete("t", where=[["oid", "=", 0]])
        service.delete("t", rows=[{"oid": 500, "v": 0}])
        gc.collect()
        assert [ref() for ref in gone] == [None, None]
    finally:
        service.close()
