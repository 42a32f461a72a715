"""Catalog tests."""

import pytest

from repro.relations.catalog import Catalog
from repro.relations.relation import Relation, RelationError


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
