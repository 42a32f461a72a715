"""The constraint registry: declared constraints, derivation, queries.

Covers :mod:`repro.relations.schema` constraint classes riding on
``Schema``, statistics-driven derivation
(:func:`repro.relations.stats.derive_column_constraints`), and the
:class:`~repro.analysis.constraints.ConstraintSet` queries the semantic
rewrite rules (``winnow_to_sort`` / ``remove_redundant_winnow``) consume.
"""

import pytest

from repro.analysis.constraints import (
    ConstraintSet,
    constraint_registry,
    declared_constraints,
    derived_constraints,
)
from repro.relations.relation import Relation
from repro.relations.schema import (
    Check,
    FunctionalDependency,
    Key,
    NotNull,
    Schema,
    SchemaError,
)


def _relation(rows, name="t"):
    return Relation(name, Schema.infer(rows), rows)


class TestConstraintClasses:
    def test_key_identity_ignores_order_and_source(self):
        assert Key(("a", "b")) == Key(("b", "a"), source="statistics(t)")
        assert hash(Key(("a", "b"))) == hash(Key(("b", "a")))
        assert Key(("a",)) != Key(("b",))

    def test_describe_strings(self):
        assert Key(("id",)).describe() == "key(id)"
        assert NotNull("x").describe() == "not_null(x)"
        assert Check("x", "=", 5).describe() == "check(x = 5)"
        fd = FunctionalDependency(("a",), ("b", "c"))
        assert "a" in fd.describe() and "b" in fd.describe()

    def test_check_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            Check("x", "!=", 5)

    def test_schema_validates_constraint_attributes(self):
        with pytest.raises(SchemaError):
            Schema(["a"], constraints=[Key(("missing",))])

    def test_with_constraints_accumulates(self):
        schema = Schema(["a", "b"]).with_constraints(Key(("a",)))
        schema = schema.with_constraints(NotNull("b"))
        assert Key(("a",)) in schema.constraints
        assert NotNull("b") in schema.constraints

    def test_constraints_excluded_from_schema_equality(self):
        assert Schema(["a"]) == Schema(["a"], constraints=[Key(("a",))])

    def test_project_keeps_only_contained_constraints(self):
        schema = Schema(["a", "b", "c"], constraints=[
            Key(("a", "b")), NotNull("c"),
        ])
        projected = schema.project(["a", "b"])
        assert Key(("a", "b")) in projected.constraints
        assert all(
            not isinstance(c, NotNull) for c in projected.constraints
        )

    def test_rename_remaps_constraints(self):
        schema = Schema(["a"], constraints=[Key(("a",)), Check("a", "=", 1)])
        renamed = schema.rename({"a": "z"})
        assert Key(("z",)) in renamed.constraints
        assert any(
            isinstance(c, Check) and c.attribute == "z"
            for c in renamed.constraints
        )


class TestDerivation:
    def test_distinct_column_derives_key(self):
        rel = _relation([{"id": i, "grp": i % 3} for i in range(30)])
        derived = derived_constraints(rel, ["id", "grp"])
        assert derived.key_within({"id"}) is not None
        assert derived.key_within({"grp"}) is None

    def test_constant_column_derives_equality_check(self):
        rel = _relation([{"k": 7, "v": i} for i in range(5)])
        derived = derived_constraints(rel, ["k"])
        constant = derived.constant("k")
        assert constant is not None and constant.value == 7

    def test_no_nulls_derives_not_null(self):
        rel = _relation([{"a": 1}, {"a": 2}])
        assert derived_constraints(rel, ["a"]).not_null("a")

    def test_nullable_column_derives_nothing_strong(self):
        rel = _relation([{"a": 1}, {"a": None}])
        derived = derived_constraints(rel, ["a"])
        assert not derived.not_null("a")
        assert derived.key_within({"a"}) is None

    def test_orderable_column_derives_bounds(self):
        rel = _relation([{"a": i} for i in (3, 9, 5)])
        bounds = derived_constraints(rel, ["a"]).bounds("a")
        assert bounds is not None
        low, high, source = bounds
        assert (low, high) == (3, 9)
        assert source == "statistics(t)"

    def test_registry_prefers_declared_provenance(self):
        rows = [{"id": i} for i in range(4)]
        rel = _relation(rows).declare(Key(("id",)))
        registry = constraint_registry(rel, ["id"])
        key = registry.key_within({"id"})
        assert key is not None and key.source == "declared"

    def test_declared_constraints_survive_without_stats(self):
        rel = _relation([{"id": 1}]).declare(Key(("id",)))
        assert declared_constraints(rel).keys == (Key(("id",)),)


class TestConstraintSetQueries:
    def test_key_within_requires_full_containment(self):
        cs = ConstraintSet([Key(("a", "b"))])
        assert cs.key_within({"a", "b", "c"}) is not None
        assert cs.key_within({"a"}) is None

    def test_bounds_tightest_pair_wins(self):
        cs = ConstraintSet([
            Check("a", ">=", 0), Check("a", "<=", 10),
            Check("a", ">=", 2, source="declared"),
        ])
        low, high, _ = cs.bounds("a")
        assert (low, high) == (2, 10)

    def test_equality_check_fixes_both_bounds(self):
        cs = ConstraintSet([Check("a", "=", 4)])
        assert cs.bounds("a")[:2] == (4, 4)

    def test_union_and_dedup(self):
        cs = ConstraintSet([Key(("a",)), Key(("a",), source="declared")])
        assert len(cs) == 1
        merged = cs.union([NotNull("a")])
        assert len(merged) == 2

    def test_empty_set_is_falsy(self):
        assert not ConstraintSet()
        assert ConstraintSet([NotNull("a")])


class TestRegistryMemo:
    """``constraint_registry`` derives once per snapshot and attribute
    tuple; a mutation makes a new snapshot, which derives afresh."""

    def _spy(self):
        from unittest import mock

        from repro.analysis import constraints

        calls = []
        real = constraints.derive_column_constraints

        def spy(stats, source):
            calls.append(stats.attribute)
            return real(stats, source)

        return calls, mock.patch.object(
            constraints, "derive_column_constraints", spy
        )

    def test_one_derivation_per_snapshot_and_attributes(self):
        rel = _relation([{"a": i, "b": i % 2} for i in range(6)])
        calls, spy = self._spy()
        with spy:
            first = constraint_registry(rel, ["a", "b"])
            assert constraint_registry(rel, ["a", "b"]) is first
            assert calls == ["a", "b"]
            constraint_registry(rel, ["a"])  # another tuple: derived once
            constraint_registry(rel, ["a"])
            assert calls == ["a", "b", "a"]
            everything = constraint_registry(rel)
            assert constraint_registry(rel) is everything
            assert calls == ["a", "b", "a", "a", "b"]

    def test_a_declaration_is_a_new_snapshot(self):
        rel = _relation([{"id": i} for i in range(4)])
        assert constraint_registry(rel, ["id"]).key_within({"id"}).source \
            == "statistics(t)"
        declared = rel.declare(Key(("id",)))
        assert constraint_registry(declared, ["id"]).key_within(
            {"id"}).source == "declared"

    def test_mutations_derive_fresh_bounds_and_keep_provenance(self):
        from repro.core.base_numerical import HighestPreference
        from repro.session import Session

        rows = [{"rating": float(i), "v": i % 3} for i in range(8)]
        session = Session({"t": rows})

        def state():
            registry = constraint_registry(session.catalog.get("t"),
                                           ["rating"])
            text = session.query("t").prefer(
                HighestPreference("rating")).explain()
            return registry.bounds("rating"), text

        bounds, text = state()
        assert bounds == (0.0, 7.0, "statistics(t)")
        assert "key(rating) [statistics(t)]" in text
        assert state()[1] == text  # the memo answers the same

        session.insert_rows("t", [{"rating": 9.0, "v": 0},
                                  {"rating": 9.0, "v": 1}])
        bounds, after_insert = state()
        assert bounds == (0.0, 9.0, "statistics(t)")
        assert "key(rating)" not in after_insert  # 9.0 twice: no key

        session.delete_rows("t", [{"rating": 9.0, "v": 1}])
        bounds, after_delete = state()
        assert bounds == (0.0, 9.0, "statistics(t)")
        assert "key(rating) [statistics(t)]" in after_delete
