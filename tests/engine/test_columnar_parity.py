"""Row/columnar parity: identical winnow results across backends.

Property-style sweep over the paper's example preferences and the skyline
dataset generators: for every (preference, dataset, row reference)
combination the columnar winnow must return exactly the BMO set of the
row engine's ``sfs`` and ``bnl`` — with NumPy and on the interpreted leg.
"""

import pytest

from tests.conftest import canon_rows as row_set, grid_rows

from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import dual, pareto
from repro.core.preference import ChainPreference
from repro.datasets.skyline_data import DISTRIBUTIONS
from repro.engine import backend as engine_backend
from repro.engine import columnar
from repro.engine.columnar import (
    NotColumnarError,
    columnar_axes,
    columnar_profile,
    columnar_winnow,
)
from repro.query.algorithms import (
    ALGORITHMS,
    block_nested_loop,
    naive_nested_loop,
)
from repro.relations.relation import Relation


@pytest.fixture(autouse=True)
def leg_by_toggle_alone(monkeypatch):
    """Every case here runs on the leg its NumPy toggle names, however few
    rows it has (the size switch has its own cases in
    ``test_weak_order_lowering.py``)."""
    monkeypatch.setattr(columnar, "NUMPY_MIN_ROWS", 0)


PREFERENCES = {
    2: [
        pareto(HighestPreference("d0"), HighestPreference("d1")),
        pareto(HighestPreference("d0"), LowestPreference("d1")),
        pareto(dual(HighestPreference("d0")), LowestPreference("d1")),
        pareto(
            ChainPreference("d0", key=lambda v: -3 * v, key_name="neg3"),
            HighestPreference("d1"),
        ),
    ],
    3: [
        pareto(
            HighestPreference("d0"),
            LowestPreference("d1"),
            HighestPreference("d2"),
        ),
        pareto(
            dual(LowestPreference("d0")),
            LowestPreference("d1"),
            dual(dual(HighestPreference("d2"))),
        ),
    ],
}


class TestSkylineDatasetParity:
    @pytest.mark.parametrize("kind", sorted(DISTRIBUTIONS))
    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("reference", ["sfs", "bnl"])
    def test_matches_row_engine(self, kind, dims, reference):
        rows = DISTRIBUTIONS[kind](300, dims, seed=31)
        for pref in PREFERENCES[dims]:
            expected = row_set(ALGORITHMS[reference](pref, rows))
            got = columnar_winnow(pref, rows)
            assert row_set(got) == expected, (kind, dims, reference, pref)

    @pytest.mark.parametrize("reference", ["sfs", "bnl"])
    def test_matches_without_numpy(self, monkeypatch, reference):
        monkeypatch.setattr(engine_backend, "_numpy", None)
        rows = DISTRIBUTIONS["anticorrelated"](200, 3, seed=7)
        for pref in PREFERENCES[3]:
            expected = row_set(ALGORITHMS[reference](pref, rows))
            assert row_set(columnar_winnow(pref, rows)) == expected


class TestDuplicateFanOut:
    @pytest.mark.parametrize("reference", ["sfs", "bnl"])
    @pytest.mark.parametrize("use_numpy", [True, False])
    def test_every_carrying_tuple_is_kept(
        self, monkeypatch, reference, use_numpy
    ):
        if not use_numpy:
            monkeypatch.setattr(engine_backend, "_numpy", None)
        rows = grid_rows(400, 2, seed=3)
        pref = pareto(HighestPreference("d0"), LowestPreference("d1"))
        expected = row_set(naive_nested_loop(pref, rows))
        assert row_set(ALGORITHMS[reference](pref, rows)) == expected
        assert row_set(columnar_winnow(pref, rows)) == expected

    def test_dedup_key_survives_more_identity_bits_than_int64_holds(self):
        """Eight axes of ~300 distinct values each: the packed identity
        key would need 66 bits, so it is re-densified on the way."""
        import random

        rng = random.Random(11)
        rows = [
            {f"d{i}": rng.randrange(10**6) for i in range(8)}
            for _ in range(300)
        ]
        rows += [dict(row) for row in rows[:40]]  # duplicate projections
        pref = pareto(*(HighestPreference(f"d{i}") for i in range(8)))
        got = columnar_winnow(pref, rows)
        assert row_set(got) == row_set(block_nested_loop(pref, rows))

    def test_extra_attributes_distinguish_tuples(self):
        rows = [
            {"d0": 1, "d1": 1, "tag": "a"},
            {"d0": 1, "d1": 1, "tag": "b"},  # projection-equal: both kept
            {"d0": 0, "d1": 2, "tag": "c"},
        ]
        pref = pareto(HighestPreference("d0"), HighestPreference("d1"))
        got = columnar_winnow(pref, rows)
        assert row_set(got) == row_set(block_nested_loop(pref, rows))
        assert {r["tag"] for r in got} >= {"a", "b"}


class TestPathologicalValues:
    """Exactness and incomparability cases the integer encoding must not
    paper over: lossy float64 promotion, NaN (unranked vs everything,
    hence unconditionally maximal), heterogeneous row lists."""

    @pytest.mark.parametrize("use_numpy", [True, False])
    def test_big_ints_not_collapsed_by_float_promotion(
        self, monkeypatch, use_numpy
    ):
        if not use_numpy:
            monkeypatch.setattr(engine_backend, "_numpy", None)
        rows = [
            {"d0": 2**63, "d1": 1},
            {"d0": 2**63 + 1, "d1": 2},  # same float64 as 2**63
            {"d0": 0, "d1": 3},
        ]
        pref = pareto(HighestPreference("d0"), LowestPreference("d1"))
        got = columnar_winnow(pref, rows)
        assert row_set(got) == row_set(block_nested_loop(pref, rows))
        assert len(got) == 2

    @pytest.mark.parametrize("use_numpy", [True, False])
    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("reference", ["sfs", "bnl"])
    def test_nan_rows_are_maximal_like_the_row_engine(
        self, monkeypatch, use_numpy, dims, reference
    ):
        if not use_numpy:
            monkeypatch.setattr(engine_backend, "_numpy", None)
        nan = float("nan")
        rows = DISTRIBUTIONS["independent"](60, dims, seed=8)
        rows[3]["d0"] = nan
        rows[11]["d1"] = nan
        rows[12] = {f"d{i}": nan for i in range(dims)}
        pref = pareto(
            *(
                HighestPreference(f"d{i}")
                if i % 2 == 0
                else LowestPreference(f"d{i}")
                for i in range(dims)
            )
        )
        expected = ALGORITHMS[reference](pref, rows)
        got = columnar_winnow(pref, rows)
        key = lambda r: tuple(sorted((k, repr(v)) for k, v in r.items()))
        assert sorted(map(key, got)) == sorted(map(key, expected))

    def test_heterogeneous_row_lists(self):
        out = columnar_winnow(
            HighestPreference("d0"), [{"d0": 1, "extra": 2}, {"d0": 3}]
        )
        assert out == [{"d0": 3}]

    def test_rows_returned_by_identity(self):
        rows = [{"d0": 1, "d1": 2}, {"d0": 2, "d1": 1}]
        out = columnar_winnow(
            pareto(HighestPreference("d0"), HighestPreference("d1")), rows
        )
        assert all(any(o is r for r in rows) for o in out)


class TestRelationShapes:
    def test_relation_in_relation_out(self):
        rel = Relation.from_dicts("grid", grid_rows(120, 3, seed=9))
        pref = pareto(
            HighestPreference("d0"),
            LowestPreference("d1"),
            HighestPreference("d2"),
        )
        out = columnar_winnow(pref, rel)
        assert isinstance(out, Relation)
        assert out.name == rel.name and out.schema is rel.schema
        assert row_set(out.rows()) == row_set(
            block_nested_loop(pref, rel.rows())
        )

    def test_rows_in_rows_out(self):
        rows = grid_rows(50, 2, seed=2)
        out = columnar_winnow(
            pareto(HighestPreference("d0"), HighestPreference("d1")), rows
        )
        assert isinstance(out, list) and all(isinstance(r, dict) for r in out)

    def test_empty_input(self):
        pref = pareto(HighestPreference("d0"), HighestPreference("d1"))
        assert columnar_winnow(pref, []) == []


class TestScorePath:
    @pytest.mark.parametrize("use_numpy", [True, False])
    def test_around_matches_sort_based(self, monkeypatch, use_numpy):
        from repro.engine.columnar import sort_based_maxima

        if not use_numpy:
            monkeypatch.setattr(engine_backend, "_numpy", None)
        rows = grid_rows(200, 1, seed=5, top=9)
        pref = AroundPreference("d0", 4)
        assert row_set(columnar_winnow(pref, rows)) == row_set(
            sort_based_maxima(pref, rows)
        )

    def test_profile_classification(self):
        assert (
            columnar_profile(
                pareto(HighestPreference("d0"), LowestPreference("d1"))
            )
            == "skyline"
        )
        assert columnar_profile(AroundPreference("d0", 1)) == "score"
        from repro.core.base_nonnumerical import (
            ExplicitPreference,
            PosPreference,
        )

        # Every weak order over one column is one argmax pass.
        assert columnar_profile(PosPreference("d0", {1})) == "score"
        assert columnar_profile(dual(ChainPreference("d0"))) == "score"
        assert columnar_profile(ExplicitPreference("d0", [(1, 2)])) is None


class TestEligibility:
    @pytest.mark.parametrize("use_numpy", [True, False])
    def test_around_children_are_pair_encoded_axes(
        self, monkeypatch, use_numpy
    ):
        """Example 2 of the paper: P1 = AROUND(A1, 0), P2 = LOWEST(A2),
        P3 = HIGHEST(A3) over R = {(-5,3,4), (-5,4,4), (5,1,8), (5,6,6),
        (-6,0,6), (-6,0,4), (6,2,7)}.  -5 and 5 score alike under P1 yet
        stay unranked, so val1 and val3 are both Pareto-optimal — a skyline
        over the bare score vectors would let (5,1,8) swallow (-5,3,4)."""
        if not use_numpy:
            monkeypatch.setattr(engine_backend, "_numpy", None)
        pref = pareto(
            AroundPreference("a1", 0),
            LowestPreference("a2"),
            HighestPreference("a3"),
        )
        axes = columnar_axes(pref)
        assert [(a.attribute, a.weak) for a in axes] == [
            ("a1", True), ("a2", False), ("a3", False)
        ]
        tuples = [(-5, 3, 4), (-5, 4, 4), (5, 1, 8), (5, 6, 6),
                  (-6, 0, 6), (-6, 0, 4), (6, 2, 7)]
        rows = [dict(zip(("a1", "a2", "a3"), t)) for t in tuples]
        got = columnar_winnow(pref, rows)
        assert row_set(got) == row_set(naive_nested_loop(pref, rows))
        assert {(r["a1"], r["a2"], r["a3"]) for r in got} == {
            (-5, 3, 4), (5, 1, 8), (-6, 0, 6)
        }

    def test_arms_without_a_code_axis_form_are_refused(self):
        from repro.core.base_nonnumerical import ExplicitPreference
        from repro.core.base_numerical import ScorePreference
        from repro.core.constructors import intersection

        refused = [
            ExplicitPreference("d1", [(1, 2)]),
            ScorePreference(("d1", "d2"), sum, name="sum"),
            intersection(HighestPreference("d1"), AroundPreference("d1", 0)),
        ]
        for arm in refused:
            pref = pareto(HighestPreference("d0"), arm)
            assert columnar_axes(pref) is None
            assert columnar_profile(pref) is None
            with pytest.raises(NotColumnarError):
                columnar_winnow(pref, [{"d0": 1, "d1": 1, "d2": 1}])

    def test_ineligible_raises(self):
        from repro.core.base_nonnumerical import ExplicitPreference

        with pytest.raises(NotColumnarError):
            columnar_winnow(ExplicitPreference("d0", [(1, 2)]), [{"d0": 1}])

    def test_unknown_strategy_raises(self):
        pref = pareto(HighestPreference("d0"), HighestPreference("d1"))
        for strategy in ("zap", "bnl"):
            with pytest.raises(ValueError, match="unknown columnar strategy"):
                columnar_winnow(pref, [{"d0": 1, "d1": 1}], strategy=strategy)

    def test_missing_attribute_raises(self):
        pref = pareto(HighestPreference("d0"), HighestPreference("nope"))
        with pytest.raises(KeyError, match="nope"):
            columnar_winnow(pref, [{"d0": 1, "d1": 1}])

    def test_registered_algorithm_names(self):
        assert set(ALGORITHMS) == {"naive", "bnl", "sfs", "sort", "vsfs"}

    def test_algorithm_adapters_reject_ineligible(self):
        from repro.core.base_nonnumerical import ExplicitPreference

        explicit = ExplicitPreference("d0", [(1, 2)])
        for rows in ([{"d0": 1}], []):
            for name in ("vsfs", "sort"):
                with pytest.raises(NotColumnarError):
                    ALGORITHMS[name](explicit, rows)
            with pytest.raises(NotColumnarError):
                ALGORITHMS["sort"](
                    pareto(HighestPreference("d0"), LowestPreference("d1")),
                    rows,
                )


class TestGroupedWinnow:
    def test_vsfs_by_name_matches_bnl(self, monkeypatch):
        """Definition 16 with every group on the code kernels: the rows of
        the BNL grouped winnow in the same order, on both legs, for many
        groups, one group and no rows."""
        import random

        from repro.query.bmo import winnow_groupby

        rng = random.Random(23)
        inputs = [
            [
                {"g": i % 4, "d0": (i * 13) % 17, "d1": (i * 7) % 11}
                for i in range(150)
            ],
            [
                {"g": rng.randrange(9), "d0": rng.randrange(50),
                 "d1": rng.randrange(50)}
                for _ in range(700)
            ],
            [{"g": 1, "d0": i, "d1": -i} for i in range(50)],
            [],
        ]
        pref = pareto(HighestPreference("d0"), LowestPreference("d1"))
        for use_numpy in (True, False):
            if not use_numpy:
                monkeypatch.setattr(engine_backend, "_numpy", None)
            for rows in inputs:
                fast = winnow_groupby(pref, ["g"], rows, algorithm="vsfs")
                slow = winnow_groupby(pref, ["g"], rows, algorithm="bnl")
                assert fast == slow  # same rows, same order
