"""The serial code kernel on every input the partitioned kernel was held to.

Every code-kernel winnow runs one serial kernel (docs/performance.md,
"Parallel execution" records what was given up).  The inputs that used to
pin partition-and-merge parity now pin the serial kernel against the row
engine: distinct matrices at six seeds, the three skyline distributions,
duplicate- and NaN-heavy rows, grouped winnows with many, one and no
groups.  The answer is the row engine's: same rows, same order, on the
NumPy leg and on the interpreted one.  No winnow touches a worker pool.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import distinct_matrix, two_arm

from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import pareto
from repro.datasets.skyline_data import skyline_relation
from repro.engine import backend as engine_backend
from repro.engine import columnar
from repro.engine.columnar import NotColumnarError, columnar_winnow
from repro.engine.vectorized import KERNELS, skyline_sfs
from repro.query import optimizer
from repro.query.algorithms import block_nested_loop, naive_nested_loop
from repro.query.bmo import winnow_groupby

#: The seeds of the retired suite (its partition counts seeded its inputs).
SEEDS = (1, 2, 3, 4, 8, 16)
LEGS = ("numpy", "python")

PREF3 = pareto(
    HighestPreference("d0"), LowestPreference("d1"), HighestPreference("d2")
)
PREF2 = pareto(HighestPreference("d0"), LowestPreference("d1"))


def _np(leg):
    """The ``np`` argument naming ``leg`` (the interpreted leg when NumPy
    is not importable)."""
    return engine_backend.get_numpy() if leg == "numpy" else None


def _on_leg(monkeypatch, leg):
    """Run the columnar winnow on ``leg`` at every input size."""
    monkeypatch.setattr(columnar, "NUMPY_MIN_ROWS", 0)
    if leg == "python":
        monkeypatch.setattr(engine_backend, "_numpy", None)


def _bnl_indices(matrix):
    rows = [dict(zip("abc", v), i=i) for i, v in enumerate(matrix)]
    top = pareto(*(HighestPreference(a) for a in "abc"[: len(matrix[0])]))
    return [r["i"] for r in block_nested_loop(top, rows)]


class TestKernelMatrices:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("leg", LEGS)
    def test_matches_row_engine(self, seed, leg):
        matrix = distinct_matrix(600, 3, 40, seed=seed)
        assert skyline_sfs(matrix, np=_np(leg)) == _bnl_indices(matrix)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_arm_pass(self, seed):
        matrix = distinct_matrix(500, 2, 60, seed=seed)
        expected = _bnl_indices(matrix)
        for leg in LEGS:
            assert two_arm(matrix, np=_np(leg)) == expected
            assert skyline_sfs(matrix, np=_np(leg)) == expected

    def test_empty_and_tiny_inputs(self):
        for leg in LEGS:
            np = _np(leg)
            for kernel in (skyline_sfs, two_arm):
                assert kernel([], np=np) == []
                assert kernel([(3, 1)], np=np) == [0]
                assert kernel([(1, 2), (2, 1)], np=np) == [0, 1]
        assert columnar_winnow(PREF2, []) == []
        assert columnar_winnow(PREF2, [{"d0": 1, "d1": 1}]) == [
            {"d0": 1, "d1": 1}
        ]

    def test_fewer_rows_than_a_block(self):
        matrix = distinct_matrix(7, 3, 5, seed=2)
        for leg in LEGS:
            for block_size in (1, 16):
                assert skyline_sfs(matrix, block_size, np=_np(leg)) == (
                    _bnl_indices(matrix)
                )

    def test_sfs_is_the_only_strategy(self):
        assert sorted(KERNELS) == ["sfs"]
        for name in ("2d", "parallel", "quantum"):
            with pytest.raises(ValueError, match="unknown columnar strategy"):
                columnar_winnow(PREF2, [{"d0": 1, "d1": 2}], name)

    @pytest.mark.parametrize("seed", (2, 5, 16))
    def test_no_winnow_touches_a_pool(self, monkeypatch, seed):
        """Both legs run on the calling thread: no executor is asked."""
        monkeypatch.setattr(
            ThreadPoolExecutor, "submit", lambda *a, **k: pytest.fail("pool")
        )
        monkeypatch.setattr(columnar, "NUMPY_MIN_ROWS", 0)
        relation = skyline_relation("independent", 300, 3, seed=seed)
        expected = block_nested_loop(PREF3, relation.rows())
        assert columnar_winnow(PREF3, relation).rows() == expected
        monkeypatch.setattr(engine_backend, "_numpy", None)
        assert columnar_winnow(PREF3, relation).rows() == expected

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.sets(
            st.tuples(
                st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)
            ),
            min_size=1,
            max_size=60,
        ),
    )
    def test_hypothesis_parity(self, rows):
        matrix = sorted(rows)
        expected = _bnl_indices(matrix)
        for leg in LEGS:
            assert skyline_sfs(matrix, np=_np(leg)) == expected


class TestColumnarWinnow:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "kind", ["independent", "correlated", "anticorrelated"]
    )
    def test_relation_parity(self, kind, seed):
        relation = skyline_relation(kind, 600, 3, seed=seed)
        expected = block_nested_loop(PREF3, relation.rows())
        assert columnar_winnow(PREF3, relation).rows() == expected

    @pytest.mark.parametrize("seed", (2, 7))
    def test_duplicates_fan_back_out(self, monkeypatch, seed):
        rng = random.Random(seed)
        rows = [
            {"d0": rng.randrange(6), "d1": rng.randrange(6)}
            for _ in range(500)
        ]
        expected = block_nested_loop(PREF2, rows)
        assert len(expected) > len({(r["d0"], r["d1"]) for r in expected})
        for leg in LEGS:
            _on_leg(monkeypatch, leg)
            assert columnar_winnow(PREF2, rows) == expected

    @pytest.mark.parametrize("seed", (2, 5))
    def test_nan_rows_stay_unconditionally_maximal(self, monkeypatch, seed):
        rng = random.Random(seed)
        rows = [
            {"d0": float(rng.randrange(40)), "d1": float(rng.randrange(40))}
            for _ in range(300)
        ]
        rows[17]["d0"] = float("nan")
        rows[230]["d1"] = float("nan")
        expected = block_nested_loop(PREF2, rows)
        assert rows[17] in expected and rows[230] in expected
        for leg in LEGS:
            _on_leg(monkeypatch, leg)
            got = columnar_winnow(PREF2, rows)
            assert [id(r) for r in got] == [id(r) for r in expected]

    def test_weak_arms_lower_and_other_arms_refuse(self):
        """Weak-order arms run on the kernel like chains; arms with no
        code-axis form (EXPLICIT, multi-attribute SCORE) refuse."""
        from repro.core.base_nonnumerical import ExplicitPreference
        from repro.core.base_numerical import ScorePreference

        around = pareto(AroundPreference("d0", 1), AroundPreference("d1", 1))
        rows = [{"d0": i % 5, "d1": (i * 3) % 7} for i in range(40)]
        assert columnar_winnow(around, rows) == naive_nested_loop(around, rows)
        for arm in (
            ExplicitPreference("d1", [(1, 2)]),
            ScorePreference(("d0", "d1"), sum, name="sum"),
        ):
            with pytest.raises(NotColumnarError):
                columnar_winnow(
                    pareto(AroundPreference("d0", 1), arm),
                    [{"d0": 1, "d1": 2}],
                )

    @pytest.mark.parametrize("seed", (2, 8))
    def test_no_numpy_parity(self, monkeypatch, seed):
        relation = skyline_relation("independent", 400, 3, seed=seed)
        with mock.patch.object(columnar, "NUMPY_MIN_ROWS", 0):
            numpy_leg = columnar_winnow(PREF3, relation).rows()
        monkeypatch.setattr(engine_backend, "_numpy", None)
        assert columnar_winnow(PREF3, relation).rows() == numpy_leg
        assert numpy_leg == block_nested_loop(PREF3, relation.rows())


def _kernel_groups(pref, rows):
    """A grouped winnow's per-group engine: the code kernel, on the NumPy
    leg at every group size when NumPy is importable."""
    with mock.patch.object(columnar, "NUMPY_MIN_ROWS", 0):
        return columnar_winnow(pref, rows)


class TestGroupedWinnow:
    """``sigma[P groupby A]`` (Definition 16) with every group on the code
    kernel equals the BNL grouped winnow, row for row."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("leg", LEGS)
    def test_grouped_parity_exact_order(self, monkeypatch, seed, leg):
        rng = random.Random(seed)
        rows = [
            {
                "g": rng.randrange(9),
                "d0": rng.randrange(50),
                "d1": rng.randrange(50),
            }
            for _ in range(700)
        ]
        if leg == "python":
            monkeypatch.setattr(engine_backend, "_numpy", None)
        expected = winnow_groupby(PREF2, ["g"], rows, algorithm="bnl")
        assert winnow_groupby(
            PREF2, ["g"], rows, algorithm=_kernel_groups
        ) == expected
        assert winnow_groupby(PREF2, ["g"], rows, algorithm="vsfs") == expected

    def test_empty_input(self):
        assert winnow_groupby(PREF2, ["g"], [], algorithm=_kernel_groups) == []

    def test_single_group(self):
        rows = [{"g": 1, "d0": i, "d1": -i} for i in range(50)]
        assert winnow_groupby(
            PREF2, ["g"], rows, algorithm=_kernel_groups
        ) == winnow_groupby(PREF2, ["g"], rows)


class TestPlanner:
    def test_explain_never_partitions_on_either_leg(self, monkeypatch):
        """Four chains over 10 000 rows — the cell the retired cost model
        split in two on two cores — plan the serial kernel on both legs."""
        pref = pareto(*(HighestPreference(f"d{i}") for i in range(4)))
        relation = skyline_relation("independent", 10_000, 4, seed=7)
        texts = [optimizer.explain(pref, relation)]
        monkeypatch.setattr(engine_backend, "_numpy", None)
        texts.append(optimizer.explain(pref, relation))
        for text in texts:
            assert "ColumnarPreferenceSelect" in text
            assert "decision: lowers to code axes" in text
            assert "partitions=" not in text and "cost:" not in text


class TestHypothesisQueryParity:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
            min_size=0,
            max_size=80,
        ),
    )
    def test_winnow_and_groupby_parity(self, data):
        rows = [{"d0": a, "d1": b, "d2": c} for a, b, c in data]
        for pref in (PREF2, PREF3):
            expected = naive_nested_loop(pref, rows)
            assert columnar_winnow(pref, rows) == expected
            with mock.patch.object(columnar, "NUMPY_MIN_ROWS", 0):
                assert columnar_winnow(pref, rows) == expected
        assert winnow_groupby(
            PREF2, ["d2"], rows, algorithm=_kernel_groups
        ) == winnow_groupby(PREF2, ["d2"], rows)
