"""Parallel-vs-serial parity: the partitioned code kernel is bit-identical.

The partition-and-merge executor (:mod:`repro.engine.parallel`) must be an
*implementation detail*: for every preference, dataset and partition count
(1-16), results equal the serial kernel exactly — same rows, same order.
Partitions run on the NumPy leg only; the interpreted leg runs the serial
kernel whatever it is asked.  Degenerate paths get their own cases: one
core, one row, empty inputs, more partitions than rows, a saturated pool.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import distinct_matrix

from repro.core.base_numerical import (
    AroundPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import pareto
from repro.datasets.skyline_data import skyline_relation
from repro.engine import backend as engine_backend
from repro.engine import columnar
from repro.engine import parallel as P
from repro.engine.columnar import NotColumnarError, columnar_winnow
from repro.engine.parallel import parallel_skyline, partition_spans
from repro.engine.vectorized import skyline_sfs
from repro.query import optimizer
from repro.query.algorithms import block_nested_loop
from repro.query.bmo import winnow_groupby

PARTITION_COUNTS = (1, 2, 3, 4, 8, 16)

PREF3 = pareto(
    HighestPreference("d0"), LowestPreference("d1"), HighestPreference("d2")
)
PREF2 = pareto(HighestPreference("d0"), LowestPreference("d1"))


class TestPartitionSpans:
    def test_covers_range_without_overlap(self):
        for n in (0, 1, 5, 17, 1000):
            for parts in (1, 2, 3, 7, 50):
                spans = partition_spans(n, parts)
                covered = [i for a, b in spans for i in range(a, b)]
                assert covered == list(range(n))

    def test_no_empty_spans(self):
        assert partition_spans(3, 16) == [(0, 1), (1, 2), (2, 3)]
        assert partition_spans(0, 4) == []

    def test_near_equal_sizes(self):
        spans = partition_spans(10, 3)
        sizes = [b - a for a, b in spans]
        assert max(sizes) - min(sizes) <= 1


class TestParallelSkyline:
    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    @pytest.mark.parametrize("reference", ["sfs", "bnl"])
    def test_matches_serial_kernel(self, partitions, reference):
        """Against the serial code kernel, and against the row engine's
        BNL over the same vectors."""
        matrix = distinct_matrix(600, 3, 40, seed=partitions)
        if reference == "sfs":
            expected = skyline_sfs(matrix)
        else:
            rows = [dict(zip("abc", v), i=i) for i, v in enumerate(matrix)]
            top = pareto(*(HighestPreference(a) for a in "abc"))
            expected = sorted(r["i"] for r in block_nested_loop(top, rows))
        assert parallel_skyline(matrix, partitions) == expected

    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    def test_2d_sweep_strategy(self, partitions):
        matrix = distinct_matrix(500, 2, 60, seed=9)
        assert parallel_skyline(matrix, partitions, "2d") == skyline_sfs(
            matrix
        )

    def test_empty_and_tiny_inputs(self):
        assert parallel_skyline([], 4) == []
        assert parallel_skyline([(3, 1)], 4) == [0]
        assert parallel_skyline([(1, 2), (2, 1)], 16) == [0, 1]

    def test_more_partitions_than_rows(self):
        matrix = distinct_matrix(7, 3, 5, seed=2)
        assert parallel_skyline(matrix, 16) == skyline_sfs(matrix)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown parallel strategy"):
            parallel_skyline([(1, 2)], 2, strategy="quantum")

    @pytest.mark.parametrize("partitions", (2, 5, 16))
    def test_pure_python_threads(self, monkeypatch, partitions):
        """Without NumPy the interpreted kernel runs serially, on the
        calling thread, whatever partition count it is asked for."""
        monkeypatch.setattr(engine_backend, "_numpy", None)
        monkeypatch.setattr(P, "shared_executor", lambda: pytest.fail("pool"))
        matrix = distinct_matrix(300, 3, 20, seed=4)
        assert parallel_skyline(matrix, partitions) == skyline_sfs(matrix)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.sets(
            st.tuples(
                st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)
            ),
            min_size=0,
            max_size=60,
        ),
        partitions=st.integers(1, 16),
    )
    def test_hypothesis_parity(self, rows, partitions):
        matrix = sorted(rows)
        assert parallel_skyline(matrix, partitions) == skyline_sfs(matrix)


class TestParallelColumnarWinnow:
    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    @pytest.mark.parametrize("kind", ["independent", "correlated", "anticorrelated"])
    def test_relation_parity(self, kind, partitions):
        relation = skyline_relation(kind, 1200, 3, seed=11)
        serial = columnar_winnow(PREF3, relation)
        parallel = columnar_winnow(PREF3, relation, partitions=partitions)
        assert parallel.rows() == serial.rows()

    @pytest.mark.parametrize("partitions", (2, 7))
    def test_duplicates_fan_back_out(self, partitions):
        rng = random.Random(3)
        rows = [
            {"d0": rng.randrange(6), "d1": rng.randrange(6)}
            for _ in range(500)
        ]
        serial = columnar_winnow(PREF2, rows)
        assert columnar_winnow(PREF2, rows, partitions=partitions) == serial

    @pytest.mark.parametrize("partitions", (2, 5))
    def test_nan_rows_stay_unconditionally_maximal(self, partitions):
        rng = random.Random(8)
        rows = [
            {"d0": float(rng.randrange(40)), "d1": float(rng.randrange(40))}
            for _ in range(300)
        ]
        rows[17]["d0"] = float("nan")
        rows[230]["d1"] = float("nan")
        serial = columnar_winnow(PREF2, rows)
        assert columnar_winnow(PREF2, rows, partitions=partitions) == serial

    def test_parallel_winnow_rejects_non_columnar_terms(self):
        """Weak-order arms partition like any other code axes; arms with
        no code-axis form (EXPLICIT, multi-attribute SCORE) still refuse."""
        from repro.core.base_nonnumerical import ExplicitPreference
        from repro.core.base_numerical import ScorePreference
        from repro.query.algorithms import naive_nested_loop

        around = pareto(AroundPreference("d0", 1), AroundPreference("d1", 1))
        rows = [{"d0": i % 5, "d1": (i * 3) % 7} for i in range(40)]
        assert columnar_winnow(around, rows, partitions=2) == (
            naive_nested_loop(around, rows)
        )
        for arm in (
            ExplicitPreference("d1", [(1, 2)]),
            ScorePreference(("d0", "d1"), sum, name="sum"),
        ):
            with pytest.raises(NotColumnarError):
                columnar_winnow(
                    pareto(AroundPreference("d0", 1), arm),
                    [{"d0": 1, "d1": 2}],
                    partitions=2,
                )

    @pytest.mark.parametrize("partitions", (2, 8))
    def test_no_numpy_parity(self, monkeypatch, partitions):
        monkeypatch.setattr(engine_backend, "_numpy", None)
        relation = skyline_relation("independent", 400, 3, seed=17)
        serial = columnar_winnow(PREF3, relation)
        parallel = columnar_winnow(PREF3, relation, partitions=partitions)
        assert parallel.rows() == serial.rows()


def _partitioned_groups(partitions):
    """A grouped winnow's per-group engine: the code kernel split into
    ``partitions``, on the NumPy leg at every group size."""

    def evaluate(pref, rows):
        with mock.patch.object(columnar, "NUMPY_MIN_ROWS", 0):
            return columnar_winnow(pref, rows, partitions=partitions)

    return evaluate


class TestParallelGroupby:
    """``sigma[P groupby A]`` (Definition 16) with every group evaluated
    by the partitioned kernel equals the serial grouped winnow."""

    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    def test_grouped_parity_exact_order(self, partitions):
        rng = random.Random(23)
        rows = [
            {
                "g": rng.randrange(9),
                "d0": rng.randrange(50),
                "d1": rng.randrange(50),
            }
            for _ in range(700)
        ]
        serial = winnow_groupby(PREF2, ["g"], rows, algorithm="bnl")
        parallel = winnow_groupby(
            PREF2, ["g"], rows, algorithm=_partitioned_groups(partitions)
        )
        assert parallel == serial  # same rows, same order

    def test_empty_input(self):
        assert winnow_groupby(
            PREF2, ["g"], [], algorithm=_partitioned_groups(4)
        ) == []

    def test_single_group(self):
        rows = [{"g": 1, "d0": i, "d1": -i} for i in range(50)]
        serial = winnow_groupby(PREF2, ["g"], rows)
        assert winnow_groupby(
            PREF2, ["g"], rows, algorithm=_partitioned_groups(8)
        ) == serial


class TestExecutorPlumbing:
    def test_shared_executor_is_shared_and_survives(self):
        first = P.shared_executor()
        assert P.shared_executor() is first

    def test_single_visible_core_still_correct(self, monkeypatch):
        monkeypatch.setattr(P, "cpu_count", lambda: 1)
        monkeypatch.setattr(P, "_executor", None)
        try:
            matrix = distinct_matrix(300, 3, 30, seed=41)
            assert parallel_skyline(matrix, 4) == skyline_sfs(matrix)
        finally:
            P.shared_executor().shutdown(wait=False)

    def test_saturated_pool_cannot_deadlock(self, monkeypatch):
        # Simulate the nested case: the calling task itself occupies every
        # worker of a one-thread shared pool — partition thunks must be
        # stolen back and run inline instead of waiting forever.
        relation = skyline_relation("anticorrelated", 600, 3, seed=43)
        expected = columnar_winnow(PREF3, relation).rows()
        pool = ThreadPoolExecutor(max_workers=1)
        monkeypatch.setattr(P, "shared_executor", lambda: pool)
        try:
            blocked = pool.submit(
                lambda: columnar_winnow(PREF3, relation, partitions=4)
            )
            assert blocked.result(timeout=30).rows() == expected
        finally:
            pool.shutdown(wait=False)


class TestOnlyThePlannerPartitions:
    def test_interpreted_leg_calls_no_pool(self, monkeypatch):
        """Interpreted kernels hold the GIL, so the interpreted leg runs
        the serial kernel however many partitions it is asked for."""
        relation = skyline_relation("independent", 1200, 3, seed=5)
        expected = columnar_winnow(PREF3, relation).rows()
        monkeypatch.setattr(engine_backend, "_numpy", None)
        calls = []
        monkeypatch.setattr(
            P, "shared_executor", lambda: calls.append("pool") or None
        )
        monkeypatch.setattr(
            P, "_map_partitions", lambda *a: calls.append("map") or []
        )
        assert columnar_winnow(PREF3, relation, partitions=4).rows() == expected
        assert calls == []

    def test_explain_never_partitions_without_numpy(self, monkeypatch):
        """Four chains over 10 000 rows: worth two partitions to the cost
        model on two cores with NumPy, and never without it."""
        pref = pareto(*(HighestPreference(f"d{i}") for i in range(4)))
        relation = skyline_relation("independent", 10_000, 4, seed=7)
        monkeypatch.setattr(optimizer, "cpu_count", lambda: 2)
        if engine_backend.numpy_available():
            assert "partitions=2" in optimizer.explain(pref, relation)
        monkeypatch.setattr(engine_backend, "_numpy", None)
        assert "partitions=" not in optimizer.explain(pref, relation)


class TestHypothesisQueryParity:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
            min_size=0,
            max_size=80,
        ),
        partitions=st.integers(1, 16),
    )
    def test_winnow_and_groupby_parity(self, data, partitions):
        rows = [{"d0": a, "d1": b, "d2": c} for a, b, c in data]
        for pref in (PREF2, PREF3):
            serial = columnar_winnow(pref, rows)
            # Every size takes the NumPy leg, so the partitions do run.
            with mock.patch.object(columnar, "NUMPY_MIN_ROWS", 0):
                assert columnar_winnow(
                    pref, rows, partitions=partitions
                ) == serial
        assert winnow_groupby(
            PREF2, ["d2"], rows, algorithm=_partitioned_groups(partitions)
        ) == winnow_groupby(PREF2, ["d2"], rows)
