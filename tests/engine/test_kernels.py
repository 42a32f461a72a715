"""Vectorized skyline kernels: unit cases, block boundaries, brute-force
agreement, and NumPy/pure-Python parity on the same matrices.

Kernel inputs are matrices of *distinct* integer code rows — the contract
:mod:`repro.engine.columnar` upholds (injective axes make distinct
projections distinct vectors).
"""

from functools import partial

import pytest

from tests.conftest import distinct_matrix, two_arm

from repro.engine import backend as engine_backend
from repro.engine.vectorized import KERNELS, skyline_sfs


def brute_force(matrix):
    def dominates(a, b):
        return all(x >= y for x, y in zip(a, b)) and any(
            x > y for x, y in zip(a, b)
        )

    return sorted(
        j
        for j, row in enumerate(matrix)
        if not any(dominates(other, row) for other in matrix)
    )


@pytest.mark.parametrize(
    "kernel",
    [skyline_sfs, pytest.param(partial(skyline_sfs, np=None), id="interpreted")],
)
class TestKernels:
    def test_empty(self, kernel):
        assert kernel([]) == []

    def test_single_row(self, kernel):
        assert kernel([(4, 2)]) == [0]

    def test_total_order_chain(self, kernel):
        assert kernel([(0, 0), (1, 1), (2, 2)]) == [2]

    def test_antichain_all_maximal(self, kernel):
        matrix = [(0, 3), (1, 2), (2, 1), (3, 0)]
        assert kernel(matrix) == [0, 1, 2, 3]

    def test_known_mixed_case(self, kernel):
        matrix = [(5, 1), (4, 4), (1, 5), (3, 3), (0, 0)]
        assert kernel(matrix) == [0, 1, 2]

    @pytest.mark.parametrize("block_size", [1, 2, 3, 7, 1000])
    def test_block_boundaries(self, kernel, block_size):
        matrix = distinct_matrix(60, 3, 8, seed=5, shuffle=True)
        assert kernel(matrix, block_size=block_size) == brute_force(matrix)

    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_agrees_with_brute_force(self, kernel, dims):
        # Value range per axis sized so 120 distinct tuples surely exist.
        top = {1: 500, 2: 25, 3: 10, 4: 7}[dims]
        matrix = distinct_matrix(120, dims, top, seed=17 + dims, shuffle=True)
        assert kernel(matrix) == brute_force(matrix)

    def test_numpy_and_python_agree(self, kernel, monkeypatch):
        matrix = distinct_matrix(150, 3, 9, seed=29, shuffle=True)
        fast = kernel(matrix, block_size=16)
        monkeypatch.setattr(engine_backend, "_numpy", None)
        assert kernel(matrix, block_size=16) == fast

    def test_negative_codes(self, kernel):
        matrix = [(-3, 2), (-1, -5), (0, -9), (-3, 1)]
        assert kernel(matrix) == brute_force(matrix)


def test_registry_names():
    assert set(KERNELS) == {"sfs"}


@pytest.mark.parametrize("use_numpy", [True, False])
def test_two_arm_pass_agrees_with_sfs_on_both_legs(monkeypatch, use_numpy):
    if not use_numpy:
        monkeypatch.setattr(engine_backend, "_numpy", None)
    for seed in range(5):
        matrix = distinct_matrix(200, 2, 30, seed=seed, shuffle=True)
        assert two_arm(matrix) == skyline_sfs(matrix) == brute_force(matrix)


def test_np_argument_names_the_leg_of_the_two_arm_pass():
    """``np=None`` is the interpreted leg whatever is installed."""
    pairs = distinct_matrix(150, 2, 30, seed=3, shuffle=True)
    assert two_arm(pairs, np=None) == two_arm(pairs) == brute_force(pairs)
