"""The two-arm pass is exact: a Pareto of two arms with a chain among them.

``columnar._skyline_rows`` evaluates every Pareto term of exactly two
arms, at least one a chain, with ``vectorized.skyline_two_arm``: weak
order × chain in either order, and chain × chain.  The property pins it
against the one oracle, ``naive_nested_loop``, on both legs, whole and
on an index, and in row order: AROUND, BETWEEN, POS, single-attribute
SCORE and dual weak arms against LOWEST, HIGHEST and composite chains,
over columns holding NaN objects (shared and fresh on a weak arm, fresh
on a plain or composite chain), infinities, equidistant AROUND values (Example 2),
duplicates, a single value, ints next to 2**52 and 2**53, bools, dates
and strings.  Hand-made kernel cases pin each test and the coarse
round; the spy pins the route: a two-arm term never reaches pivot
elimination, deduplication or the SFS kernel, a three-arm term still
does.
"""

from __future__ import annotations

import datetime
import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.core.base_nonnumerical import PosPreference
from repro.core.base_numerical import (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
    LowestPreference,
    ScorePreference,
)
from repro.core.constructors import DualPreference, pareto, prioritized
from repro.engine import backend as engine_backend
from repro.engine import columnar
from repro.engine.columnar import columnar_winnow
from repro.engine.vectorized import skyline_two_arm
from repro.query.algorithms import naive_nested_loop
from repro.relations.relation import Relation
from repro.relations.schema import Schema

needs_numpy = pytest.mark.skipif(
    engine_backend.get_numpy() is None, reason="NumPy is absent or disabled"
)

#: One NaN object every row that draws it shares: equal to itself on a
#: weak arm's identity, as in the row engine's projection tuples.
SHARED_NAN = float("nan")
INF = float("inf")
DAY = datetime.date(2001, 1, 1)

#: Column kinds: the values a column draws from, and the AROUND / BETWEEN
#: bounds that meet them (None: no interval arm over this kind).
KINDS = {
    "ints": ((-2, 0, 1, 3, 4, 7), (0, 3, 2.5, (-1, 2))),
    "floats": ((-1.5, 0.0, 0.5, 2.25, 3.0), (0.5, 1.0, (-1, 1.5))),
    "equidistant": ((1, 2, 3, 4, 5), (3, (2, 4))),
    "infs": ((-INF, 0, 1, 2, INF), (1, (0, 2))),
    "near_2_53": (
        (2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1, 2**53, 2**53 + 1),
        (2**52, 2**53, (2**52 - 1, 2**52 + 1)),
    ),
    "bools": ((True, False, 0, 1, 2), (1, 0.5, (0, 1))),
    "one": ((4,), (4, 1, (0, 9))),
    "dates": (
        tuple(DAY + datetime.timedelta(days=d) for d in (0, 3, 4, 5, 9)),
        (DAY + datetime.timedelta(days=4),
         (DAY + datetime.timedelta(days=3), DAY + datetime.timedelta(days=5))),
    ),
    "strings": (("ash", "bay", "elm", "fir", "oak"), None),
}
#: Kinds whose values NaN may join (NaN orders against numbers only).
NUMERIC = {"ints", "floats", "equidistant", "infs", "near_2_53", "bools", "one"}

SIZES = (0, 1, 47, 48, 49, 999, 1000, 2000)


def _residue(value) -> int:
    """A SCORE that ties distinct values; values equal under ``==`` (1,
    1.0 and True) score alike, and NaN scores NaN: ranked against
    nothing."""
    if isinstance(value, str):
        return len(value) % 3
    if isinstance(value, datetime.date):
        return value.toordinal() % 3
    return value if value != value else hash(value) % 3


@st.composite
def weak_arm(draw, attribute: str, kind: str):
    bounds = KINDS[kind][1]
    shapes = ["pos", "score"] + (["interval"] if bounds else [])
    shape = draw(st.sampled_from(shapes))
    if shape == "pos":
        pool = KINDS[kind][0]
        arm = PosPreference(attribute, set(pool[: draw(st.integers(1, 2))]))
    elif shape == "score":
        arm = ScorePreference(attribute, _residue)
    else:
        bound = draw(st.sampled_from(bounds))
        if isinstance(bound, tuple):
            arm = BetweenPreference(attribute, *bound)
        else:
            arm = AroundPreference(attribute, bound)
    return DualPreference(arm) if draw(st.integers(0, 4)) == 0 else arm


@st.composite
def chain_arm(draw, attributes: tuple[str, str]):
    """LOWEST, HIGHEST (perhaps dualized) on the first attribute, or a
    composite chain: a prioritization of chains over both."""
    first, second = attributes
    shape = draw(st.sampled_from(("lowest", "highest", "dual", "composite")))
    if shape == "lowest":
        return LowestPreference(first)
    if shape == "highest":
        return HighestPreference(first)
    if shape == "dual":
        return DualPreference(LowestPreference(first))
    return prioritized(HighestPreference(first), LowestPreference(second))


def _column(
    rng: random.Random, kind: str, nan: bool, shared: bool, n: int
) -> list:
    """``n`` values of ``kind``, NaNs among them if ``nan``: fresh ones,
    and with ``shared`` the one shared NaN object too."""
    pool = KINDS[kind][0]
    # Fresh NaNs are distinct values: keep their count bounded, so the
    # oracle's distinct projections stay few at 2 000 rows.
    p = min(0.15, 20 / max(n, 1)) if kind in NUMERIC and nan else 0.0
    out = []
    for _ in range(n):
        if rng.random() < p:
            fresh = not shared or rng.random() < 0.5
            out.append(float("nan") if fresh else SHARED_NAN)
        else:
            out.append(rng.choice(pool))
    return out


@st.composite
def two_arm_winnows(draw):
    """A two-arm Pareto term with a chain among its arms, its rows and a
    sorted index into them."""
    kinds = [draw(st.sampled_from(sorted(KINDS))) for _ in range(3)]
    weak = draw(st.booleans())
    if weak:
        first = draw(weak_arm("a", kinds[0]))
    else:
        first = draw(chain_arm(("a", "c")))
    second = draw(chain_arm(("b", "c")))
    arms = [first, second]
    if draw(st.booleans()):
        arms.reverse()
    n = draw(st.sampled_from(SIZES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    # A chain ranks a NaN against nothing, the row engine takes one NaN
    # object for equal to itself: chains draw fresh NaNs only.  A NaN in
    # a composite chain's stage column sends the term to the row engine.
    nans = [draw(st.booleans()) for name in "abc"]
    shared = (weak, False, False)
    columns = {
        name: _column(rng, kind, nan, share_nan, n)
        for name, kind, nan, share_nan in zip("abc", kinds, nans, shared)
    }
    rows = [
        {"a": columns["a"][i], "b": columns["b"][i], "c": columns["c"][i],
         "tag": i}
        for i in range(n)
    ]
    share = draw(st.sampled_from((0.0, 0.3, 0.7)))
    index = sorted(i for i in range(n) if rng.random() < share)
    return pareto(*arms), rows, index


def _oracle(pref, rows) -> list[int]:
    """Tags of ``naive_nested_loop``'s answer, ascending.

    It runs on one row per distinct projection, keyed as the row engine
    compares projections (``==`` after identity, so fresh NaNs stay
    apart); a row is maximal iff its projection is, and duplicates never
    dominate each other."""
    attributes = sorted(pref.attributes)
    groups: dict[tuple, list[int]] = {}
    for row in rows:
        key = tuple(row[a] for a in attributes)
        groups.setdefault(key, []).append(row["tag"])
    firsts = {tags[0]: tags for tags in groups.values()}
    by_tag = {row["tag"]: row for row in rows}
    kept = naive_nested_loop(pref, [by_tag[t] for t in firsts])
    return sorted(t for row in kept for t in firsts[row["tag"]])


def _tags(rows) -> list[int]:
    return [row["tag"] for row in rows]


@given(case=two_arm_winnows())
def test_the_pass_matches_the_oracle_on_both_legs(case):
    pref, rows, index = case
    expected = _oracle(pref, rows)
    on_index = _oracle(pref, [rows[i] for i in index])
    snapshot = Relation("r", Schema(["a", "b", "c", "tag"]), rows)

    def check(np) -> None:
        # Row order is the input's: the tags come back ascending.
        assert _tags(columnar_winnow(pref, rows)) == expected
        if index:
            at = index if np is None else np.asarray(index)
            got = columnar_winnow(pref, snapshot, index=at)
            assert _tags(got) == on_index

    np = engine_backend.get_numpy()
    check(np)
    if np is not None:
        with mock.patch.object(columnar, "NUMPY_MIN_ROWS", 0):
            check(np)
    with mock.patch.object(engine_backend, "_numpy", None):
        check(None)


NAN = float("nan")
LEGS = [pytest.param(None, id="interpreted"),
        pytest.param("numpy", id="numpy", marks=needs_numpy)]


@pytest.mark.parametrize("leg", LEGS)
class TestKernel:
    """``skyline_two_arm`` on hand-made inputs: ``(chain, rank,
    identity)`` and the positions that survive."""

    CASES = [
        # Test 1: an equal chain code and a better rank beat a row.
        (([1, 1], [2, 1], [0, 1]), [0]),
        # ...and so does a better chain code: the suffix maximum.
        (([3, 2, 1], [0, 5, 1], [0, 1, 2]), [0, 1]),
        # Test 2: the same value and a better chain code beat a row.
        (([2, 1], [0, 0], [7, 7]), [0]),
        # Equal scores of different values are unranked against each
        # other: neither row beats the other.
        (([2, 1], [0, 0], [0, 1]), [0, 1]),
        # Duplicates never beat each other.
        (([1, 1, 0], [4, 4, 4], [3, 3, 3]), [0, 1]),
        # An unranked row at the top code beats nothing and shields
        # nothing: row 0 still beats row 1.
        (([5, 1, 9], [0.0, -3.0, NAN], [0, 1, 2]), [0, 2]),
        # ...and nothing outranks it, though a better chain code of its
        # own value still beats it.
        (([0, 4, 2], [NAN, 1.0, NAN], [6, 5, 6]), [1, 2]),
        # Codes far apart and negative are codes like any other.
        (([-10**9, 10**9, 0], [1, 0, 2], [0, 1, 2]), [1, 2]),
        (([], [], []), []),
    ]

    @pytest.mark.parametrize("vectors, expected", CASES)
    def test_cases(self, leg, vectors, expected):
        np = engine_backend.get_numpy() if leg else None
        assert skyline_two_arm(*vectors, np=np) == expected

    @pytest.mark.parametrize("spread", [20_000, 10**6])
    def test_a_coarse_round_changes_no_answer(self, leg, spread):
        """Chains of many codes run test 1 between blocks of codes first;
        codes spread far wider than the rows are re-ranked."""
        np = engine_backend.get_numpy() if leg else None
        rng = random.Random(3)
        n = 3000
        chain = [rng.randrange(spread) for _ in range(n)]
        rank = [rng.randrange(50) if rng.random() < 0.9 else NAN
                for _ in range(n)]
        identity = [rng.randrange(400) for _ in range(n)]
        rank_of = {}
        for i, v in enumerate(identity):  # equal identities, equal ranks
            rank[i] = rank_of.setdefault(v, rank[i])

        def beaten(y):
            return any(
                (chain[x] >= chain[y] and rank[x] > rank[y])
                or (identity[x] == identity[y] and chain[x] > chain[y])
                for x in range(n)
            )

        expected = [y for y in range(n) if not beaten(y)]
        assert skyline_two_arm(chain, rank, identity, np=np) == expected


def _spies():
    """Mocks wrapping the general path's stages, keyed by name."""
    return {
        name: mock.patch.object(columnar, name, wraps=getattr(columnar, name))
        for name in ("pivot_filter", "_distinct_keys", "skyline_sfs")
    }


def _spy_counts(pref, rows) -> dict[str, int]:
    patches = _spies()
    mocks = {name: patch.start() for name, patch in patches.items()}
    try:
        assert _tags(columnar_winnow(pref, rows)) == _oracle(pref, rows)
    finally:
        for patch in patches.values():
            patch.stop()
    return {name: spy.call_count for name, spy in mocks.items()}


class TestRoute:
    TWO_ARMS = [
        pytest.param(pareto(AroundPreference("a", 3), HighestPreference("b")),
                     id="around-highest"),
        pytest.param(pareto(LowestPreference("b"), PosPreference("a", {1})),
                     id="lowest-pos"),
        pytest.param(pareto(HighestPreference("a"), LowestPreference("b")),
                     id="chain-chain"),
    ]
    THREE_ARMS = pareto(
        AroundPreference("a", 3), HighestPreference("b"), LowestPreference("c")
    )

    @staticmethod
    def _rows(n: int) -> list[dict]:
        rng = random.Random(7)
        return [
            {"a": rng.randrange(9), "b": rng.random(), "c": rng.random(),
             "tag": i}
            for i in range(n)
        ]

    @needs_numpy
    @pytest.mark.parametrize("pref", TWO_ARMS)
    def test_two_arms_skip_elimination_dedup_and_sfs(self, pref):
        rows = self._rows(columnar.PIVOT_MIN_ROWS + 200)
        assert _spy_counts(pref, rows) == {
            "pivot_filter": 0, "_distinct_keys": 0, "skyline_sfs": 0,
        }

    @needs_numpy
    def test_three_arms_still_take_them(self):
        rows = self._rows(columnar.PIVOT_MIN_ROWS + 200)
        counts = _spy_counts(self.THREE_ARMS, rows)
        assert all(counts.values()), counts

    @pytest.mark.parametrize("pref", TWO_ARMS)
    def test_the_interpreted_leg_routes_alike(self, pref):
        rows = self._rows(300)
        with mock.patch.object(engine_backend, "_numpy", None):
            assert _spy_counts(pref, rows)["skyline_sfs"] == 0
            assert _spy_counts(self.THREE_ARMS, rows)["skyline_sfs"] == 1
