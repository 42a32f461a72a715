"""Shared fixtures and hypothesis strategies.

The randomized strategies build *arbitrary preference terms* over a small
shared universe (attributes ``a``, ``b``, ``c`` with integer values 0..4),
so property tests can assert model-wide invariants: every generated term
must be a strict partial order (Proposition 1), algorithms must agree with
the naive evaluator, rewrites must preserve equivalence, and the
decomposition theorems must match direct evaluation.
"""

from __future__ import annotations

import contextlib
import itertools
import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from repro.core.base_nonnumerical import (
    ExplicitPreference,
    NegPreference,
    PosNegPreference,
    PosPosPreference,
    PosPreference,
)
from repro.core.base_numerical import (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import (
    DualPreference,
    IntersectionPreference,
    ParetoPreference,
    PrioritizedPreference,
)
from repro.core.preference import AntiChain

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
#: The same settings with ten times the examples, for a deeper search
#: than every run can afford: ``pytest --hypothesis-profile=deep``.
settings.register_profile("deep", settings.get_profile("repro"),
                          max_examples=400)
settings.load_profile("repro")

#: The shared probe universe.
ATTRIBUTES = ("a", "b", "c")
VALUES = (0, 1, 2, 3, 4)


def all_rows() -> list[dict]:
    """The full cartesian probe domain over ATTRIBUTES x VALUES (125 rows)."""
    return [
        dict(zip(ATTRIBUTES, combo))
        for combo in itertools.product(VALUES, repeat=len(ATTRIBUTES))
    ]


@pytest.fixture(scope="session")
def probe_rows() -> list[dict]:
    return all_rows()


# -- strategies --------------------------------------------------------------------

attribute_st = st.sampled_from(ATTRIBUTES)
value_st = st.sampled_from(VALUES)
value_set_st = st.sets(value_st, min_size=1, max_size=3)


@st.composite
def pos_st(draw):
    return PosPreference(draw(attribute_st), draw(value_set_st))


@st.composite
def neg_st(draw):
    return NegPreference(draw(attribute_st), draw(value_set_st))


@st.composite
def posneg_st(draw):
    attribute = draw(attribute_st)
    pos = draw(value_set_st)
    neg = draw(st.sets(st.sampled_from(sorted(set(VALUES) - pos)), min_size=1, max_size=2))
    return PosNegPreference(attribute, pos, neg)


@st.composite
def pospos_st(draw):
    attribute = draw(attribute_st)
    pos1 = draw(value_set_st)
    rest = sorted(set(VALUES) - pos1)
    pos2 = draw(st.sets(st.sampled_from(rest), min_size=1, max_size=2))
    return PosPosPreference(attribute, pos1, pos2)


@st.composite
def explicit_st(draw):
    attribute = draw(attribute_st)
    # Edges (worse, better) with worse > better keep the graph acyclic.
    pairs = [(w, b) for w in VALUES for b in VALUES if b < w]
    edges = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True)
    )
    return ExplicitPreference(attribute, edges)


@st.composite
def around_st(draw):
    return AroundPreference(draw(attribute_st), draw(value_st))


@st.composite
def between_st(draw):
    low = draw(value_st)
    up = draw(st.sampled_from([v for v in VALUES if v >= low]))
    return BetweenPreference(draw(attribute_st), low, up)


@st.composite
def chain_st(draw):
    ctor = draw(st.sampled_from((LowestPreference, HighestPreference)))
    return ctor(draw(attribute_st))


@st.composite
def antichain_st(draw):
    return AntiChain(draw(attribute_st))


base_preference_st = st.one_of(
    pos_st(), neg_st(), posneg_st(), pospos_st(), explicit_st(),
    around_st(), between_st(), chain_st(), antichain_st(),
)


def preference_st(max_depth: int = 3):
    """Arbitrary preference terms, compounds included."""

    def extend(children):
        return st.one_of(
            st.builds(lambda p: DualPreference(p), children),
            st.builds(
                lambda p1, p2: ParetoPreference((p1, p2)), children, children
            ),
            st.builds(
                lambda p1, p2: PrioritizedPreference((p1, p2)),
                children,
                children,
            ),
            # Intersection requires identical attribute sets: derive the
            # second operand from the first on the same attribute.
            st.builds(
                lambda p1, p2: IntersectionPreference(
                    (p1, _retarget(p2, p1.attributes[0]))
                )
                if len(p1.attributes) == 1
                else ParetoPreference((p1, p1.dual())),
                base_preference_st,
                base_preference_st,
            ),
        )

    return st.recursive(base_preference_st, extend, max_leaves=max_depth)


def _retarget(pref, attribute: str):
    """Rebuild a single-attribute base preference on another attribute."""
    from repro.engineering.serialization import (
        preference_from_dict,
        preference_to_dict,
    )

    data = preference_to_dict(pref)
    if "attribute" in data:
        data["attribute"] = attribute
    if "attributes" in data:
        data["attributes"] = [attribute]
    return preference_from_dict(data)


rows_st = st.lists(
    st.fixed_dictionaries({a: value_st for a in ATTRIBUTES}),
    min_size=0,
    max_size=25,
)

nonempty_rows_st = st.lists(
    st.fixed_dictionaries({a: value_st for a in ATTRIBUTES}),
    min_size=1,
    max_size=25,
)

#: One random row over the shared universe (the mutation-stream suites'
#: insert payload).
row_st = st.fixed_dictionaries({a: value_st for a in ATTRIBUTES})

#: One mutation-stream step: insert a fresh row, or delete the i-th oldest
#: survivor (the index is taken modulo the live count by the replayer).
step_st = st.one_of(
    st.tuples(st.just("insert"), row_st),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=30)),
)


# -- shared deterministic generators ----------------------------------------------


def canon_rows(rows) -> list[tuple]:
    """Rows as a sorted list of sorted item-tuples — the order-free,
    duplicate-preserving comparison form every suite asserts with."""
    return sorted(tuple(sorted(r.items())) for r in rows)


def grid_rows(n: int, dims: int, seed: int, top: int = 6) -> list[dict]:
    """Integer-grid rows ``{"d0": ..., "d1": ...}`` with plenty of
    duplicate projections (fan-out / SV-tie coverage), pinned by seed."""
    rng = random.Random(seed)
    return [
        {f"d{i}": rng.randrange(top) for i in range(dims)} for _ in range(n)
    ]


def distinct_matrix(
    n: int, d: int, spread: int, seed: int, shuffle: bool = False
) -> list[tuple]:
    """``n`` distinct integer tuples of width ``d``, values in
    ``range(spread)``, pinned by seed — sorted by default, shuffled (for
    arrival-order-sensitive kernels) with ``shuffle=True``.

    ``spread ** d`` must comfortably exceed ``n`` or generation stalls.
    """
    rng = random.Random(seed)
    seen: set[tuple] = set()
    while len(seen) < n:
        seen.add(tuple(rng.randrange(spread) for _ in range(d)))
    if shuffle:
        return sorted(seen, key=lambda _: rng.random())
    return sorted(seen)


def two_arm(matrix, **leg) -> list[int]:
    """:func:`~repro.engine.vectorized.skyline_two_arm` over a two-column
    code matrix: column 0 is the chain, column 1 the other chain's rank
    and identity — the Pareto order of the two columns."""
    from repro.engine.vectorized import skyline_two_arm

    second = [row[1] for row in matrix]
    return skyline_two_arm([row[0] for row in matrix], second, second, **leg)


@contextlib.contextmanager
def normalizer_walks():
    """Yield the list of terms :func:`repro.algebra.rewriter.normalize`
    walks (one entry per walk, not per sub-term) from an empty memo; the
    memo in use before is restored afterwards."""
    from repro.algebra import rewriter

    walks: list = []
    depth = [0]
    real, memo = rewriter._simplify_node, rewriter._memo

    def counting(term, trace):
        if depth[0] == 0:
            walks.append(term)
        depth[0] += 1
        try:
            return real(term, trace)
        finally:
            depth[0] -= 1

    rewriter._simplify_node, rewriter._memo = counting, {}
    try:
        yield walks
    finally:
        rewriter._simplify_node, rewriter._memo = real, memo


# -- terms that lower to integer code axes -----------------------------------------

#: One term per shape the code engine lowers (attributes ``n0``/``n1``
#: numeric with NaNs, ``w`` words, ``p0``/``p1`` NaN-free), shared by the
#: engine parity table and the planner's both-platform checks.
LOWERED_TERMS = {
    "2-chains": ParetoPreference(
        (HighestPreference("n0"), LowestPreference("n1"))
    ),
    "3-chains": ParetoPreference(
        (HighestPreference("n0"), LowestPreference("n1"),
         HighestPreference("p0"))
    ),
    "4-chains": ParetoPreference(
        (HighestPreference("n0"), LowestPreference("n1"),
         HighestPreference("p0"), LowestPreference("p1"))
    ),
    "around-highest": ParetoPreference(
        (AroundPreference("n0", 2), HighestPreference("n1"))
    ),
    "around-highest-pos": ParetoPreference(
        (AroundPreference("n0", 2), HighestPreference("n1"),
         PosPreference("w", {"elm", "oak"}))
    ),
    "dual-arms": ParetoPreference(
        (DualPreference(AroundPreference("n0", 2)),
         DualPreference(LowestPreference("n1")))
    ),
    "composite-arm": ParetoPreference(
        (PrioritizedPreference(
            (LowestPreference("p0"), HighestPreference("p1"))
         ),
         AroundPreference("n0", 3))
    ),
}


def lowered_rows(n: int, seed: int) -> list[dict]:
    """``n`` rows for :data:`LOWERED_TERMS`: a domain small enough that
    duplicate projections, score ties and equidistant AROUND values all
    occur, a fresh NaN on ``n1`` (a chain axis of most terms) in every
    seventh row, and a ``tag`` that tells duplicate-projection rows apart."""
    rng = random.Random(seed)
    return [
        {
            "n0": rng.randrange(6),
            "n1": float("nan") if i % 7 == 3 else rng.randrange(6),
            "w": rng.choice(("ash", "bay", "elm", "fir", "oak")),
            "p0": rng.randrange(3),
            "p1": rng.randrange(3),
            "tag": i,
        }
        for i in range(n)
    ]
