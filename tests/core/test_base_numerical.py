"""Tests for AROUND, BETWEEN, LOWEST, HIGHEST, SCORE (Definition 7)."""

import datetime

import pytest

from repro.core.base_numerical import (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
    LowestPreference,
    ScorePreference,
    distance_to_interval,
    distance_to_point,
)
from repro.core.constructors import DualPreference
from repro.core.validate import check_strict_partial_order
from repro.query.algorithms import weak_score

NUMS = [-6, -5, 0, 1, 5, 6, 10]


class TestAround:
    def test_definition_7a(self):
        p = AroundPreference("x", 0)
        assert p.lt(10, 1)       # 1 is closer to 0
        assert not p.lt(1, 10)

    def test_equidistant_values_unranked(self):
        p = AroundPreference("x", 0)
        assert p.unranked(-5, 5)

    def test_target_is_best(self):
        p = AroundPreference("x", 7)
        assert all(p.lt(v, 7) for v in NUMS if v != 7)

    def test_distance(self):
        assert AroundPreference("x", 3).distance(8) == 5

    def test_dates(self):
        p = AroundPreference("d", datetime.date(2001, 11, 23))
        assert p.lt(datetime.date(2001, 11, 1), datetime.date(2001, 11, 22))

    def test_is_spo(self):
        check_strict_partial_order(AroundPreference("x", 0), NUMS)


class TestBetween:
    def test_definition_7b(self):
        p = BetweenPreference("x", 2, 5)
        assert p.distance(3) == 0
        assert p.distance(0) == 2
        assert p.distance(9) == 4
        assert p.lt(9, 0)  # distance 4 vs 2

    def test_inside_values_unranked(self):
        p = BetweenPreference("x", 2, 5)
        assert p.unranked(2, 5) and p.unranked(3, 4)

    def test_equidistant_outsiders_unranked(self):
        p = BetweenPreference("x", 2, 5)
        assert p.unranked(0, 7)  # both distance 2

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            BetweenPreference("x", 5, 2)

    def test_is_spo(self):
        check_strict_partial_order(BetweenPreference("x", 0, 5), NUMS)


class TestChains:
    def test_lowest(self):
        p = LowestPreference("x")
        assert p.lt(5, 3)
        assert p.is_chain() is True

    def test_highest(self):
        p = HighestPreference("x")
        assert p.lt(3, 5)
        assert p.is_chain() is True

    def test_both_are_spo(self):
        check_strict_partial_order(LowestPreference("x"), NUMS)
        check_strict_partial_order(HighestPreference("x"), NUMS)


class TestScore:
    def test_definition_7d(self):
        p = ScorePreference("x", lambda v: -abs(v), name="negabs")
        assert p.lt(5, 1)
        assert p.unranked(-5, 5)  # equal scores: not a chain

    def test_multi_attribute_score(self):
        p = ScorePreference(("x", "y"), lambda t: t[0] + t[1], name="sum")
        assert p.lt({"x": 1, "y": 1}, {"x": 2, "y": 3})
        assert p.score({"x": 2, "y": 3}) == 5

    def test_score_accepts_scalar(self):
        p = ScorePreference("x", lambda v: v * 2, name="double")
        assert p.score(4) == 8

    def test_is_spo(self):
        check_strict_partial_order(
            ScorePreference("x", lambda v: v % 3, name="mod3"), NUMS
        )


class TestDistanceHelpers:
    def test_point(self):
        assert distance_to_point(7, 3) == 4

    def test_interval_zero_is_type_correct(self):
        d1, d2 = datetime.date(2001, 1, 1), datetime.date(2001, 1, 10)
        zero = distance_to_interval(d1, d1, d2)
        assert zero == datetime.timedelta(0)


class TestWeakScore:
    """``weak_score``: how a weak order ranks one column's values."""

    def test_score_preference(self):
        axis = weak_score(AroundPreference("x", 3))
        assert (axis.attribute, axis.sign, axis.weak) == ("x", 1, True)
        assert axis.key(9) == -6
        assert weak_score(HighestPreference("x")) == (
            "x", None, 1, False, None,
        )
        assert axis.interval == (3, 3)

    def test_dual_flips_sign(self):
        # The direction is a sign, never a negated score: LOWEST and the
        # dual of HIGHEST rank words as well as numbers.
        assert weak_score(DualPreference(HighestPreference("x"))) == (
            "x", None, -1, False, None,
        )
        assert weak_score(LowestPreference("x")).sign == -1
        assert weak_score(DualPreference(LowestPreference("x"))).sign == 1

    def test_layered_is_covered(self):
        from repro.core.base_nonnumerical import (
            ExplicitPreference,
            PosPreference,
        )

        axis = weak_score(PosPreference("c", {"red"}))
        assert axis.attribute == "c" and axis.weak
        assert axis.key("red") > axis.key("blue")
        assert weak_score(ExplicitPreference("c", [("a", "b")])) is None
