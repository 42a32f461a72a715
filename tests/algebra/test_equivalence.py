"""Tests for Definition 13 equivalence checking."""

import pytest

from repro.algebra.equivalence import (
    canonical_probe,
    equivalence_witness,
    equivalent_on,
    mentioned_values,
    order_pairs,
)
from repro.core.base_nonnumerical import (
    ExplicitPreference,
    NegPreference,
    PosPreference,
)
from repro.core.base_numerical import HighestPreference, LowestPreference
from repro.core.constructors import dual, pareto, prioritized


class TestEquivalentOn:
    def test_same_term_is_equivalent(self):
        p = PosPreference("c", {"red"})
        assert equivalent_on(p, p, ["red", "blue"])

    def test_syntactically_different_equivalent_terms(self):
        # HIGHEST == LOWEST^d (Proposition 3d).
        assert equivalent_on(
            HighestPreference("x"), dual(LowestPreference("x")), [1, 2, 3]
        )

    def test_attribute_mismatch(self):
        witness = equivalence_witness(
            HighestPreference("x"), HighestPreference("y"), [1]
        )
        assert witness is not None and witness[0] == "attribute-mismatch"

    def test_witness_pinpoints_difference(self):
        p1 = PosPreference("c", {"red"})
        p2 = PosPreference("c", {"blue"})
        witness = equivalence_witness(p1, p2, ["red", "blue", "green"])
        assert witness is not None
        x, y, says1, says2 = witness
        assert says1 != says2

    def test_multi_attribute_probe(self):
        p1 = pareto(HighestPreference("a"), HighestPreference("b"))
        p2 = prioritized(HighestPreference("a"), HighestPreference("b"))
        rows = [{"a": x, "b": y} for x in (0, 1) for y in (0, 1)]
        assert not equivalent_on(p1, p2, rows)


class TestOrderPairs:
    def test_pairs_of_pos(self):
        p = PosPreference("c", {"red"})
        pairs = order_pairs(p, ["red", "blue"])
        assert pairs == {(("blue",), ("red",))}

    def test_antichain_has_no_pairs(self):
        from repro.core.preference import AntiChain

        assert order_pairs(AntiChain("x"), [1, 2]) == frozenset()


class TestCanonicalProbe:
    def test_mentions_plus_fresh(self):
        p = PosPreference("c", {"red", "blue"})
        probe = canonical_probe(p)
        assert {"red", "blue"} <= set(probe)
        assert len(probe) == 4  # two mentioned + two fresh

    def test_explicit_mentions_graph_nodes(self):
        p = ExplicitPreference("c", [("a", "b")])
        assert {"a", "b"} <= mentioned_values(p)

    def test_compound_mentions_unioned(self):
        p = pareto(PosPreference("c", {"x"}), NegPreference("c", {"y"}))
        assert mentioned_values(p) == {"x", "y"}

    def test_multi_attribute_rejected(self):
        p = pareto(PosPreference("a", {1}), PosPreference("b", {2}))
        with pytest.raises(ValueError):
            canonical_probe(p)

    def test_probe_distinguishes_pos_variants(self):
        # The probe is exhaustive enough to separate close terms.
        p1 = PosPreference("c", {"red"})
        p2 = PosPreference("c", {"red", "blue"})
        assert not equivalent_on(p1, p2, canonical_probe(p2))


class TestTermIdentity:
    """The one cache-key identity is the signature: it carries the
    scoring code, so view keys and ``classify_revision`` read it."""

    def test_signature_equal_lambdas_stay_apart(self):
        from repro.core.base_numerical import ScorePreference
        from repro.query.revision import classify_revision
        from repro.server.views import ViewSpec

        up = ScorePreference("x", lambda v: v)
        down = ScorePreference("x", lambda v: -v)
        assert up.score_name == down.score_name == "<lambda>"
        assert up.signature != down.signature and up != down
        assert up == ScorePreference("x", up.function)
        assert ViewSpec("t", up).key != ViewSpec("t", down).key
        assert classify_revision(up, down).kind != "equal"

    def test_structural_terms_compare_by_signature(self):
        a = pareto(HighestPreference("x"), LowestPreference("y"))
        b = pareto(HighestPreference("x"), LowestPreference("y"))
        assert a == b and hash(a) == hash(b)

    def test_every_sub_term_is_visited_once(self):
        from repro.core.base_numerical import ScorePreference

        score = ScorePreference("x", lambda v: v)
        nested = prioritized(dual(score), LowestPreference("y"))
        same = prioritized(
            dual(ScorePreference("x", score.function)), LowestPreference("y")
        )
        other = prioritized(
            dual(ScorePreference("x", lambda v: v)), LowestPreference("y")
        )
        assert nested == same
        assert nested != other
