"""Equivalence of preference terms (Definition 13), decided on probe sets.

``P1 == P2`` iff they share attributes and order every pair of domain values
identically.  Full domains are usually infinite; following standard
model-checking practice the functions here decide equivalence *relative to a
probe set of values*.  For the finite constructors (POS family, EXPLICIT)
a probe covering the mentioned values plus one fresh "other" value is
exhaustive — the constructors are invariant under permuting unmentioned
values, so one representative suffices; :func:`canonical_probe` builds such
probes automatically where it can.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Sequence

from repro.algebra.rewriter import normalize
from repro.core.base_nonnumerical import ExplicitPreference, LayeredPreference
from repro.core.preference import Preference, as_row


def equivalent_on(
    p1: Preference, p2: Preference, values: Iterable[Any]
) -> bool:
    """Definition 13 on a probe set: same attributes and identical orders."""
    return equivalence_witness(p1, p2, values) is None


def equivalence_witness(
    p1: Preference, p2: Preference, values: Iterable[Any]
) -> tuple | None:
    """``None`` if equivalent on the probe; else a distinguishing pair.

    The witness is ``(x, y, p1_says, p2_says)`` for the first pair the two
    terms order differently — invaluable in failing property tests.
    """
    if p1.attribute_set != p2.attribute_set:
        return ("attribute-mismatch", p1.attributes, p2.attributes)
    pool = list(values)
    rows = [as_row(v, p1.attributes) for v in pool]
    for x, y in itertools.permutations(rows, 2):
        says1 = p1._lt(x, y)
        says2 = p2._lt(x, y)
        if says1 != says2:
            return (x, y, says1, says2)
    return None


def order_pairs(pref: Preference, values: Iterable[Any]) -> frozenset[tuple]:
    """The relation ``<_P`` restricted to a probe set, as projection pairs."""
    pool = list(values)
    rows = [as_row(v, pref.attributes) for v in pool]
    attrs = pref.attributes
    pairs = set()
    for x, y in itertools.permutations(rows, 2):
        if pref._lt(x, y):
            pairs.add(
                (tuple(x[a] for a in attrs), tuple(y[a] for a in attrs))
            )
    return frozenset(pairs)


def mentioned_values(pref: Preference) -> set:
    """Values a (single-attribute) term mentions syntactically.

    Used to build exhaustive probes for finite constructors: POS/NEG layers,
    EXPLICIT graph nodes, and recursively through compound terms that stay
    on one attribute.
    """
    found: set = set()
    stack: list[Preference] = [pref]
    while stack:
        node = stack.pop()
        if isinstance(node, LayeredPreference):
            for layer in node.layers:
                if not isinstance(layer, type(None)) and isinstance(layer, frozenset):
                    found |= set(layer)
        elif isinstance(node, ExplicitPreference):
            found |= set(node.graph_values)
        stack.extend(node.children)
    return found


def canonical_probe(
    pref: Preference, fresh: Sequence[Any] = ("__other_1__", "__other_2__")
) -> list:
    """A probe that is exhaustive for finite single-attribute constructors.

    All mentioned values plus two fresh unmentioned ones: two, so that
    relations among distinct "other" values (always unranked for the POS
    family and EXPLICIT) are probed as well.
    """
    if len(pref.attributes) != 1:
        raise ValueError(
            "canonical probes are defined for single-attribute terms; "
            "build multi-attribute probes as products of per-attribute probes"
        )
    return sorted(mentioned_values(pref), key=repr) + list(fresh)


# -- canonical forms (registry keying) -----------------------------------------


def canonical_form(pref: Preference) -> Preference:
    """The one equivalence-preserving normal form, for keying shared state:
    :func:`repro.algebra.rewriter.normalize`'s term.

    Every rule cites its proposition and is property-tested for
    Definition 13 equivalence; the last orders the children of the
    commutative constructors (Pareto ``(x)``, intersection ``<>``,
    disjoint union ``+``; Proposition 2) by signature.  Two terms that
    differ only by commuted arms, nesting, laundered duplicates, dual
    pairs or simplifiable prioritized chains therefore canonicalize to
    terms with *equal signatures* — what every continuous view, shared
    tenant view and revision classification keys on.
    """
    return normalize(pref)[0]


def canonical_signature(pref: Preference) -> tuple:
    """The structural signature of :func:`canonical_form` — a hashable,
    equivalence-respecting registry key for preference terms."""
    return canonical_form(pref).signature
