"""Term normalization: the paper's laws as rewrite rules.

:func:`normalize` is the one normal form of a term: the query optimizer
(Section 7's roadmap names "heuristic transformations" as an optimizer
building block) plans on it, and every cache that asks "is this the same
term?" — continuous views, tenant views, revision — keys on its
signature.  Every rule cites the proposition that justifies it; rules only
fire when their side conditions hold, and each is property-tested for
equivalence on probe domains.

Rules (flattening first, top-down; then bottom-up, to fixpoint):

* ``(P^d)^d -> P``                                (Prop. 3b)
* ``(S<->)^d -> S<->``                            (Prop. 3a)
* ``LOWEST^d -> HIGHEST``, ``HIGHEST^d -> LOWEST``  (Prop. 3d)
* ``POS^d -> NEG``, ``NEG^d -> POS``              (Prop. 3e)
* ``(P1 (+) P2)^d -> P2^d (+) P1^d``              (Prop. 3c)
* flatten nested ``&`` / ``(x)`` / ``<>`` / ``+``   (Prop. 2, associativity)
* ``&``-chain: drop any child whose attributes are covered by earlier
  children (subsumes Props. 3i, 3j, 4a: equality upstream forces
  indifference downstream)
* ``(x)``: drop duplicated children                (Prop. 3l)
* ``(x)``: a child pair ``{C, C^d}`` collapses to ``attrs(C)<->`` (Prop. 3n)
* ``(x)`` with anti-chain children ``A<->`` becomes the grouped preference
  ``A<-> & (rest)``                               (Prop. 3m, generalized)
* ``(x)`` whose children all share one attribute set -> ``<>`` (Prop. 6)
* ``<>``: drop duplicated children (Prop. 3f); a child pair ``{C, C^d}`` or
  an anti-chain child collapses the whole term to ``attrs<->`` (Prop. 3g)
* ``BETWEEN(a, z, z) -> AROUND(a, z)``            (hierarchy, Section 3.4)
* a subset preference restricted to the empty value set ranks nothing —
  it degenerates to the anti-chain ``A<->`` (empty-domain no-op; the plan
  rewriter then drops the winnow entirely)
* ``commute``: the children of ``(x)``, ``<>`` and ``+`` in signature
  order, so every permutation of one term is one term     (Prop. 2)
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.core.base_nonnumerical import NegPreference, PosPreference
from repro.core.base_numerical import (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
    LowestPreference,
)
from repro.core.constructors import (
    DisjointUnionPreference,
    DualPreference,
    IntersectionPreference,
    ParetoPreference,
    PrioritizedPreference,
)
from repro.core.preference import AntiChain, Preference, SubsetPreference

Rule = Callable[[Preference], "Preference | None"]


# -- rules on dual terms -------------------------------------------------------

def _rule_dual(term: Preference) -> Preference | None:
    if not isinstance(term, DualPreference):
        return None
    base = term.base
    if isinstance(base, DualPreference):
        return base.base  # Prop 3b
    if isinstance(base, AntiChain):
        return base  # Prop 3a
    if isinstance(base, LowestPreference):
        return HighestPreference(base.attribute, base.domain)  # Prop 3d
    if isinstance(base, HighestPreference):
        return LowestPreference(base.attribute, base.domain)  # Prop 3d
    if isinstance(base, PosPreference):
        return NegPreference(base.attribute, base.pos_set, base.domain)  # 3e
    if isinstance(base, NegPreference):
        return PosPreference(base.attribute, base.neg_set, base.domain)  # 3e
    from repro.core.constructors import LinearSumPreference

    if isinstance(base, LinearSumPreference):  # Prop 3c
        return LinearSumPreference(
            DualPreference(base.second),
            DualPreference(base.first),
            attribute=base.attribute,
        )
    return None


# -- flattening (associativity, Proposition 2) ---------------------------------

def _arms(term: Preference, ctor: type) -> list[Preference]:
    if not isinstance(term, ctor):
        return [term]
    return [arm for child in term.children for arm in _arms(child, ctor)]


def _flatten(term: Preference, ctor: type) -> Preference | None:
    """``term``'s arms at every depth of ``ctor`` nesting, or None."""
    if not isinstance(term, ctor) or not any(
        isinstance(child, ctor) for child in term.children
    ):
        return None
    return ctor(tuple(_arms(term, ctor)))


def _rule_flatten_pareto(term: Preference) -> Preference | None:
    return _flatten(term, ParetoPreference)


def _rule_flatten_prioritized(term: Preference) -> Preference | None:
    return _flatten(term, PrioritizedPreference)


def _rule_flatten_intersection(term: Preference) -> Preference | None:
    return _flatten(term, IntersectionPreference)


def _rule_flatten_union(term: Preference) -> Preference | None:
    return _flatten(term, DisjointUnionPreference)


# -- prioritized chains ----------------------------------------------------------

def _rule_prioritized_covered(term: Preference) -> Preference | None:
    """Drop ``&``-children whose attributes earlier children already cover.

    Once all more important children tie, the tie is equality on the union
    of their attributes; a later child over covered attributes can then
    never fire (its operands are equal).  Subsumes Props. 3i/3j/4a.
    """
    if not isinstance(term, PrioritizedPreference):
        return None
    kept: list[Preference] = []
    covered: set[str] = set()
    changed = False
    for child in term.children:
        if kept and child.attribute_set <= covered:
            changed = True
            continue
        kept.append(child)
        covered |= child.attribute_set
    if not changed:
        return None
    if len(kept) == 1:
        return kept[0]
    return PrioritizedPreference(tuple(kept))


# -- dual-pair detection ----------------------------------------------------------

def _dual_signature(term: Preference) -> tuple:
    """The signature ``term``'s dual simplifies to.

    The dual rule rewrites ``POS^d -> NEG`` etc. bottom-up, so by the time a
    ``{C, C^d}`` pair rule runs, the dual child may already wear its
    simplified form.  This helper names that form so pair detection still
    fires (e.g. ``POS(A, S) (x) NEG(A, S) -> A<->``).
    """
    if isinstance(term, PosPreference):
        return ("neg", term.attribute, term.pos_set)
    if isinstance(term, NegPreference):
        return ("pos", term.attribute, term.neg_set)
    if isinstance(term, LowestPreference):
        return ("highest", term.attribute)
    if isinstance(term, HighestPreference):
        return ("lowest", term.attribute)
    if isinstance(term, AntiChain):
        return term.signature
    if isinstance(term, DualPreference):
        return term.base.signature
    return ("dual", term.signature)


def _is_dual_pair(a: Preference, b: Preference) -> bool:
    return b.signature == _dual_signature(a)


# -- pareto ----------------------------------------------------------------------

def _rule_pareto_duplicates(term: Preference) -> Preference | None:
    if not isinstance(term, ParetoPreference):
        return None
    seen: set = set()
    kept: list[Preference] = []
    changed = False
    for child in term.children:
        if child.signature in seen:
            changed = True  # Prop 3l
            continue
        seen.add(child.signature)
        kept.append(child)
    if not changed:
        return None
    if len(kept) == 1:
        return kept[0]
    return ParetoPreference(tuple(kept))


def _rule_pareto_dual_pair(term: Preference) -> Preference | None:
    """A Pareto child pair ``{C, C^d}`` conflicts everywhere on attrs(C):
    replace the pair with the anti-chain ``attrs(C)<->`` (Prop. 3n)."""
    if not isinstance(term, ParetoPreference):
        return None
    children = list(term.children)
    for i, a in enumerate(children):
        for j, b in enumerate(children):
            if i == j:
                continue
            if _is_dual_pair(a, b):
                rest = [c for k, c in enumerate(children) if k not in (i, j)]
                anti = AntiChain(a.attributes)
                if not rest:
                    return anti
                return ParetoPreference(tuple([anti, *rest]))
    return None


def _rule_pareto_antichain(term: Preference) -> Preference | None:
    """Anti-chain children turn Pareto into a grouped preference (Prop. 3m).

    ``A<-> (x) Q1 (x) ... == A<-> & (Q1 (x) ...)``; if *all* children are
    anti-chains the whole term is the anti-chain over the union attributes.
    """
    if not isinstance(term, ParetoPreference):
        return None
    antis = [c for c in term.children if isinstance(c, AntiChain)]
    if not antis:
        return None
    rest = [c for c in term.children if not isinstance(c, AntiChain)]
    anti_attrs: list[str] = []
    for a in antis:
        anti_attrs.extend(x for x in a.attributes if x not in anti_attrs)
    if not rest:
        return AntiChain(tuple(anti_attrs))
    inner = rest[0] if len(rest) == 1 else ParetoPreference(tuple(rest))
    return PrioritizedPreference((AntiChain(tuple(anti_attrs)), inner))


def _rule_pareto_shared_attrs(term: Preference) -> Preference | None:
    """Proposition 6: same-attribute Pareto is intersection."""
    if not isinstance(term, ParetoPreference):
        return None
    sets = {c.attribute_set for c in term.children}
    if len(sets) != 1:
        return None
    return IntersectionPreference(term.children)


# -- intersection -------------------------------------------------------------------

def _rule_intersection_simplify(term: Preference) -> Preference | None:
    if not isinstance(term, IntersectionPreference):
        return None
    children = list(term.children)
    # Prop 3g: an anti-chain child annihilates (same attrs by construction).
    if any(isinstance(c, AntiChain) for c in children):
        return AntiChain(term.attributes)
    # Prop 3g: {C, C^d} annihilates the whole conjunction.
    signatures = {c.signature for c in children}
    for c in children:
        if _dual_signature(c) in signatures:
            return AntiChain(term.attributes)
    # Prop 3f: duplicates collapse.
    seen: set = set()
    kept: list[Preference] = []
    changed = False
    for child in children:
        if child.signature in seen:
            changed = True
            continue
        seen.add(child.signature)
        kept.append(child)
    if not changed:
        return None
    if len(kept) == 1:
        return kept[0]
    return IntersectionPreference(tuple(kept))


# -- numerical hierarchy normalization -------------------------------------------

def _rule_empty_domain(term: Preference) -> Preference | None:
    """A restriction to the empty value set never ranks anything.

    ``P|_∅`` (Definition 3d over an empty S) has an empty order: it is the
    anti-chain over its attributes.  Normalizing it lets downstream
    consumers — the plan rewriter's ``drop_trivial_winnow`` above all —
    treat the winnow as the identity instead of running an engine.
    """
    if isinstance(term, SubsetPreference) and not term.member_projections():
        return AntiChain(term.attributes)
    return None


def _rule_between_point(term: Preference) -> Preference | None:
    if (
        isinstance(term, BetweenPreference)
        and not isinstance(term, AroundPreference)
        and term.low == term.up
    ):
        return AroundPreference(term.attribute, term.low, term.domain)
    return None


# -- commutativity ------------------------------------------------------------

_COMMUTATIVE = (ParetoPreference, IntersectionPreference, DisjointUnionPreference)


def _rule_commute(term: Preference) -> Preference | None:
    """Proposition 2: Pareto, intersection and disjoint union are
    commutative, so their children are put in ``repr(signature)`` order
    (prioritized accumulation is associative only, and rank / linear-sum
    argument order is meaningful, so those keep theirs)."""
    if not isinstance(term, _COMMUTATIVE):
        return None
    ordered = sorted(term.children, key=lambda c: repr(c.signature))
    if ordered == list(term.children):
        return None
    return type(term)(tuple(ordered))


_FLATTEN: tuple[tuple[str, Rule], ...] = (
    ("flatten_pareto", _rule_flatten_pareto),
    ("flatten_prioritized", _rule_flatten_prioritized),
    ("flatten_intersection", _rule_flatten_intersection),
    ("flatten_union", _rule_flatten_union),
)

RULES: tuple[tuple[str, Rule], ...] = (
    ("dual", _rule_dual),
    *_FLATTEN,
    ("prioritized_covered", _rule_prioritized_covered),
    ("pareto_duplicates", _rule_pareto_duplicates),
    ("pareto_dual_pair", _rule_pareto_dual_pair),
    ("pareto_antichain", _rule_pareto_antichain),
    ("pareto_shared_attrs", _rule_pareto_shared_attrs),
    ("intersection_simplify", _rule_intersection_simplify),
    ("empty_domain_noop", _rule_empty_domain),
    ("between_point", _rule_between_point),
    ("commute", _rule_commute),
)

_MAX_PASSES = 64

#: Normal forms kept before the oldest is dropped; renormalizing is
#: cheap, unbounded growth is not.
_MEMO_CAP = 4096

#: signature -> (normal form, rewrite steps).  Keys hold the terms' code
#: objects, so an entry can never outlive its function and alias a
#: reused ``id``.  The lock is held for dict operations only, never
#: across a walk: the server's event loop normalizes here.
_memo: dict[tuple, tuple[Preference, tuple[tuple[str, str, str], ...]]] = {}
_memo_lock = threading.Lock()


def _rebuild(term: Preference, new_children: list[Preference]) -> Preference:
    """Reconstruct a compound term with rewritten children."""
    from repro.core.constructors import LinearSumPreference, RankPreference

    if isinstance(term, DualPreference):
        return DualPreference(new_children[0])
    if isinstance(term, ParetoPreference):
        return ParetoPreference(tuple(new_children))
    if isinstance(term, PrioritizedPreference):
        return PrioritizedPreference(tuple(new_children))
    if isinstance(term, IntersectionPreference):
        return IntersectionPreference(tuple(new_children))
    if isinstance(term, DisjointUnionPreference):
        return DisjointUnionPreference(tuple(new_children))
    if isinstance(term, LinearSumPreference):
        return LinearSumPreference(
            new_children[0], new_children[1], attribute=term.attribute
        )
    if isinstance(term, RankPreference):
        return RankPreference(
            term.combine, tuple(new_children), name=term.score_name
        )
    return term  # leaf or unknown: keep as-is


def _first_rule(
    term: Preference, rules: tuple[tuple[str, Rule], ...] = RULES
) -> tuple[str, Preference] | None:
    """The first applicable rule at this node and its result."""
    for name, rule in rules:
        result = rule(term)
        if result is not None:
            return name, result
    return None


def _simplify_node(term: Preference, trace: list[tuple[str, str, str]]) -> Preference:
    # Associativity first, top-down: nested arms join their parent before
    # any rule rewrites them on their own, so every grouping of one term
    # reaches one normal form.
    flat = _first_rule(term, _FLATTEN)
    if flat is not None:
        trace.append((flat[0], repr(term), repr(flat[1])))
        term = flat[1]
    # Then bottom-up: children first, then this node to local fixpoint.
    children = list(term.children)
    if children:
        new_children = [_simplify_node(c, trace) for c in children]
        if [c.signature for c in new_children] != [c.signature for c in children]:
            term = _rebuild(term, new_children)
    for _ in range(_MAX_PASSES):
        fired = _first_rule(term)
        if fired is None:
            return term
        rule_name, rewritten = fired
        trace.append((rule_name, repr(term), repr(rewritten)))
        term = rewritten
        # A rewrite may expose new child-level opportunities.
        if term.children:
            term = _simplify_node(term, trace)
            break
    return term


def normalize(
    term: Preference,
) -> tuple[Preference, tuple[tuple[str, str, str], ...]]:
    """The normal form of ``term`` and the rewrite steps ``(rule, before,
    after)`` that reached it, memoized on the term's signature.

    The normal form is equivalent (Definition 13) to the input, and two
    spellings that differ by commuted arms, nesting, duplicated arms or
    dual pairs share it.  The steps feed EXPLAIN, so users see which
    paper laws fired on their query.  Idempotent: a normal form
    normalizes to itself in no steps.
    """
    key = term.signature
    with _memo_lock:
        hit = _memo.get(key)
    if hit is not None:
        return hit
    trace: list[tuple[str, str, str]] = []
    normal = _simplify_node(term, trace)
    result = (normal, tuple(trace))
    with _memo_lock:
        _memo[key] = result
        _memo.setdefault(normal.signature, (normal, ()))
        while len(_memo) > _MEMO_CAP:
            _memo.pop(next(iter(_memo)))
    return result
