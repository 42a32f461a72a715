"""Constraint-driven preference reasoning (Chomicki-style semantics).

Given a :class:`~repro.analysis.constraints.ConstraintSet` proved for a
winnow's input, this module answers the two questions the semantic
rewrite rules ask:

* :func:`semantic_prune` — which components of the term are *indifferent*
  on every instance satisfying the constraints?  A component over
  constants compares all rows equal; a BETWEEN whose interval covers the
  column's proven value range scores every row ``0``.  A term that
  prunes to nothing makes the winnow the identity; inside a compound
  only a component over constants may go while its siblings stay (see
  :func:`semantic_prune`).
* :func:`weak_order_reduction` — is the (pruned) term provably a **weak
  order** on the constrained instance?  Weak orders evaluate as ``ORDER
  BY + first group`` (one linear argmax pass, no dominance testing; the
  planner rebuilds the winnow over the reduced term, and a weak order
  over one column gets the argmax), and a key inside a chain's
  attributes shrinks the first group to a single tuple — at which point
  later prioritization stages can never apply (Proposition 11 with a
  singleton stage-one output).

Everything here is *conservative*: a ``None`` answer only forgoes an
optimization.  All constraints used are hereditary under selection, so
conclusions hold below arbitrary WHERE stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.constraints import ConstraintSet
from repro.core.base_numerical import BetweenPreference
from repro.core.constructors import (
    DualPreference,
    ParetoPreference,
    PrioritizedPreference,
)
from repro.core.preference import Preference
from repro.query.algorithms import weak_score


def over_constants(pref: Preference, constraints: ConstraintSet) -> bool:
    """Whether all constraint-satisfying rows share one ``pref`` projection."""
    constants = constraints.constant_attributes()
    return bool(pref.attribute_set) and pref.attribute_set <= set(constants)


def indifference_proof(
    pref: Preference, constraints: ConstraintSet,
) -> str | None:
    """Why ``pref`` orders no two constraint-satisfying rows, if it does:
    their projections are all equal (constants), or merely all unordered
    (a BETWEEN covering the value range)."""
    constants = constraints.constant_attributes()
    if over_constants(pref, constraints):
        facts = ", ".join(
            f"{check.attribute} = {check.value!r} [{check.source}]"
            for check in (constants[a] for a in sorted(pref.attribute_set))
        )
        return f"constant under {facts}"
    if isinstance(pref, BetweenPreference):
        bounds = constraints.bounds(pref.attribute)
        if bounds is not None:
            low, high, source = bounds
            try:
                covered = pref.low <= low and high <= pref.up
            except TypeError:
                return None
            if covered:
                return (
                    f"{pref.attribute} ∈ [{low!r}, {high!r}] [{source}] lies "
                    f"inside the BETWEEN interval [{pref.low!r}, {pref.up!r}]"
                )
    return None


def semantic_prune(
    pref: Preference, constraints: ConstraintSet,
) -> tuple[Preference | None, tuple[str, ...]]:
    """Drop components indifferent under the constraints.

    Returns ``(pruned_term, provenance_notes)``; the term is ``None`` when
    the whole preference is indifferent (the winnow is the identity), and
    identical (``is``) to the input when nothing could be pruned.

    A component that survives beside others is dropped only when it is
    over constants.  One that is indifferent but not equal-valued (the
    BETWEEN case) still decides Definitions 8 and 9 through their
    ``x_i = y_i`` clause — rows that differ on it stay incomparable — so
    it goes only if every sibling goes with it.
    """
    proof = indifference_proof(pref, constraints)
    if proof is not None:
        return None, (proof,)
    if isinstance(pref, (ParetoPreference, PrioritizedPreference)):
        kept: list[Preference] = []
        notes: list[str] = []
        changed = False
        results = [semantic_prune(c, constraints) for c in pref.children]
        if all(pruned is None for pruned, _ in results):
            return None, tuple(n for _, ns in results for n in ns)
        for child, (pruned, child_notes) in zip(pref.children, results):
            if pruned is None and not over_constants(child, constraints):
                pruned, child_notes = child, ()
            notes.extend(child_notes)
            if pruned is None:
                changed = True
                continue
            if pruned is not child:
                changed = True
            kept.append(pruned)
        if not changed:
            return pref, ()
        if len(kept) == 1:
            return kept[0], tuple(notes)
        return type(pref)(tuple(kept)), tuple(notes)
    if isinstance(pref, DualPreference):
        pruned, notes = semantic_prune(pref.base, constraints)
        if pruned is None:
            return None, notes
        if pruned is pref.base:
            return pref, ()
        return DualPreference(pruned), notes
    # Other constructors entangle their attributes; partial pruning there
    # is not obviously sound (mirrors prune_constant's caution).
    return pref, ()


def is_weak_order(pref: Preference) -> bool:
    """Whether the term's maxima are one argmax pass.

    A term :func:`~repro.query.algorithms.weak_score` scores gives each
    value one score; its maxima are the best-scored values plus the
    unranked ones (NaN, outside every layer of a POS), each maximal on its
    own.  Chains — a prioritization of chains among them — are weak
    (indeed total) orders on their projections.
    """
    return weak_score(pref) is not None or pref.is_chain() is True


@dataclass(frozen=True)
class WeakOrderReduction:
    """A proved reduction of a winnow to sort-based evaluation.

    ``pref`` is the (possibly smaller) term to evaluate; ``singleton``
    means the BMO set is provably one tuple (a key inside the chain's
    attributes).  ``changed`` distinguishes real term surgery from a mere
    certification of the original term.
    """

    pref: Preference
    provenance: tuple[str, ...]
    changed: bool
    singleton: bool


def weak_order_reduction(
    pref: Preference, constraints: ConstraintSet,
) -> WeakOrderReduction | None:
    """Reduce a winnow term to a weak order under the constraints, if possible.

    Three proofs compose, strongest first:

    1. constraint pruning (:func:`semantic_prune`) shrinks the term;
    2. a prioritization whose head is a chain over key attributes has a
       singleton stage-one BMO, so the whole term reduces to the head
       (Proposition 11 + key uniqueness);
    3. the surviving term is a weak order (score-representable or chain).
    """
    pruned, notes = semantic_prune(pref, constraints)
    if pruned is None:
        return None  # fully indifferent: remove_redundant_winnow territory
    changed = pruned is not pref
    provenance = list(notes)

    if isinstance(pruned, PrioritizedPreference):
        head = pruned.children[0]
        if head.is_chain() is True:
            key = constraints.key_within(head.attribute_set)
            if key is not None:
                provenance.append(
                    f"{key.describe()} [{key.source}]: the chain head has a "
                    "unique best tuple, so later stages never apply"
                )
                return WeakOrderReduction(
                    pref=head,
                    provenance=tuple(provenance),
                    changed=True,
                    singleton=True,
                )

    if not is_weak_order(pruned):
        return None

    singleton = False
    if pruned.is_chain() is True:
        key = constraints.key_within(pruned.attribute_set)
        if key is not None:
            singleton = True
            provenance.append(
                f"{key.describe()} [{key.source}]: chain projections are "
                "pairwise distinct, so the first group is one tuple"
            )
    if not provenance:
        provenance.append("one score per value, unranked rows maximal")
    return WeakOrderReduction(
        pref=pruned,
        provenance=tuple(provenance),
        changed=changed,
        singleton=singleton,
    )


def semantic_facts(
    pref: Preference, constraints: ConstraintSet,
) -> tuple[str, ...]:
    """Human-readable constraint-proved facts about a winnow (for PQ301)."""
    facts: list[str] = []
    pruned, notes = semantic_prune(pref, constraints)
    if pruned is None:
        facts.append(
            "winnow is the identity: preference indifferent under "
            + "; ".join(notes)
        )
        return tuple(facts)
    reduction = weak_order_reduction(pref, constraints)
    if reduction is not None and (reduction.changed or reduction.singleton):
        shape = "a single tuple" if reduction.singleton else "one sort group"
        facts.append(
            f"winnow reduces to sort-based evaluation of {reduction.pref!r} "
            f"(best-matches set is {shape}; "
            + "; ".join(reduction.provenance) + ")"
        )
    return tuple(facts)
