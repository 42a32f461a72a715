"""Preference revision without recomputation (Chomicki, cs/0607013).

The paper frames preference engineering as an *iterative* process: users
refine their wishes step by step, and every step today forces a full
re-plan and rescan.  Chomicki's revision results give the algebraic
conditions under which ``sigma[P'](R)`` is computable *from*
``sigma[P](R)`` instead:

* **Order refinement** — when ``<_P`` is contained in ``<_P'``, every
  ``P'``-maximal row is already ``P``-maximal (ascend a ``<_P`` chain to a
  ``sigma[P]`` witness; transitivity of ``<_P'`` finishes), so

  ``sigma[P'](R) = sigma[P'](sigma[P](R))``

  and the revised answer restarts from the *view*.  Prioritized appends
  (``P -> P & Q``, Definition 9: the appended stage only breaks ties) and
  layer appends on the finite constructors (``POS -> POS/POS`` etc.) are
  order refinements.
* **Contraction** — when ``<_P'`` is contained in ``<_P`` (a prioritized
  stage or layer dropped), ``sigma[P](R)`` is a *subset* of the revised
  answer: re-entrants are exactly the previously dominated rows, so the
  revision restarts from the view plus the dominated **frontier**.
* **Pareto extension** (``P -> P (x) Q``) is a user-intent refinement but
  is *not* order-monotone — a ``(x)``-appended component can promote rows
  the old skyline dominated — so it, too, draws from view + frontier.
* Anything else is **incomparable** and falls back to a full recompute.

:func:`classify_revision` decides the class from canonical forms
(:func:`repro.algebra.equivalence.canonical_form`) plus
the :mod:`repro.analysis` constraint registry (an appended component that
is provably indifferent on the instance makes the revision a no-op).

This module is pure classification: it reads two terms and names the
cheapest sound restart.  Acting on it — restarting a maintained result
from its window, or re-winnowing the bag it is a winnow of — is
:meth:`repro.query.incremental.IncrementalBMO.revise`; locks, versions
and registry keys are :mod:`repro.server.views`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.algebra.equivalence import (
    canonical_form,
    mentioned_values,
    order_pairs,
)
from repro.core.base_nonnumerical import ExplicitPreference, LayeredPreference
from repro.core.constructors import (
    DisjointUnionPreference,
    DualPreference,
    IntersectionPreference,
    ParetoPreference,
    PrioritizedPreference,
)
from repro.core.preference import AntiChain, Preference

#: The proving laws, named once so explain()/docs/tests agree verbatim.
LAW_IDENTITY = (
    "identity: both terms share one structural signature (Definition 13)"
)
LAW_CANONICAL = (
    "canonical form: both terms normalize to one term under the algebra "
    "laws, commuted arms included (Propositions 2-6)"
)
LAW_PROBE_EQUAL = (
    "Definition 13 equivalence, decided exhaustively on the canonical "
    "probe of the finite constructors"
)
LAW_PRIO_APPEND = (
    "Definition 9: x <_P y implies x <_(P & Q) y, so the appended stage "
    "only refines the order and sigma[P'](R) = sigma[P'](sigma[P](R))"
)
LAW_CHAIN_APPEND = (
    "order refinement (probe-proved <_P subset of <_P'): every revised "
    "maximum is an old maximum, so sigma[P'](R) = sigma[P'](sigma[P](R))"
)
LAW_PARETO_EXTEND = (
    "Pareto extension (Definition 8) is not order-monotone: an appended "
    "(x)-component can promote dominated rows, so the revised skyline is "
    "sigma[P'](view + frontier)"
)
LAW_CONTRACTION = (
    "contraction: <_P' subset of <_P, so sigma[P](R) is a subset of "
    "sigma[P'](R); re-entrants are drawn from the dominated frontier"
)
LAW_INDIFFERENT = (
    "semantic no-op: every appended component is indifferent on the "
    "constrained instance, so the revised order equals the old one"
)
LAW_INCOMPARABLE = (
    "no containment between the two orders could be proved; exactness "
    "requires a full recompute"
)


@dataclass(frozen=True)
class Revision:
    """The classification of one preference delta ``P -> P'``.

    ``kind`` is ``equal`` / ``refinement`` / ``contraction`` /
    ``incomparable``; ``shape`` names the syntactic pattern that proved it
    (``prio-append``, ``chain-append``, ``pareto-extend``, ...); ``law``
    is the algebraic law the proof rests on; ``restart`` is the cheapest
    sound restart point: ``none`` (result unchanged), ``view`` (the old
    BMO set alone), ``frontier`` (the old BMO set plus the rows it
    dominated — for a state that holds the whole bag, the bag) or
    ``full`` (recompute from the base relation).
    """

    kind: str
    shape: str
    law: str
    restart: str
    detail: str = ""

    def describe(self) -> str:
        """The explain() rendering: classification, law, restart point."""
        lines = [
            f"revision: {self.kind} ({self.shape})",
            f"  law: {self.law}",
            f"  restart: {self.restart}",
        ]
        if self.detail:
            lines.append(f"  detail: {self.detail}")
        return "\n".join(lines)


def _flat(pref: Preference, ctor: type) -> list[Preference]:
    """Flatten an associative accumulation into its stage list."""
    if isinstance(pref, ctor):
        out: list[Preference] = []
        for child in pref.children:
            out.extend(_flat(child, ctor))
        return out
    return [pref]


def _is_prefix(shorter: Sequence[Preference], longer: Sequence[Preference]) -> bool:
    return all(a == b for a, b in zip(shorter, longer))


def _multiset_minus(
    pool: Sequence[Preference], remove: Sequence[Preference]
) -> list[Preference] | None:
    """``pool`` minus ``remove`` as term multisets, or None if ``remove``
    is not contained in ``pool``."""
    out = list(pool)
    for target in remove:
        if target not in out:
            return None
        out.remove(target)
    return out


#: Constructors whose orders are fully determined by finitely many
#: mentioned values (invariant under permuting unmentioned ones), so a
#: probe of mentioned values + two fresh ones decides order containment.
_FINITE_LEAVES = (LayeredPreference, ExplicitPreference, AntiChain)
_FINITE_COMPOUNDS = (
    ParetoPreference,
    PrioritizedPreference,
    IntersectionPreference,
    DisjointUnionPreference,
    DualPreference,
)


def _finitely_probeable(pref: Preference) -> bool:
    if isinstance(pref, _FINITE_LEAVES):
        return True
    if isinstance(pref, _FINITE_COMPOUNDS):
        return all(_finitely_probeable(c) for c in pref.children)
    return False


def _probe_containment(old: Preference, new: Preference) -> str | None:
    """``equal`` / ``refines`` / ``contracts`` by order containment on an
    exhaustive probe, or None when the probe argument does not apply."""
    if len(old.attributes) != 1 or old.attribute_set != new.attribute_set:
        return None
    if not (_finitely_probeable(old) and _finitely_probeable(new)):
        return None
    probe = sorted(
        mentioned_values(old) | mentioned_values(new), key=repr
    ) + ["__other_1__", "__other_2__"]
    pairs_old = order_pairs(old, probe)
    pairs_new = order_pairs(new, probe)
    if pairs_old == pairs_new:
        return "equal"
    if pairs_old < pairs_new:
        return "refines"
    if pairs_new < pairs_old:
        return "contracts"
    return None


def _all_indifferent(
    appended: Sequence[Preference], constraints: Any, equal_valued: bool
) -> str | None:
    """One combined proof when every appended component is indifferent
    under the instance constraints, else None.  ``equal_valued`` demands
    components over constants: a Pareto arm that orders nothing still
    makes rows that differ on it incomparable (Definition 8's ``=``)."""
    if constraints is None or not constraints:
        return None
    from repro.analysis.semantics import indifference_proof, over_constants

    proofs: list[str] = []
    for component in appended:
        proof = indifference_proof(component, constraints)
        if proof is None or (
            equal_valued and not over_constants(component, constraints)
        ):
            return None
        proofs.append(proof)
    return "; ".join(proofs)


def classify_revision(
    old: Preference, new: Preference, constraints: Any = None
) -> Revision:
    """Classify the preference delta ``old -> new`` (see module docs).

    ``constraints`` is an optional
    :class:`~repro.analysis.constraints.ConstraintSet` proved for the
    winnow's input; it can upgrade a structural refinement to a semantic
    no-op when every appended component is indifferent on the instance.
    The classifier is *conservative*: a ``view``/``frontier`` restart is
    only claimed when the containment law above proves it, and everything
    unproved is ``incomparable`` (exact, via full recompute).
    """
    for pref, name in ((old, "old"), (new, "new")):
        if not isinstance(pref, Preference):
            raise TypeError(
                f"classify_revision needs Preference terms; {name} is "
                f"{pref!r}"
            )
    if old == new:
        return Revision("equal", "identity", LAW_IDENTITY, "none")
    old_c, new_c = canonical_form(old), canonical_form(new)
    if old_c == new_c:
        return Revision("equal", "canonical", LAW_CANONICAL, "none")

    prio_old = _flat(old_c, PrioritizedPreference)
    prio_new = _flat(new_c, PrioritizedPreference)
    if len(prio_new) > len(prio_old) and _is_prefix(prio_old, prio_new):
        appended = prio_new[len(prio_old):]
        proof = _all_indifferent(appended, constraints, False)
        if proof is not None:
            return Revision(
                "equal", "prio-append", LAW_INDIFFERENT, "none", proof
            )
        return Revision(
            "refinement", "prio-append", LAW_PRIO_APPEND, "view",
            f"{len(appended)} stage(s) appended",
        )
    if len(prio_new) < len(prio_old) and _is_prefix(prio_new, prio_old):
        return Revision(
            "contraction", "prio-prefix", LAW_CONTRACTION, "frontier",
            f"{len(prio_old) - len(prio_new)} stage(s) dropped",
        )

    pareto_old = _flat(old_c, ParetoPreference)
    pareto_new = _flat(new_c, ParetoPreference)
    if len(pareto_new) != len(pareto_old):
        appended_p = _multiset_minus(pareto_new, pareto_old)
        if appended_p is not None and len(pareto_new) > len(pareto_old):
            proof = _all_indifferent(appended_p, constraints, True)
            if proof is not None:
                return Revision(
                    "equal", "pareto-extend", LAW_INDIFFERENT, "none", proof
                )
            return Revision(
                "refinement", "pareto-extend", LAW_PARETO_EXTEND,
                "frontier", f"{len(appended_p)} component(s) added",
            )
        dropped_p = _multiset_minus(pareto_old, pareto_new)
        if dropped_p is not None and len(pareto_new) < len(pareto_old):
            return Revision(
                "contraction", "pareto-drop", LAW_CONTRACTION, "frontier",
                f"{len(dropped_p)} component(s) dropped",
            )

    containment = _probe_containment(old_c, new_c)
    if containment == "equal":
        return Revision("equal", "probe", LAW_PROBE_EQUAL, "none")
    if containment == "refines":
        return Revision(
            "refinement", "chain-append", LAW_CHAIN_APPEND, "view"
        )
    if containment == "contracts":
        return Revision(
            "contraction", "layer-drop", LAW_CONTRACTION, "frontier"
        )
    return Revision("incomparable", "unrelated", LAW_INCOMPARABLE, "full")
