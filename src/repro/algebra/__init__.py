"""The preference algebra of Section 4.

Hard constraints have Boolean algebra; preferences get a *preference
algebra*: laws over preference terms under the equivalence of Definition 13
(same attributes, same order).  This package provides

* :mod:`repro.algebra.equivalence` — decide ``P1 == P2`` on finite probe
  domains (the semantic ground truth the laws are tested against),
* :mod:`repro.algebra.laws` — Propositions 2-6 as named, executable laws,
* :mod:`repro.algebra.rewriter` — the laws as rewrite rules: one memoized
  walk, :func:`normalize`, to the normal form the query optimizer plans
  on and every cache keys on.
"""

from repro.algebra.equivalence import (
    canonical_form,
    canonical_signature,
    equivalent_on,
    equivalence_witness,
)
from repro.algebra.laws import ALL_LAWS, Law, laws_for
from repro.algebra.rewriter import normalize

__all__ = [
    "ALL_LAWS",
    "Law",
    "canonical_form",
    "canonical_signature",
    "equivalence_witness",
    "equivalent_on",
    "laws_for",
    "normalize",
]
