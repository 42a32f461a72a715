"""Preference query evaluation under the BMO model (Section 5).

Public surface:

* :class:`~repro.query.api.PreferenceQuery` — the fluent, lazily-planned
  query builder every front end funnels through (start one with
  ``Session(catalog).query(name)`` or ``PreferenceQuery.over(rows)``),
* :func:`~repro.query.bmo.winnow` / :func:`~repro.query.bmo.winnow_groupby`
  — the engine-level operators ``sigma[P](R)`` and
  ``sigma[P groupby A](R)``,
* :mod:`repro.query.algorithms` — naive / BNL / SFS evaluators for
  arbitrary strict partial orders (weak orders — the ``sort`` argmax —
  and terms that lower to integer code axes run on :mod:`repro.engine`
  instead),
* :mod:`repro.query.decomposition` — Propositions 8-12 as executable
  evaluation strategies,
* :mod:`repro.query.topk` — the ranked (k-best) query model with a
  threshold algorithm,
* :mod:`repro.query.quality` — LEVEL / DISTANCE and BUT ONLY,
* :mod:`repro.query.optimizer` — algebraic simplification + strategy
  choice + EXPLAIN.
"""

from repro.engine.columnar import sort_based_maxima
from repro.query.algorithms import (
    ALGORITHMS,
    ComparisonCounter,
    block_nested_loop,
    compatible_sort_key,
    naive_nested_loop,
    sort_filter_skyline,
)
from repro.query.api import PreferenceQuery
from repro.query.bmo import (
    is_dream,
    perfect_matches,
    result_size,
    winnow,
    winnow_groupby,
)
from repro.query.decomposition import (
    better_than_in,
    eval_by_decomposition,
    eval_intersection,
    eval_pareto_decomposition,
    eval_prioritized_cascade,
    eval_prioritized_grouping,
    eval_union,
    nmax_projections,
    yy_set,
)
from repro.query.incremental import BMODelta, IncrementalBMO, merge_deltas
from repro.query.optimizer import choose_algorithm, execute, explain, plan
from repro.query.quality import (
    QualityCondition,
    but_only,
    distance_of,
    explain_quality,
    level_of,
)
from repro.query.topk import ThresholdStats, k_best, threshold_topk

__all__ = [
    "ALGORITHMS",
    "BMODelta",
    "ComparisonCounter",
    "IncrementalBMO",
    "PreferenceQuery",
    "QualityCondition",
    "ThresholdStats",
    "better_than_in",
    "block_nested_loop",
    "but_only",
    "choose_algorithm",
    "compatible_sort_key",
    "distance_of",
    "eval_by_decomposition",
    "eval_intersection",
    "eval_pareto_decomposition",
    "eval_prioritized_cascade",
    "eval_prioritized_grouping",
    "eval_union",
    "execute",
    "explain",
    "explain_quality",
    "is_dream",
    "k_best",
    "level_of",
    "merge_deltas",
    "naive_nested_loop",
    "nmax_projections",
    "perfect_matches",
    "plan",
    "result_size",
    "sort_based_maxima",
    "sort_filter_skyline",
    "threshold_topk",
    "winnow",
    "winnow_groupby",
    "yy_set",
]
