"""A heuristic preference query optimizer (the Section 7 roadmap item).

Given a preference term and a database set, the optimizer

1. normalizes the term with the algebra's rewrite rules
   (:func:`repro.algebra.rewriter.normalize`, so e.g. ``P & P``,
   ``P (x) P^d`` or dual-of-dual never reach execution),
2. picks the evaluator of each winnow by one structural rule
   (:func:`row_reason` / :func:`choose_algorithm`):

   * weak orders over one column (HIGHEST, LOWEST, ``ChainPreference``,
     the SCORE family, the layered POS / NEG family, their duals) -> one
     argmax pass, :func:`repro.engine.columnar.sort_based_maxima`,
   * prioritized terms with chain heads -> a Proposition-11 cascade,
   * terms that lower to integer code axes (Pareto over chains and
     single-attribute weak orders) -> the code kernels of
     :mod:`repro.engine.columnar`, at every size, with or without NumPy,
   * other terms with a dominance-compatible sort key -> SFS,
   * everything else -> BNL (always correct),

3. places hard selections below the preference operator and quality
   filters (BUT ONLY) above it, and top-k on top for ranked queries,

4. runs the algebraic *plan* rewriter (:mod:`repro.query.rewrite`):
   law-driven plan-to-plan transforms — rigid-selection pushdown below the
   winnow, Proposition-11 prioritization splitting into cascades, Pareto
   arm decomposition into composite skyline axes, constant-attribute
   pruning under equality selections, and trivial-winnow elimination.

``explain()`` on the resulting plan shows the chosen algorithms (columnar
nodes print ``backend=columnar kernel=...``), each winnow's ``decision:``
line (:func:`row_reason`), the compact ``rewrites: [...]`` rule summary,
and every algebra law and plan rule that fired.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.algebra.rewriter import normalize
from repro.core.preference import Preference, Row
from repro.engine.columnar import columnar_profile
from repro.query import rewrite as _rewrite
from repro.query.algorithms import ALGORITHMS, compatible_sort_key, weak_score
from repro.query.plan import (
    ButOnly,
    ColumnarPreferenceSelect,
    GroupedPreferenceSelect,
    HardSelect,
    Limit,
    OrderBy,
    Plan,
    PlanNode,
    PreferenceSelect,
    Project,
    Scan,
    StorageScan,
    TopK,
)
from repro.query.quality import QualityCondition
from repro.relations.relation import Relation


def row_reason(pref: Preference) -> str | None:
    """Why ``pref`` stays off the integer-code kernels, or None when it
    runs on them — the one question that picks a dominance evaluator.

    A term runs on the code kernels exactly when it lowers to code axes
    (:func:`repro.engine.columnar.columnar_profile` says ``"skyline"``:
    a Pareto of chains and single-attribute weak orders, or a bare
    injective chain) — at every input size, with or without NumPy.  A
    bare weak order (``"score"``) has a cheaper plan, one argmax pass.
    The one lowerable shape held back is a bare prioritization of chains,
    which has a better plan too: ``split_prio`` cascades it into linear
    argmax stages (its composite axis earns its keep as a Pareto *arm*).
    """
    from repro.core.constructors import PrioritizedPreference

    profile = columnar_profile(pref)
    if profile == "score":
        return "weak order: one argmax pass"
    if profile is None:
        return "no columnar dominance form"
    if isinstance(pref, PrioritizedPreference):
        return "chain prioritization cascades on the row engine"
    return None


def choose_algorithm(pref: Preference) -> str:
    """The evaluator of one winnow, as a name in ``ALGORITHMS``.

    Weak orders over one column (:func:`~repro.query.algorithms.weak_score`)
    take the one-pass argmax ``sort``; terms with a code form take the
    code kernels (``vsfs``); the rest take ``sfs`` when a
    dominance-compatible key exists and ``bnl`` — correct for any strict
    partial order — otherwise.  Input size and NumPy's presence do not
    enter: the code engine picks between its own legs.
    """
    if weak_score(pref) is not None:
        return "sort"
    if row_reason(pref) is None:
        return "vsfs"
    if compatible_sort_key(pref) is not None:
        return "sfs"
    return "bnl"


def winnow_node(child: PlanNode, pref: Preference) -> PlanNode:
    """The plan node of one plain winnow ``sigma[pref](child)``: the
    :func:`choose_algorithm` decision turned into its operator, with the
    :func:`row_reason` behind it for ``explain()``.  The planner and every
    rewrite rule that changes a winnow's term build through here, so a
    rewritten node is decided on exactly what the original was.
    """
    algorithm = choose_algorithm(pref)
    if algorithm == "vsfs":
        return ColumnarPreferenceSelect(
            child, pref, reason="lowers to code axes"
        )
    return PreferenceSelect(
        child, pref, algorithm=algorithm, reason=row_reason(pref)
    )


def full_winnow(pref: Preference, rows: list[Row]) -> list[Row]:
    """``sigma[P](rows)`` the way a plan would run it: a chain-headed
    prioritization as its Proposition-11 cascade (``cascade_stages``),
    any other term by the evaluator :func:`choose_algorithm` names.

    For callers that re-derive a whole BMO set outside a plan (continuous
    views rebuilding after a delete or a revision), so that one place
    decides how a full winnow runs.  Returns the caller's own row objects,
    in input order.
    """
    stages = _rewrite.cascade_stages(pref) or ((pref, choose_algorithm(pref)),)
    for stage, algorithm in stages:
        rows = ALGORITHMS[algorithm](stage, rows)
    return rows


def plan(
    pref: Preference | None,
    relation: Relation,
    wheres: Sequence[Any] | None = None,
    groupby: Sequence[str] | None = None,
    top_k: int | None = None,
    top_ties: str = "strict",
    but_only: Sequence[QualityCondition] | None = None,
    select: Sequence[str] | None = None,
    order_by: Sequence[tuple[str, bool]] | None = None,
    limit: int | None = None,
    use_rewriter: bool = True,
    algorithm: Any | None = None,
    storage: Any = None,
    source_name: str | None = None,
) -> Plan:
    """Build an execution plan for ``sigma[P](sigma_hard(R))`` and friends.

    ``pref=None`` plans a plain exact-match query (hard selection, ordering,
    projection, limit only).  ``algorithm`` forces one evaluation engine —
    a name from :data:`repro.query.algorithms.ALGORITHMS` or a callable —
    bypassing both automatic selection (:func:`choose_algorithm`) and
    cascade splitting.  ``wheres`` carries the hard selection as
    per-conjunct specs (anything with ``predicate`` / ``label`` / ``ast``
    attributes, e.g. :class:`repro.query.api.WhereSpec`) whose AST
    provenance feeds the rewrite engine's rigidity and
    constant-propagation analyses.

    With ``use_rewriter=True`` (the default) the plan is rewritten by
    :func:`repro.query.rewrite.rewrite_plan`: WHERE conjuncts proven rigid
    w.r.t. the preference are emitted in their canonical outer position and
    pushed below the winnow by the ``push_select_below_winnow`` rule,
    prioritizations split into cascades, and so on — every step lands in
    :attr:`Plan.rewrites`.  ``use_rewriter=False`` plans the canonical
    (unrewritten) form: equivalent results, none of the speedups.
    """
    conjuncts = [
        (spec.predicate, spec.label, getattr(spec, "ast", None))
        for spec in wheres or ()
    ]
    node: PlanNode = Scan(relation)

    if pref is None:
        for clause, value in (
            ("groupby", groupby), ("top_k", top_k), ("but_only", but_only)
        ):
            if value:
                raise ValueError(
                    f"{clause} requires a preference term, but none was given"
                )
        for predicate, label, ast in conjuncts:
            node = HardSelect(node, predicate, label, ast)
        if order_by:
            node = OrderBy(node, tuple(order_by))
        if select:
            node = Project(node, tuple(select))
        if limit is not None:
            node = Limit(node, limit)
        return Plan(node)

    # Storage pushdown: when the source relation is mirrored in a SQL
    # storage backend (storage= is the session backend, source_name the
    # catalog name), the leaf becomes a StorageScan pinned to the
    # mirror's catalog version; the push_select_into_storage rule can
    # then absorb rigid conjuncts into an indexed SQL prefilter.  The
    # scan is a pure fast path: on any version drift it re-evaluates the
    # conjuncts in Python over the same immutable snapshot.
    if (use_rewriter and storage is not None and source_name
            and getattr(storage, "supports_pushdown", False)):
        storage_version = storage.table_version(source_name)
        if storage_version is not None:
            node = StorageScan(relation=relation, table=source_name.lower(),
                               backend=storage, version=storage_version)

    # BUT ONLY quality conditions address base preferences *inside the
    # user's term* (DISTANCE(price) names the AROUND the user wrote);
    # simplification may legally drop such bases (e.g. a covered
    # prioritization stage), so quality supervision keeps the original.
    original_pref = pref
    rewrites: list[tuple[str, str, str]] = []
    if use_rewriter:
        pref, steps = normalize(pref)
        rewrites.extend(steps)

    # Rigid conjuncts commute with the winnow (both positions are
    # equivalent), so the builder emits them in canonical outer position
    # and lets the push_select_below_winnow rule place them on the cheap
    # side; everything else is pinned below by WHERE-before-PREFERRING
    # semantics.  Only the maximal rigid *suffix* is lifted: the pushed
    # conjuncts land back directly below the winnow, above the pinned
    # ones, so suffix-lifting preserves the user's conjunct evaluation
    # order exactly — an opaque predicate guarded by an earlier conjunct
    # (where(a__ne=0).where(lambda r: 1 / r["a"] > 0)) stays guarded.
    # Ranked (top-k) and grouped winnows keep every conjunct below — the
    # commutation law is about plain winnows.
    lifted: list[tuple[Callable[[Row], bool], str, Any]] = []
    below = list(conjuncts)
    if use_rewriter and top_k is None and not groupby:
        while below and below[-1][2] is not None and _rewrite.is_rigid(
            below[-1][2], pref
        ):
            lifted.insert(0, below.pop())
    for predicate, label, ast in below:
        node = HardSelect(node, predicate, label, ast)

    # The constraint registry (declared schema constraints + facts derived
    # from statistics over the preference's attributes) powers the semantic
    # rewrite rules.  The canonical (use_rewriter=False) plan stays
    # constraint-blind.
    constraints = None
    if use_rewriter:
        from repro.analysis.constraints import constraint_registry

        # Profile the preference's attributes plus any WHERE pins to a
        # constant: a key on an equality-fixed column proves the winnow
        # input is a single tuple (remove_redundant_winnow).
        profiled = set(pref.attribute_set)
        for _, _, conjunct_ast in conjuncts:
            if conjunct_ast is not None:
                profiled |= _rewrite.fixed_attributes(conjunct_ast)
        constraints = constraint_registry(relation, sorted(profiled))
    if top_k is not None:
        node = TopK(node, pref, top_k, ties=top_ties)
    elif groupby:
        node = GroupedPreferenceSelect(
            node, pref, tuple(groupby),
            algorithm=algorithm or choose_algorithm(pref),
        )
    elif algorithm is not None:
        node = PreferenceSelect(node, pref, algorithm=algorithm)
    else:
        node = winnow_node(node, pref)
    for predicate, label, ast in lifted:
        node = HardSelect(node, predicate, label, ast)

    if but_only:
        node = ButOnly(node, original_pref, tuple(but_only))
    if order_by:
        node = OrderBy(node, tuple(order_by))
    if select:
        node = Project(node, tuple(select))
    if limit is not None:
        node = Limit(node, limit)

    if use_rewriter:
        ctx = _rewrite.RewriteContext(
            forced_algorithm=algorithm,
            constraints=constraints,
        )
        node, plan_steps = _rewrite.rewrite_plan(node, ctx)
        rewrites.extend(plan_steps)
    return Plan(node, tuple(rewrites))


def execute(
    pref: Preference,
    relation: Relation,
    **kwargs: Any,
) -> Relation:
    """Plan and run in one step — the convenience entry point."""
    return plan(pref, relation, **kwargs).execute()


def explain(
    pref: Preference,
    relation: Relation,
    **kwargs: Any,
) -> str:
    """The plan text (operators, algorithms, fired laws) without running it."""
    return plan(pref, relation, **kwargs).explain()
