"""Algebraic plan rewriting: law-driven, cost-free plan-to-plan transforms.

The term rewriter (:mod:`repro.algebra.rewriter`) normalizes preference
*terms* by the paper's propositions.  This module is the second rewrite
layer the optimizer runs: it transforms whole *plans*, using the
winnow-level laws from Kießling §4 and Chomicki's semantic optimization of
preference queries (cs/0402003, cs/0510036).  Every rule is equivalence
preserving — rewritten plans return exactly the rows the canonical plan
returns — and every application is recorded in the plan's rewrite trace,
surfaced by ``explain()`` as ``rewrites: [...]``.

Rule catalog (names as they appear in the trace):

``push_select_below_winnow``
    Winnow/σ commutation (Chomicki L1-style).  A selection is *rigid*
    w.r.t. a preference when satisfaction is closed under dominance: if
    ``x`` passes and ``y >_P x`` then ``y`` passes too.  Then
    ``σ(ω_P(R)) = ω_P(σ(R))`` and the selection may run below the winnow,
    where it shrinks the super-linear dominance phase instead of trimming
    its output.  Fires for (a) WHERE conjuncts the builder could prove
    rigid via :func:`is_rigid` (e.g. ``price <= c`` under a preference
    whose dominance only ever lowers ``price``), and (b) BUT ONLY quality
    conditions whose measure improves under dominance
    (:func:`quality_rigid` — e.g. ``DISTANCE(price) <= d`` when the
    AROUND base sits in certified position), which are converted into
    hard prefilters below the winnow.

``mask_select_under_kernel``
    A code-kernel winnow (:class:`~repro.query.plan.ColumnarPreferenceSelect`)
    over selections that NumPy masks over the snapshot's cached columns
    reads the snapshot (``Scan``), not the storage mirror: the masks
    leave an index into the snapshot's cached codes, where a SQL
    prefilter leaves fresh rows to encode again.  Everywhere else
    ``push_select_into_storage`` absorbs pushable conjuncts into the
    backend's SQL prefilter.

``split_prio``
    Proposition 11: ``σ[P1 & P2](R) = σ[P2](σ[P1](R))`` when ``P1`` is a
    chain.  Prioritizations with chain heads become a
    :class:`~repro.query.plan.Cascade` of cheap single-stage winnows.

``decompose_pareto``
    Pareto accumulations whose arms are themselves prioritizations of
    chains over pairwise disjoint attributes (chains by Proposition 3h)
    decompose into one composite skyline axis per arm — each arm is
    rank-encoded independently and the code kernel re-merges them, so
    the whole term evaluates as a vector skyline.

``prune_constant_pref``
    Equality selections below the winnow fix attributes to constants on
    the winnow's input; preference components over fixed attributes are
    indifferent there (all projections equal) and are dropped from the
    evaluated term.  A term that becomes fully constant drops the winnow
    entirely.

``drop_trivial_winnow``
    BMO no-ops: a winnow over an anti-chain term (e.g. after SV-style
    empty-domain normalization collapsed the term) or over a provably
    empty / single-tuple input is the identity and is removed.

``remove_redundant_winnow``
    Chomicki's semantic elimination (cs/0402003): integrity constraints
    from the analyzer's registry (declared on the schema or derived from
    statistics) prove the winnow is the identity — either the whole term
    is indifferent on every constraint-satisfying instance (all its
    attributes constant, or a BETWEEN interval covering the column's
    proven value range), or equality selections below pin a key and the
    input is at most one tuple.  The trace names the constraints used.

``winnow_to_sort``
    Constraints prove the term a **weak order** on the input, so the BMO
    set is the first ORDER-BY group.  Fires structurally when constraint
    pruning shrank the term or a key inside a chain head makes the
    stage-one BMO a single tuple (Proposition 11 then discharges all
    later stages): the winnow is rebuilt over the reduced term the way
    the planner builds any winnow, so a weak order over one column gets
    the one-pass argmax (``algorithm=sort``) and a reduced prioritization
    of chains ``split_prio``'s cascade.  The trace entry names the
    constraints the proof used.  When the planner's node is already the
    argmax, a key on the chain's attributes is recorded as a
    certification instead.

The rigidity analyses are deliberately *syntactic and conservative*: a
``None``/``False`` answer only costs an optimization, while a wrong
positive would change results — the hypothesis suite in
``tests/query/test_rewrite_properties.py`` checks rewritten plans against
naive evaluation across random terms, relations, and selections.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.base_nonnumerical import LayeredPreference
from repro.core.base_numerical import (
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
from repro.core.preference import AntiChain, Preference, Row, SubsetPreference
from repro.query.plan import (
    ButOnly,
    Cascade,
    ColumnarPreferenceSelect,
    GroupedPreferenceSelect,
    HardSelect,
    PlanNode,
    PreferenceSelect,
    Scan,
    StorageScan,
)
from repro.query.quality import QualityCondition, base_preferences_by_attribute

#: Version of the rewrite rule set.  Participates in the plan-cache
#: fingerprint (:meth:`repro.query.api.PreferenceQuery.fingerprint`), so
#: cached plans built by an older rule set can never be replayed.
#: 2: constraint-driven semantic rules (winnow_to_sort,
#: remove_redundant_winnow).
#: 3: storage prefilter pushdown (push_select_into_storage) — plans may
#: now hold StorageScan leaves bound to a backend mirror.
#: 4: the algebra's ``commute`` rule (Proposition 2) — plans run on the
#: normal form with commutative arms in signature order.
#: 5: a pushed BUT ONLY DISTANCE bound is a widened BETWEEN prefilter
#: under its exact condition; a code-kernel winnow whose selections mask
#: reads the snapshot, not a storage prefilter (mask_select_under_kernel).
RULESET_VERSION = 5

#: One recorded rewrite: ``(rule, before, after)`` — the shape the term
#: rewriter uses, so plan-level and term-level steps share one trace.
RewriteStep = tuple[str, str, str]

_WINNOWS = (
    PreferenceSelect,
    ColumnarPreferenceSelect,
    Cascade,
    GroupedPreferenceSelect,
)

_FLIP = {"down": "up", "up": "down", "const": "const"}


# -- rigidity analysis --------------------------------------------------------------


def monotone_direction(pref: Preference, attribute: str) -> str | None:
    """How dominance moves ``attribute``: the guarantee ``y >_P x`` gives.

    * ``"down"`` — ``y[a] <= x[a]`` (dominators never raise the value),
    * ``"up"``  — ``y[a] >= x[a]``,
    * ``"const"`` — ``y[a] == x[a]``,
    * ``None`` — no guarantee derivable from the term's structure.

    Derived per constructor: LOWEST/HIGHEST are the directional bases;
    duals flip; Pareto and intersection *conjoin* child guarantees (their
    dominance needs every child better-or-projection-equal, so opposing
    directions force equality); prioritization only inherits the head's
    guarantee (later stages are unconstrained when an earlier stage
    decides); disjoint union takes the weakest common guarantee (any one
    child may decide).  Everything else — score terms like AROUND, layered
    terms, chains with opaque keys — answers ``None``.
    """
    if attribute not in pref.attribute_set:
        return None
    if isinstance(pref, LowestPreference):
        return "down"
    if isinstance(pref, HighestPreference):
        return "up"
    if isinstance(pref, AntiChain):
        return "const"  # dominance never holds: the guarantee is vacuous
    if isinstance(pref, DualPreference):
        inner = monotone_direction(pref.base, attribute)
        return _FLIP[inner] if inner is not None else None
    if isinstance(pref, SubsetPreference):
        return monotone_direction(pref.base, attribute)
    if isinstance(pref, (ParetoPreference, IntersectionPreference)):
        guarantees = {
            monotone_direction(c, attribute)
            for c in pref.children
            if attribute in c.attribute_set
        }
        guarantees.discard(None)
        if not guarantees:
            return None
        # All guarantees hold simultaneously; <= and >= together mean ==.
        if "const" in guarantees or {"down", "up"} <= guarantees:
            return "const"
        return next(iter(guarantees))
    if isinstance(pref, PrioritizedPreference):
        head = pref.children[0]
        if attribute not in head.attribute_set:
            return None  # a later stage may move it freely
        # Either the head decides (its guarantee holds) or the head ties
        # on its whole attribute set (the value is equal — stronger).
        return monotone_direction(head, attribute)
    if isinstance(pref, DisjointUnionPreference):
        guarantees = []
        for child in pref.children:
            guarantee = monotone_direction(child, attribute)
            if guarantee is None:
                return None
            guarantees.append(guarantee)
        # Any single child may witness dominance: keep the weakest bound.
        if set(guarantees) <= {"down", "const"}:
            return "down" if "down" in guarantees else "const"
        if set(guarantees) <= {"up", "const"}:
            return "up" if "up" in guarantees else "const"
        return None
    return None


def is_rigid(condition: Any, pref: Preference) -> bool:
    """Is a WHERE expression rigid (dominance-closed) w.r.t. ``pref``?

    ``condition`` is a Preference SQL hard AST node
    (:class:`repro.psql.ast.Comparison` / AND-:class:`~repro.psql.ast.BoolOp`);
    anything else — bare callables included — is conservatively mobile-free.
    A rigid condition satisfies ``x ∈ σ and y >_P x  ⇒  y ∈ σ``, which by
    the commutation law makes ``σ(ω_P(R)) = ω_P(σ(R))``: upper bounds need
    a ``down`` guarantee, lower bounds an ``up`` one, equalities ``const``.
    """
    from repro.psql.ast import BoolOp, Comparison

    if isinstance(condition, BoolOp):
        return condition.op == "AND" and all(
            is_rigid(part, pref) for part in condition.operands
        )
    if not isinstance(condition, Comparison):
        return False
    guarantee = monotone_direction(pref, condition.attribute)
    if guarantee is None:
        return False
    if condition.op in ("<", "<="):
        return guarantee in ("down", "const")
    if condition.op in (">", ">="):
        return guarantee in ("up", "const")
    if condition.op == "=":
        return guarantee == "const"
    return False


def _improves_under(pref: Preference, base: Preference) -> bool:
    """Does ``y >_P x`` imply ``y`` is better-or-projection-equal in ``base``?

    ``base`` must be a leaf of ``pref`` (identity, not equality).  Holds
    when the leaf sits in *certified position*: the term itself, any Pareto
    or intersection arm (their dominance constrains every arm), or the
    head of a prioritization (later stages only fire once the head ties).
    """
    if pref is base:
        return True
    if isinstance(pref, SubsetPreference):
        return _improves_under(pref.base, base)
    if isinstance(pref, (ParetoPreference, IntersectionPreference)):
        return any(_improves_under(child, base) for child in pref.children)
    if isinstance(pref, PrioritizedPreference):
        return _improves_under(pref.children[0], base)
    return False


def quality_rigid(condition: QualityCondition, pref: Preference) -> bool:
    """Is a BUT ONLY condition rigid, i.e. pushable below the winnow?

    True when the condition upper-bounds a quality measure (level and
    distance both improve downward), its measure-bearing base preference
    is unambiguous, and that base sits in certified position
    (:func:`_improves_under`) — then dominance can only improve the
    measure, so the filtered-out rows could never have dominated a
    survivor and ``σ_q(ω_P(R)) = ω_P(σ_q(R))``.
    """
    if condition.op not in ("<", "<="):
        return False
    from repro.core.base_nonnumerical import ExplicitPreference

    bases = base_preferences_by_attribute(pref).get(condition.attribute, [])
    if condition.kind == "level":
        # The candidate set must mirror what level_of() resolves against —
        # LayeredPreference *or* ExplicitPreference — so certifying "the"
        # base and measuring it can never diverge.  Certification then
        # additionally demands the single base be layered: layered
        # dominance is exactly "strictly smaller level", while EXPLICIT
        # levels are display labels, not proven monotone along every
        # closure edge.
        matching = [
            b for b in bases
            if isinstance(b, (LayeredPreference, ExplicitPreference))
        ]
        if len(matching) != 1 or not isinstance(matching[0], LayeredPreference):
            return False
    else:
        matching = [b for b in bases if isinstance(b, BetweenPreference)]
        if len(matching) != 1:
            return False
    return _improves_under(pref, matching[0])


# -- constant propagation from equality selections ----------------------------------


def fixed_attributes(condition: Any) -> frozenset[str]:
    """Attributes an AST condition pins to a single constant value."""
    from repro.psql.ast import BoolOp, Comparison

    if isinstance(condition, Comparison) and condition.op == "=":
        return frozenset((condition.attribute,))
    if isinstance(condition, BoolOp) and condition.op == "AND":
        out: frozenset[str] = frozenset()
        for part in condition.operands:
            out |= fixed_attributes(part)
        return out
    return frozenset()


def prune_constant(
    pref: Preference, fixed: frozenset[str]
) -> Preference | None:
    """Drop preference components over attributes fixed by equalities.

    On an input where every row agrees on ``fixed``, such components are
    indifferent (all projections equal): Pareto arms contribute neither
    strictness nor vetoes, prioritization stages always tie.  Returns the
    pruned (equivalent-on-that-input) term, or ``None`` when the whole
    term is constant and the winnow is the identity.
    """
    if not fixed or not (pref.attribute_set & fixed):
        return pref
    if pref.attribute_set <= fixed:
        return None
    if isinstance(pref, (ParetoPreference, PrioritizedPreference)):
        kept = []
        changed = False
        for child in pref.children:
            pruned = prune_constant(child, fixed)
            if pruned is None:
                changed = True
                continue
            if pruned is not child:
                changed = True
            kept.append(pruned)
        if not changed:
            return pref
        if not kept:
            return None
        if len(kept) == 1:
            return kept[0]
        return type(pref)(tuple(kept))
    if isinstance(pref, DualPreference):
        pruned = prune_constant(pref.base, fixed)
        if pruned is None:
            return None
        return pref if pruned is pref.base else DualPreference(pruned)
    # Other constructors (scores, sums, unions) entangle their attributes;
    # partial pruning there is not obviously sound, so leave them alone.
    return pref


# -- the plan rules -----------------------------------------------------------------


@dataclass
class RewriteContext:
    """Planner facts the rules may consult, plus trace bookkeeping."""

    forced_algorithm: Any = None
    #: Integrity constraints proved for the planned relation (a
    #: :class:`repro.analysis.constraints.ConstraintSet`: declared schema
    #: constraints plus statistics-derived keys/constants/bounds).  The
    #: semantic rules (winnow_to_sort, remove_redundant_winnow) only fire
    #: when this is populated.
    constraints: Any = None
    noted: set = field(default_factory=set)


def _head(node: PlanNode) -> str:
    """The node's own explain line (no children) — trace vocabulary."""
    return node.lines()[0].strip()


def _replace(node: Any, **changes: Any) -> Any:
    """`dataclasses.replace` behind an Any seam: every plan node is a
    dataclass, but callers hold them as PlanNode."""
    return dataclasses.replace(node, **changes)


def _quality_predicate(
    pref: Preference, condition: QualityCondition
) -> Callable[[Row], bool]:
    def matches(row: Row) -> bool:
        return condition.matches(pref, row)

    return matches


def _winnow_pref(node: PlanNode) -> Preference:
    """The preference a winnow node evaluates (stage composition for
    cascades — Proposition 11 makes the cascade equal to the original
    prioritization, so rigidity w.r.t. the composition is what counts)."""
    if isinstance(node, Cascade):
        prefs = tuple(pref for pref, _ in node.stages)
        return prefs[0] if len(prefs) == 1 else PrioritizedPreference(prefs)
    return node.pref


def _rule_push_select(
    node: PlanNode, ctx: RewriteContext
) -> tuple[PlanNode, str, str] | None:
    """σ over ω -> ω over σ for rigid WHERE conjuncts."""
    if not isinstance(node, HardSelect):
        return None
    winnow = node.child
    if not isinstance(winnow, _WINNOWS):
        return None
    # The builder only lifts conjuncts it certified rigid, but rewrite_plan
    # is callable on any tree — re-verify against this winnow's own term so
    # an unsound σ/ω swap degrades into a skipped optimization instead.
    if node.ast is None or not is_rigid(node.ast, _winnow_pref(winnow)):
        return None
    pushed_select = HardSelect(winnow.child, node.predicate, node.label, node.ast)
    pushed = _replace(winnow, child=pushed_select)
    return (
        pushed,
        f"{_head(node)} over {_head(winnow)}",
        f"{_head(winnow)} over {_head(node)}",
    )


def _rule_push_into_storage(
    node: PlanNode, ctx: RewriteContext
) -> tuple[PlanNode, str, str] | None:
    """σ directly over a storage scan runs as SQL inside the backend.

    This is the second leg of the paper's plug-and-go story: conjuncts
    that ``push_select_below_winnow`` proved rigid land on top of the
    :class:`StorageScan` leaf, and this rule absorbs them — one at a
    time, innermost first — into the backend's parameterized prefilter,
    provided the conjunct stays inside the SQL/Python-equivalent
    fragment (:func:`repro.storage.pushdown.pushable_where`).
    """
    if not isinstance(node, HardSelect):
        return None
    scan = node.child
    if not isinstance(scan, StorageScan) or scan.backend is None:
        return None
    if node.ast is None:
        return None
    from repro.storage.pushdown import pushable_where

    if not pushable_where(node.ast, scan.relation.schema):
        return None
    try:
        absorbed = scan.absorb((node.predicate, node.label, node.ast))
    except Exception:
        return None  # mirror vanished between planning and rewriting
    return (
        absorbed,
        f"{_head(node)} over {_head(scan)}",
        f"storage prefilter [{node.label}]",
    )


def _rule_mask_under_kernel(
    node: PlanNode, ctx: RewriteContext
) -> tuple[PlanNode, str, str] | None:
    """A code-kernel winnow reads its selections from the snapshot.

    Over a chain of :class:`HardSelect` nodes on a :class:`Scan`,
    :class:`ColumnarPreferenceSelect` runs the conjuncts as NumPy masks
    over the snapshot's cached columns and the kernel on the snapshot's
    cached codes at the index they leave; a storage prefilter instead
    returns fresh rows that the kernel encodes again, which measured
    1.4-1.5x slower (docs/performance.md, "WHERE as an index").  So when
    every conjunct ``push_select_into_storage`` would absorb is a mask
    there, the winnow's :class:`StorageScan` leaf becomes the
    :class:`Scan` of the same snapshot.  Below the NumPy leg's size,
    without NumPy, or for a conjunct no mask covers, the leaf stays.
    """
    if not isinstance(node, ColumnarPreferenceSelect):
        return None
    chain: list[HardSelect] = []
    leaf = node.child
    while isinstance(leaf, HardSelect):
        chain.append(leaf)
        leaf = leaf.child
    if not isinstance(leaf, StorageScan) or leaf.conjuncts:
        return None
    from repro.engine.columnar import masks_every
    from repro.storage.pushdown import pushable_where

    absorbable = []
    for select in reversed(chain):  # innermost first, as storage absorbs
        if select.ast is None or not pushable_where(
            select.ast, leaf.relation.schema
        ):
            break
        absorbable.append(select.ast)
    if not absorbable or not masks_every(leaf.relation, absorbable):
        return None
    scan = Scan(leaf.relation)
    inner: PlanNode = scan
    for select in reversed(chain):
        inner = _replace(select, child=inner)
    return _replace(node, child=inner), _head(leaf), _head(scan)


def _quality_ast(pref: Preference, condition: QualityCondition) -> Any:
    """A hard-expression *superset* of a rigid DISTANCE bound, or None.

    ``DISTANCE(A) <= d`` under the single certified ``BETWEEN(A, [low,
    up])`` base holds for ``low - d <= A <= up + d`` in exact arithmetic,
    so a ``HardBetween`` AST can prefilter it — as a mask under the code
    kernel, or inside ``push_select_into_storage``'s SQL.  In floats the
    two differ: for ``A = 0.30000000000000004`` under ``AROUND(A, 0.1)``
    the distance ``0.20000000000000004`` exceeds ``d = 0.2``, yet ``A <=
    0.1 + 0.2``, and a float value rounds even under integer bounds.  So
    the interval is widened outward by a margin that covers every
    rounding of the distance and of the bounds, and the exact condition
    re-checks what passes it
    (:func:`_rule_push_quality`).  Only inclusive bounds over plain
    finite numbers translate (HardBetween is inclusive; negative, NaN
    or infinite bounds have no interval form); everything else gets no
    prefilter, and its exact condition alone runs below the winnow.
    """
    if condition.kind != "distance" or condition.op != "<=":
        return None
    bases = base_preferences_by_attribute(pref).get(condition.attribute, [])
    matching = [b for b in bases if isinstance(b, BetweenPreference)]
    if len(matching) != 1:
        return None
    base = matching[0]
    bound = condition.bound
    values = (base.low, base.up, bound)
    # abs(v) < 1e300 is False for NaN and ±inf, and keeps the margin
    # below finite in float arithmetic even for huge ints.
    if not all(isinstance(v, (int, float)) and abs(v) < 1e300 for v in values):
        return None
    if isinstance(bound, bool) or bound < 0:
        return None
    from repro.psql.ast import HardBetween

    # Floats round each distance and each bound by at most half an ulp of
    # a magnitude below |low| + |up| + d; 2**-50 of it is eight times
    # that.  (One ulp of the bound alone is not enough: below a negative
    # ``up`` the bound's ulp is the smaller one.)
    slack = (abs(base.low) + abs(base.up) + bound) * 2.0**-50
    low = math.nextafter(base.low - bound - slack, -math.inf)
    up = math.nextafter(base.up + bound + slack, math.inf)
    return HardBetween(condition.attribute, low, up)


def _rule_push_quality(
    node: PlanNode, ctx: RewriteContext
) -> tuple[PlanNode, str, str] | None:
    """BUT ONLY conditions that improve under dominance become prefilters."""
    if not isinstance(node, ButOnly):
        return None
    winnow = node.child
    if not isinstance(winnow, (PreferenceSelect, ColumnarPreferenceSelect, Cascade)):
        return None
    pushable = [c for c in node.conditions if quality_rigid(c, node.pref)]
    if not pushable:
        return None
    rest = tuple(c for c in node.conditions if c not in pushable)
    from repro.psql.translate import render_where, translate_where

    inner: PlanNode = winnow.child
    for condition in pushable:
        # The interval is a sound superset of the condition (mask or SQL
        # prefilter); the exact condition above it re-checks survivors.
        prefilter = _quality_ast(node.pref, condition)
        if prefilter is not None:
            inner = HardSelect(
                inner,
                translate_where(prefilter),
                label=render_where(prefilter),
                ast=prefilter,
            )
        inner = HardSelect(
            inner,
            _quality_predicate(node.pref, condition),
            label=f"BUT ONLY {condition}",
        )
    new_winnow = _replace(winnow, child=inner)
    new_node: PlanNode = (
        _replace(node, child=new_winnow, conditions=rest) if rest else new_winnow
    )
    labels = " AND ".join(str(c) for c in pushable)
    return (
        new_node,
        f"ButOnly[{labels}] over {_head(winnow)}",
        f"{_head(winnow)} over HardSelect[BUT ONLY {labels}]",
    )


def _rule_prune_constant(
    node: PlanNode, ctx: RewriteContext
) -> tuple[PlanNode, str, str] | None:
    """Drop preference components constant on the winnow's filtered input."""
    if ctx.forced_algorithm is not None:
        return None  # a forced engine may not accept the pruned term
    if not isinstance(node, (PreferenceSelect, ColumnarPreferenceSelect)):
        return None
    fixed = _fixed_below(node)
    if not fixed:
        return None
    pruned = prune_constant(node.pref, fixed)
    if pruned is None:
        return (
            node.child,
            _head(node),
            f"(identity: preference constant over {sorted(fixed)})",
        )
    if pruned.signature == node.pref.signature:
        return None
    from repro.query.optimizer import winnow_node

    # The planner's own decision, re-made for the pruned term.
    new_node = winnow_node(node.child, pruned)
    return new_node, _head(node), _head(new_node)


def cascade_stages(
    pref: Preference,
) -> tuple[tuple[Preference, str], ...] | None:
    """Split ``P1 & ... & Pn`` into Proposition-11 cascade stages.

    Every stage except the last must be a (statically known) chain; the
    remaining suffix becomes one final stage.  Returns None when the head
    is not a chain (no cascade advantage).  Each stage's evaluator is
    the planner's :func:`~repro.query.optimizer.choose_algorithm`.
    """
    from repro.query.optimizer import choose_algorithm

    if not isinstance(pref, PrioritizedPreference):
        return None
    children = list(pref.children)
    stages: list[tuple[Preference, str]] = []
    while len(children) > 1 and children[0].is_chain() is True:
        head = children.pop(0)
        stages.append((head, choose_algorithm(head)))
    if not stages:
        return None
    rest: Preference
    rest = children[0] if len(children) == 1 else PrioritizedPreference(tuple(children))
    stages.append((rest, choose_algorithm(rest)))
    return tuple(stages)


def _rule_split_prio(
    node: PlanNode, ctx: RewriteContext
) -> tuple[PlanNode, str, str] | None:
    """Prioritization with chain head -> winnow cascade (Proposition 11)."""
    if ctx.forced_algorithm is not None:
        return None
    if not isinstance(node, PreferenceSelect):
        return None
    stages = cascade_stages(node.pref)
    if stages is None:
        return None
    cascade = Cascade(node.child, stages)
    return cascade, _head(node), _head(cascade)


def _rule_decompose_pareto(
    node: PlanNode, ctx: RewriteContext
) -> tuple[PlanNode, str, str] | None:
    """Record Pareto arms decomposed into composite skyline axes.

    The capability lives in the code engine (``columnar_axes`` accepts a
    prioritization of disjoint chains as one lexicographic axis per arm);
    this rule surfaces in the trace *that* a plan's Pareto runs on the
    code kernels only because its compound arms decomposed.  The node is
    already targeted correctly by the builder, so the rewrite is a
    certification, not a structural change.
    """
    if not isinstance(node, ColumnarPreferenceSelect):
        return None
    pref = node.pref
    if not isinstance(pref, ParetoPreference):
        return None
    composite = [c for c in pref.children if len(c.attributes) > 1]
    if not composite:
        return None
    from repro.engine.columnar import columnar_axes

    if columnar_axes(pref) is None:
        return None
    arms = ", ".join(repr(c) for c in composite)
    return (
        node,
        f"PreferenceSelect[{pref!r}]",
        f"vector skyline with composite axes for {arms}",
    )


def _input_bound(node: PlanNode) -> float:
    """A static upper bound on the rows a subtree can produce."""
    if isinstance(node, Scan):
        return len(node.relation)
    if isinstance(node, StorageScan):
        # Prefilters only shrink: the snapshot size bounds the output.
        return len(node.relation)
    if isinstance(node, HardSelect):
        return _input_bound(node.child)
    return float("inf")


def _rule_drop_trivial(
    node: PlanNode, ctx: RewriteContext
) -> tuple[PlanNode, str, str] | None:
    """Winnows that cannot discard anything are the identity."""
    if not isinstance(node, _WINNOWS):
        return None
    anti = not isinstance(node, Cascade) and isinstance(node.pref, AntiChain)
    if anti:
        reason = "preference is an anti-chain (ranks nothing)"
    else:
        bound = _input_bound(node.child)
        if bound > 1:
            return None
        reason = f"input has at most {int(bound)} row(s)"
    return node.child, _head(node), f"(identity: {reason})"


def _fixed_below(node: PlanNode) -> frozenset[str]:
    """Attributes pinned to constants by equality selections below a winnow."""
    fixed: frozenset[str] = frozenset()
    below = node.child
    while isinstance(below, HardSelect):
        if below.ast is not None:
            fixed |= fixed_attributes(below.ast)
        below = below.child
    if isinstance(below, StorageScan):
        for _, _, ast in below.conjuncts:
            fixed |= fixed_attributes(ast)
    return fixed


def _rule_remove_redundant(
    node: PlanNode, ctx: RewriteContext
) -> tuple[PlanNode, str, str] | None:
    """Constraint-proved identity winnows disappear (Chomicki cs/0402003).

    Both proofs are hereditary under selection (keys, constants and
    bounds survive on any row subset), so firing below WHERE stacks is
    sound.
    """
    if ctx.forced_algorithm is not None:
        return None
    constraints = ctx.constraints
    if not constraints:
        return None
    if not isinstance(node, _WINNOWS):
        return None
    from repro.analysis.semantics import semantic_prune

    pref = _winnow_pref(node)
    pruned, notes = semantic_prune(pref, constraints)
    if pruned is None:
        return (
            node.child,
            _head(node),
            f"(identity: preference indifferent; {'; '.join(notes)})",
        )
    fixed = _fixed_below(node)
    if fixed:
        key = constraints.key_within(fixed)
        if key is not None:
            return (
                node.child,
                _head(node),
                f"(identity: equality on {key.describe()} [{key.source}] "
                "bounds the input to one tuple)",
            )
    return None


def _rule_winnow_to_sort(
    node: PlanNode, ctx: RewriteContext
) -> tuple[PlanNode, str, str] | None:
    """Weak order under constraints ⇒ ORDER BY + first group."""
    if ctx.forced_algorithm is not None:
        return None
    constraints = ctx.constraints
    if not constraints:
        return None
    if not isinstance(node, (PreferenceSelect, ColumnarPreferenceSelect)):
        return None
    from repro.analysis.semantics import weak_order_reduction

    reduction = weak_order_reduction(node.pref, constraints)
    if reduction is None or not (reduction.changed or reduction.singleton):
        return None
    provenance = "; ".join(reduction.provenance)
    if not reduction.changed:
        if ("winnow_to_sort", _head(node)) in ctx.noted:
            return None  # its rebuild's trace entry already names the proof
        # The planner's algorithm for a weak order is already sort-based;
        # certify (trace-only) that a key makes its first group one tuple.
        return (
            node,
            _head(node),
            f"sorted one-pass evaluation, best-matches set is a single "
            f"tuple ({provenance})",
        )
    from repro.query.optimizer import winnow_node

    new_node = winnow_node(node.child, reduction.pref)
    ctx.noted.add(("winnow_to_sort", _head(new_node)))
    return (
        new_node,
        _head(node),
        f"{_head(new_node)} (constraint: {provenance})",
    )


#: Rule order: selections move first, terms specialize, trivial winnows
#: evaporate (cheap structural identities keep their traditional trace
#: names), then the semantic (constraint-driven) rules fire, then chains
#: cascade.  The driver runs the list to fixpoint either way.
PLAN_RULES: tuple[tuple[str, Callable[..., Any]], ...] = (
    ("push_select_below_winnow", _rule_push_select),
    ("push_select_below_winnow", _rule_push_quality),
    ("push_select_into_storage", _rule_push_into_storage),
    ("prune_constant_pref", _rule_prune_constant),
    ("drop_trivial_winnow", _rule_drop_trivial),
    ("remove_redundant_winnow", _rule_remove_redundant),
    # winnow_to_sort must see prioritizations whole (its key-in-chain-head
    # proof discharges *all* later stages at once), so it runs before
    # split_prio gets a chance to cascade them.
    ("winnow_to_sort", _rule_winnow_to_sort),
    ("split_prio", _rule_split_prio),
    ("decompose_pareto", _rule_decompose_pareto),
    # Last: it picks a code kernel's leaf, so every rule that could still
    # turn the winnow into another evaluator has had its chance first.
    ("mask_select_under_kernel", _rule_mask_under_kernel),
)

_MAX_PASSES = 32


def rewrite_plan(
    root: PlanNode, ctx: RewriteContext | None = None
) -> tuple[PlanNode, list[RewriteStep]]:
    """Apply the plan rules to fixpoint; return the new root and trace."""
    if ctx is None:
        ctx = RewriteContext()
    trace: list[RewriteStep] = []
    for _ in range(_MAX_PASSES):
        root, changed = _rewrite_node(root, ctx, trace)
        if not changed:
            break
    return root, trace


def _rewrite_node(
    node: PlanNode, ctx: RewriteContext, trace: list[RewriteStep]
) -> tuple[PlanNode, bool]:
    changed = False
    progress = True
    while progress:
        progress = False
        for name, rule in PLAN_RULES:
            result = rule(node, ctx)
            if result is None:
                continue
            new_node, before, after = result
            if new_node is node:
                # Certification-only rule: record once, change nothing.
                key = (name, before, after)
                if key not in ctx.noted:
                    ctx.noted.add(key)
                    trace.append((name, before, after))
                continue
            trace.append((name, before, after))
            node = new_node
            progress = True
            changed = True
            break
    child = getattr(node, "child", None)
    if isinstance(child, PlanNode):
        new_child, child_changed = _rewrite_node(child, ctx, trace)
        if child_changed:
            node = _replace(node, child=new_child)
            changed = True
    return node, changed
