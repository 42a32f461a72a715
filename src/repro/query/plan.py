"""Query plans for preference queries.

Plans are small operator trees over the relational substrate; the optimizer
(:mod:`repro.query.optimizer`) builds them, ``execute()`` runs them, and
``explain()`` prints them — including which algebraic rewrite rules fired,
so users can see the paper's laws at work on their own queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.preference import Preference, Row
from repro.query.bmo import winnow, winnow_groupby
from repro.query.quality import QualityCondition, but_only
from repro.query.topk import k_best
from repro.relations.relation import Relation

def _algorithm_label(algorithm: Any) -> str:
    if callable(algorithm):
        return getattr(algorithm, "__name__", repr(algorithm))
    return str(algorithm)


def _decision_lines(reason: str | None, pad: str) -> list[str]:
    """Render a winnow node's evaluator decision for ``explain()``: one
    line, the planner's rationale (none when ``using()`` forced the
    evaluator or the decision never arose)."""
    return [] if reason is None else [f"{pad}  decision: {reason}"]


class PlanNode:
    """Base class for plan operators."""

    def execute(self) -> Relation:
        raise NotImplementedError

    def lines(self, indent: int = 0) -> list[str]:
        raise NotImplementedError

    def explain(self) -> str:
        return "\n".join(self.lines())


@dataclass(frozen=True)
class Scan(PlanNode):
    """Leaf: read a base relation."""

    relation: Relation

    def execute(self) -> Relation:
        return self.relation

    def lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        return [
            f"{pad}Scan[{self.relation.name}] "
            f"({len(self.relation)} rows)"
        ]


@dataclass(frozen=True)
class StorageScan(PlanNode):
    """Leaf: read a base relation through a SQL storage-backend mirror.

    Carries the rigid WHERE conjuncts the rewriter pushed into storage
    (``conjuncts`` — the same ``(predicate, label, ast)`` triples a
    :class:`HardSelect` would hold) plus the parameterized SQL they
    render to.  ``version`` is the catalog version the plan was built
    against: at execution time the backend only answers when its mirror
    still sits at that exact version, otherwise the node evaluates the
    conjuncts in Python over its own immutable relation snapshot — the
    result is bit-identical either way, the mirror is purely a fast
    path.
    """

    relation: Relation
    table: str
    backend: Any = None
    version: int = 0
    #: Absorbed conjuncts, in original WHERE order.
    conjuncts: tuple[tuple[Callable[[Row], bool], str, Any], ...] = ()
    #: The prefilter SQL (display form; execution re-renders per call).
    sql: str = ""
    params: tuple[Any, ...] = ()

    def absorb(
        self, conjunct: tuple[Callable[[Row], bool], str, Any]
    ) -> "StorageScan":
        """A new scan with one more pushed-down conjunct."""
        conjuncts = (*self.conjuncts, conjunct)
        sql, params = self.backend.render_prefilter(
            self.table, tuple(ast for _, _, ast in conjuncts)
        )
        return StorageScan(self.relation, self.table, self.backend,
                           self.version, conjuncts, sql, tuple(params))

    def execute(self) -> Relation:
        if not self.conjuncts:
            return self.relation
        rows = None
        if self.backend is not None:
            rows = self.backend.prefilter(
                self.table, tuple(ast for _, _, ast in self.conjuncts),
                self.version,
            )
        if rows is None:
            out = self.relation
            for predicate, _, _ in self.conjuncts:
                out = out.select(predicate)
            return out
        return Relation(self.relation.name, self.relation.schema, rows,
                        validate=False)

    def lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        backend = getattr(self.backend, "name", "?")
        out = [
            f"{pad}StorageScan[{self.relation.name}] backend={backend} "
            f"({len(self.relation)} rows @v{self.version})"
        ]
        if self.sql:
            out.append(f"{pad}  pushdown: {self.sql}")
            if self.params:
                out.append(f"{pad}  params: {list(self.params)!r}")
        return out


@dataclass(frozen=True)
class HardSelect(PlanNode):
    """Exact-match selection — the hard constraints of the WHERE clause.

    Applied *before* the preference operator ("push preference" in reverse:
    hard constraints shrink the input the soft constraints must rank).
    """

    child: PlanNode
    predicate: Callable[[Row], bool]
    label: str = "<predicate>"
    #: Preference SQL AST provenance (a :class:`repro.psql.ast.HardExpr`),
    #: when known.  The rewrite engine's rigidity / constant-propagation
    #: analyses are syntactic, so bare callables (ast=None) are opaque to
    #: them and simply stay where the builder put them.
    ast: Any = None

    def execute(self) -> Relation:
        return self.child.execute().select(self.predicate)

    def lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        return [f"{pad}HardSelect[{self.label}]", *self.child.lines(indent + 1)]


@dataclass(frozen=True)
class PreferenceSelect(PlanNode):
    """The BMO operator ``sigma[P](...)`` with a chosen algorithm."""

    child: PlanNode
    pref: Preference
    algorithm: Any = "bnl"
    #: Why the planner chose this evaluator
    #: (:func:`~repro.query.optimizer.row_reason`), when it made the
    #: decision; explain() prints it.
    reason: str | None = None

    def execute(self) -> Relation:
        return winnow(self.pref, self.child.execute(), algorithm=self.algorithm)

    def lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        return [
            f"{pad}PreferenceSelect[{self.pref!r}] "
            f"algorithm={_algorithm_label(self.algorithm)}",
            *_decision_lines(self.reason, pad),
            *self.child.lines(indent + 1),
        ]


@dataclass(frozen=True)
class ColumnarPreferenceSelect(PlanNode):
    """``sigma[P](...)`` on the columnar backend (:mod:`repro.engine`).

    Chosen by the planner for every winnow whose term lowers to integer
    code axes (a Pareto over chains and weak orders):
    dominance is evaluated over integer-encoded column vectors — on the
    engine's NumPy leg or its interpreted leg, which the engine picks per
    winnow — instead of per-row-pair ``pref._lt`` calls.  Results are
    identical to the row engine's.

    Over a chain of :class:`HardSelect` nodes on a :class:`Scan`, the
    kernel runs on ``(snapshot, index)``: the conjuncts become an index of
    the snapshot's rows (:func:`repro.engine.columnar.select_index`, NumPy
    masks over its cached columns where they apply), the kernel gathers
    the snapshot's cached codes there, and only the survivors become rows.
    Every other selection keeps its row closure: a bare WHERE, the
    ``sort`` argmax, the row winnows and ``ButOnly``.  Masking those too
    moved the ``wide`` workload's load generator past the busy share at
    which ``bench/run.py`` refuses a run (the generator is bound by JSON
    decoding; docs/performance.md, "WHERE as an index").
    """

    child: PlanNode
    pref: Preference
    strategy: str = "sfs"
    #: Why the planner chose the code kernels; explain() prints it.
    reason: str | None = None

    def execute(self) -> Relation:
        from repro.engine.columnar import columnar_winnow, select_index

        conjuncts = []
        node = self.child
        while isinstance(node, HardSelect):
            conjuncts.append((node.predicate, node.ast))
            node = node.child
        if not isinstance(node, Scan):
            return columnar_winnow(
                self.pref, self.child.execute(), self.strategy
            )
        index = select_index(node.relation, conjuncts[::-1])
        return columnar_winnow(
            self.pref, node.relation, self.strategy, index=index
        )

    def lines(self, indent: int = 0) -> list[str]:
        from repro.engine.backend import backend_label

        pad = "  " * indent
        return [
            f"{pad}ColumnarPreferenceSelect[{self.pref!r}] "
            f"backend=columnar kernel=v{self.strategy}({backend_label()})",
            *_decision_lines(self.reason, pad),
            *self.child.lines(indent + 1),
        ]


@dataclass(frozen=True)
class GroupedPreferenceSelect(PlanNode):
    """``sigma[P groupby A](...)`` (Definition 16)."""

    child: PlanNode
    pref: Preference
    by: tuple[str, ...]
    algorithm: Any = "bnl"

    def execute(self) -> Relation:
        return winnow_groupby(
            self.pref, self.by, self.child.execute(), algorithm=self.algorithm
        )

    def lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        return [
            f"{pad}GroupedPreferenceSelect[{self.pref!r} groupby "
            f"{list(self.by)}] algorithm={_algorithm_label(self.algorithm)}",
            *self.child.lines(indent + 1),
        ]


@dataclass(frozen=True)
class Cascade(PlanNode):
    """A cascade of preference selections (Proposition 11).

    ``sigma[Pn](... sigma[P1](R))`` — valid because every stage but the
    last is a chain, so its survivors agree on the stage's attributes.
    """

    child: PlanNode
    stages: tuple[tuple[Preference, str], ...]  # (preference, algorithm)

    def execute(self) -> Relation:
        current = self.child.execute()
        for pref, algorithm in self.stages:
            current = winnow(pref, current, algorithm=algorithm)
        return current

    def lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        out = [f"{pad}Cascade[{len(self.stages)} stages]  (Proposition 11)"]
        for i, (pref, algorithm) in enumerate(self.stages, start=1):
            out.append(
                f"{pad}  stage {i}: {pref!r} "
                f"algorithm={_algorithm_label(algorithm)}"
            )
        out.extend(self.child.lines(indent + 1))
        return out


@dataclass(frozen=True)
class TopK(PlanNode):
    """k-best retrieval for SCORE / rank(F) preferences (Section 6.2)."""

    child: PlanNode
    pref: Preference
    k: int
    ties: str = "strict"

    def execute(self) -> Relation:
        return k_best(self.pref, self.child.execute(), self.k, ties=self.ties)

    def lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        return [
            f"{pad}TopK[k={self.k}, ties={self.ties}, {self.pref!r}]",
            *self.child.lines(indent + 1),
        ]


@dataclass(frozen=True)
class ButOnly(PlanNode):
    """Quality supervision of a BMO result (the BUT ONLY clause)."""

    child: PlanNode
    pref: Preference
    conditions: tuple[QualityCondition, ...]

    def execute(self) -> Relation:
        return but_only(self.pref, self.child.execute(), self.conditions)

    def lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        conds = " AND ".join(str(c) for c in self.conditions)
        return [f"{pad}ButOnly[{conds}]", *self.child.lines(indent + 1)]


@dataclass(frozen=True)
class OrderBy(PlanNode):
    """Presentation ordering (the ORDER BY clause).

    Orthogonal to preference semantics: BMO decides *which* tuples survive,
    ORDER BY only arranges them for display.
    """

    child: PlanNode
    keys: tuple[tuple[str, bool], ...]  # (attribute, descending)

    def execute(self) -> Relation:
        out = self.child.execute()
        # Stable sorts compose right-to-left: apply minor keys first.
        for attribute, descending in reversed(self.keys):
            out = out.order_by([attribute], descending=descending)
        return out

    def lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        keys = ", ".join(
            f"{a} {'DESC' if d else 'ASC'}" for a, d in self.keys
        )
        return [f"{pad}OrderBy[{keys}]", *self.child.lines(indent + 1)]


@dataclass(frozen=True)
class Project(PlanNode):
    """Column projection (the SELECT list)."""

    child: PlanNode
    attributes: tuple[str, ...]

    def execute(self) -> Relation:
        return self.child.execute().project(self.attributes)

    def lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        return [
            f"{pad}Project[{', '.join(self.attributes)}]",
            *self.child.lines(indent + 1),
        ]


@dataclass(frozen=True)
class Limit(PlanNode):
    child: PlanNode
    k: int

    def execute(self) -> Relation:
        return self.child.execute().limit(self.k)

    def lines(self, indent: int = 0) -> list[str]:
        pad = "  " * indent
        return [f"{pad}Limit[{self.k}]", *self.child.lines(indent + 1)]


@dataclass(frozen=True)
class Plan:
    """A rooted plan plus optimizer provenance.

    ``rewrites`` records every term-level algebra law *and* plan-level
    rewrite rule that fired while planning, in application order, as
    ``(rule, before, after)`` triples.  ``explain()`` renders them twice:
    a compact ``rewrites: [rule, ...]`` summary line (deduplicated, in
    first-fired order) and the full per-step trace.
    """

    root: PlanNode
    rewrites: tuple[tuple[str, str, str], ...] = ()

    def execute(self) -> Relation:
        return self.root.execute()

    def rewrite_rules(self) -> tuple[str, ...]:
        """The distinct rewrite-rule names that fired, in first-fired order."""
        return tuple(dict.fromkeys(rule for rule, _, _ in self.rewrites))

    def explain(self) -> str:
        out = [self.root.explain()]
        if self.rewrites:
            out.append(f"rewrites: [{', '.join(self.rewrite_rules())}]")
            out.append("rewrites applied:")
            for rule, before, after in self.rewrites:
                out.append(f"  {rule}: {before}  ->  {after}")
        return "\n".join(out)
