"""The fluent preference query API — one entry point over the whole engine.

:class:`PreferenceQuery` is a chainable, lazily-evaluated builder over the
paper's declarative model: hard ``where`` filters, a ``prefer`` term
evaluated under BMO (with optional ``cascade`` stages, ``groupby``
partitioning, ``but_only`` quality supervision and ``top``-k ranking), plus
presentation clauses (``order_by``, ``select``, ``limit``).  Nothing runs
until a terminal is called:

* :meth:`~PreferenceQuery.run` — plan and execute, returning a relation
  (or a plain row list when built over one),
* :meth:`~PreferenceQuery.explain` — the plan text: operators, chosen
  algorithms, and the algebra laws that fired,
* :meth:`~PreferenceQuery.to_sql` — the plug-and-go SQL92 rewriting,
* :meth:`~PreferenceQuery.iter` — iterate result rows.

The evaluator is a planner concern, not a semantic one: the planner
(:func:`repro.query.optimizer.choose_algorithm`) runs each winnow on the
row engine or — for terms that lower to integer code axes — on the code
kernels (:mod:`repro.engine`), with identical results either way.
:meth:`~PreferenceQuery.using` is the one override.

All terminals funnel through one planning pipeline
(:func:`repro.query.optimizer.plan` -> :class:`repro.query.plan.Plan`), the
same path the Preference SQL executor and the Preference XPath evaluator
take — every front end shares one seam.

Builders are immutable: each clause method returns a new query, so prefixes
can be shared and reused freely::

    from repro import Session, pareto, AROUND, POS

    s = Session({"car": rows})
    q = s.query("car").where(make="Opel")
    best = q.prefer(pareto(POS("color", {"red"}), AROUND("price", 40000)))
    print(best.explain())
    for row in best.top(3).run():
        ...

Queries bound to a :class:`~repro.session.Session` memoize their plans in
the session's plan cache, keyed on (query fingerprint, relation name,
relation version) — repeated queries skip planning until the catalog entry
changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence, TYPE_CHECKING

from repro.core.constructors import PrioritizedPreference
from repro.core.preference import Preference, Row
from repro.query import optimizer as _optimizer
from repro.query.plan import Plan
from repro.query.quality import QualityCondition
from repro.relations.relation import Relation
from repro.relations.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.session import Session


#: ``where()`` keyword operator suffixes: ``price__le=4`` -> ``price <= 4``.
_WHERE_OPS = {
    "eq": "=",
    "ne": "<>",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
}


@dataclass(frozen=True)
class WhereSpec:
    """One hard filter: a predicate plus optional SQL AST provenance.

    The AST (a :class:`repro.psql.ast.HardExpr`) is kept when known so the
    query stays SQL-translatable and hashable for plan caching; a bare
    callable is fingerprinted by identity instead.
    """

    predicate: Callable[[Row], bool]
    label: str = "<predicate>"
    ast: Any = None

    @property
    def cache_key(self) -> Any:
        return self.ast if self.ast is not None else self.predicate


class PreferenceQuery:
    """A lazily-planned preference query over one relation."""

    __slots__ = (
        "_session", "_source", "_pref", "_cascades", "_wheres", "_groupby",
        "_quality", "_top", "_top_ties", "_select", "_order_by", "_limit",
        "_algorithm", "_use_rewriter", "_sql_ast",
        "_revised_from",
    )

    def __init__(
        self,
        source: Any,
        session: "Session | None" = None,
    ):
        self._session = session
        self._source = source  # ("catalog", name) | ("relation", Relation) | ("rows", tuple)
        self._pref: Preference | None = None
        self._cascades: tuple[Preference, ...] = ()
        self._wheres: tuple[WhereSpec, ...] = ()
        self._groupby: tuple[str, ...] = ()
        self._quality: tuple[QualityCondition, ...] = ()
        self._top: int | None = None
        self._top_ties: str = "strict"
        self._select: tuple[str, ...] | None = None
        self._order_by: tuple[tuple[str, bool], ...] = ()
        self._limit: int | None = None
        self._algorithm: Any = None
        self._use_rewriter: bool = True
        self._sql_ast: Any = None  # original psql ast.Query, when parsed
        self._revised_from: Preference | None = None  # pre-revision term

    # -- construction -----------------------------------------------------------

    @classmethod
    def over(
        cls, data: Relation | Sequence[Mapping[str, Any]]
    ) -> "PreferenceQuery":
        """A query over a relation or a plain list of dict rows.

        Row-list queries return row lists from :meth:`run`, mirroring the
        shape-preservation of the historical functional helpers.
        """
        if isinstance(data, Relation):
            return cls(("relation", data))
        return cls(("rows", tuple(dict(r) for r in data)))

    #: (slot, ``_copy`` keyword) pairs — every clause method copies, so
    #: the name mangling is done once, not per slot per call.
    _COPY_FIELDS = tuple((slot, slot.lstrip("_")) for slot in __slots__)

    def _copy(self, **changes: Any) -> "PreferenceQuery":
        out = PreferenceQuery.__new__(PreferenceQuery)
        for slot, keyword in PreferenceQuery._COPY_FIELDS:
            setattr(
                out, slot,
                changes[keyword] if keyword in changes else getattr(self, slot),
            )
        return out

    # -- fail-fast validation ---------------------------------------------------

    def _resolved_schema(self) -> Any:
        """The source schema when statically resolvable, else ``None``.

        Row-list sources infer their schema from the preference term, so
        only catalog and Relation sources support builder-time checks.
        """
        kind, payload = self._source
        try:
            if kind == "catalog" and self._session is not None:
                return self._session.catalog.get(payload).schema
            if kind == "relation":
                return payload.schema
        except Exception:
            return None
        return None

    def _fail_fast(self, clause: str, code: str, attributes: Any) -> None:
        """Raise :class:`DiagnosticError` for unknown attributes, eagerly.

        Builder methods call this so a typo surfaces at the call site
        (with its ``PQxxx`` code) instead of deep inside plan execution.
        Silently skipped when the schema cannot be resolved yet.
        """
        schema = self._resolved_schema()
        if schema is None:
            return
        for attribute in attributes:
            if attribute not in schema:
                from repro.analysis.diagnostics import (
                    Diagnostic,
                    DiagnosticError,
                )

                raise DiagnosticError(Diagnostic(
                    code=code,
                    clause=clause,
                    attribute=attribute,
                    message=(
                        f"unknown attribute {attribute!r}; "
                        f"relation has {list(schema.names)}"
                    ),
                ))

    # -- chainable clauses ------------------------------------------------------

    def where(
        self,
        condition: Callable[[Row], bool] | Any | None = None,
        label: str | None = None,
        **equalities: Any,
    ) -> "PreferenceQuery":
        """Add a hard (exact-match) filter, applied *before* the winnow.

        Accepts a row predicate, a Preference SQL WHERE AST node, and/or
        attribute conditions as keyword arguments: ``where(make="Opel")``
        is an equality, and a ``__op`` suffix names a comparison —
        ``where(price__le=40000)`` means ``price <= 40000`` (``eq``,
        ``ne``, ``lt``, ``le``, ``gt``, ``ge``; only these six suffixes
        are reserved — any other keyword, double underscores included, is
        an equality on the attribute of that name, so a column literally
        named like ``score__le`` needs an explicit AST node).  Multiple
        ``where`` calls conjoin.

        Keyword and AST conditions carry syntactic provenance the plan
        rewriter can analyse — equality conjuncts feed constant pruning,
        and bound conjuncts rigid w.r.t. the preference are certified by
        the ``push_select_below_winnow`` rule; bare callables are opaque
        and always stay below the winnow.
        """
        specs = list(self._wheres)
        if condition is not None:
            if callable(condition):
                specs.append(
                    WhereSpec(condition, label or _callable_label(condition))
                )
            else:
                from repro.psql.ast import HardExpr
                from repro.psql.translate import render_where, translate_where

                if not isinstance(condition, HardExpr):
                    raise TypeError(
                        "where() takes a callable predicate, a psql WHERE "
                        f"AST node, or attribute keywords; got {condition!r}"
                    )
                specs.append(
                    WhereSpec(
                        translate_where(condition),
                        label or render_where(condition),
                        ast=condition,
                    )
                )
        for keyword, value in equalities.items():
            from repro.psql.ast import Comparison
            from repro.psql.translate import translate_where

            attribute, op = keyword, "="
            if "__" in keyword:
                head, _, suffix = keyword.rpartition("__")
                if suffix in _WHERE_OPS and head:
                    # Only the six known suffixes are reserved; any other
                    # keyword — including attribute names that contain a
                    # double underscore — stays a plain equality filter.
                    attribute, op = head, _WHERE_OPS[suffix]
            expr = Comparison(attribute, op, value)
            specs.append(
                WhereSpec(
                    translate_where(expr), f"{attribute} {op} {value!r}", ast=expr
                )
            )
        if len(specs) == len(self._wheres):
            raise TypeError("where() needs a condition or attribute keywords")
        from repro.analysis.checker import _where_attributes

        self._fail_fast("where", "PQ104", [
            attribute
            for spec in specs[len(self._wheres):]
            if spec.ast is not None
            for attribute, _ in _where_attributes(spec.ast)
        ])
        return self._copy(wheres=tuple(specs))

    def prefer(self, pref: Preference) -> "PreferenceQuery":
        """Set the soft preference term ``P`` of ``sigma[P](R)``.

        Calling ``prefer`` again replaces the term; use :meth:`cascade` to
        append lower-priority stages instead.
        """
        if not isinstance(pref, Preference):
            raise TypeError(f"prefer() needs a Preference, got {pref!r}")
        self._fail_fast("preferring", "PQ101", sorted(pref.attribute_set))
        return self._copy(pref=pref)

    def cascade(self, pref: Preference) -> "PreferenceQuery":
        """Append a lower-priority preference stage (SQL's CASCADE clause).

        ``q.prefer(p1).cascade(p2)`` evaluates ``p1 & p2`` (prioritized
        accumulation): among ``p1``'s best matches, prefer by ``p2``.
        """
        if not isinstance(pref, Preference):
            raise TypeError(f"cascade() needs a Preference, got {pref!r}")
        self._fail_fast("preferring", "PQ101", sorted(pref.attribute_set))
        return self._copy(cascades=(*self._cascades, pref))

    def personalize(self, pref: Preference | None) -> "PreferenceQuery":
        """Compose a per-user preference term *over* the query's own.

        Server-side personalization (the paper's P&O story): the user's
        profile term dominates and the submitted base term breaks ties —
        ``prio(user_pref, base_pref)``, Definition 9.  ``pref=None`` means
        "no profile": the query is returned as is.  Two users whose
        composed terms are algebraically equivalent share continuous views
        because :class:`~repro.server.views.ViewSpec` keys on the
        canonical form.
        """
        if pref is None:
            return self
        if not isinstance(pref, Preference):
            raise TypeError(
                f"personalize() needs a Preference or None, got {pref!r}"
            )
        self._fail_fast("preferring", "PQ101", sorted(pref.attribute_set))
        return self._copy(
            pref=compose_terms(pref, self.preference), cascades=()
        )

    def refine(self, pref: Preference) -> "PreferenceQuery":
        """Refine the preference by a lower-priority stage, tracking the
        delta.

        Semantically ``cascade(pref)`` — the combined term is the
        prioritized ``old & pref`` — but the query remembers the term it
        was revised from, so :attr:`revision` classifies the delta (a
        prioritized append is always an order refinement, Definition 9)
        and :meth:`explain` names the proving law.  This is the fluent
        face of the revision layer (:mod:`repro.query.revision`): the
        serving layer answers such deltas from the standing view instead
        of recomputing.
        """
        if not isinstance(pref, Preference):
            raise TypeError(f"refine() needs a Preference, got {pref!r}")
        self._fail_fast("preferring", "PQ101", sorted(pref.attribute_set))
        old = self.preference
        return self._copy(
            cascades=(*self._cascades, pref), revised_from=old
        )

    def revise(self, pref: Preference) -> "PreferenceQuery":
        """Replace the whole preference term, tracking the delta.

        Unlike :meth:`prefer` (a plain replacement) the query remembers
        the term it was revised from: :attr:`revision` classifies the
        delta — refinement, contraction, or incomparable — and
        :meth:`explain` reports the classification with its proving law
        and restart point.  Any cascade stages fold into the remembered
        old term and are cleared.
        """
        if not isinstance(pref, Preference):
            raise TypeError(f"revise() needs a Preference, got {pref!r}")
        self._fail_fast("preferring", "PQ101", sorted(pref.attribute_set))
        old = self.preference
        return self._copy(pref=pref, cascades=(), revised_from=old)

    @property
    def revision(self) -> Any:
        """The classified delta of the last :meth:`refine` / :meth:`revise`
        (a :class:`~repro.query.revision.Revision`), or ``None``.

        Catalog-bound queries classify under the relation's constraint
        registry, so an appended stage that is provably indifferent on
        the instance is recognized as a semantic no-op.
        """
        if self._revised_from is None or self.preference is None:
            return None
        from repro.query.revision import classify_revision

        constraints = None
        kind, payload = self._source
        if kind == "catalog" and self._session is not None:
            try:
                from repro.analysis.constraints import constraint_registry

                rel = self._session.catalog.get(payload)
                constraints = constraint_registry(
                    rel, self.preference.attributes
                )
            except Exception:
                constraints = None
        return classify_revision(
            self._revised_from, self.preference, constraints=constraints
        )

    def groupby(self, *attributes: str) -> "PreferenceQuery":
        """Evaluate the preference within each group (Definition 16)."""
        if not attributes:
            raise ValueError("groupby() needs at least one attribute")
        self._fail_fast("grouping", "PQ106", attributes)
        return self._copy(groupby=tuple(attributes))

    def but_only(
        self, *conditions: QualityCondition | tuple
    ) -> "PreferenceQuery":
        """Supervise required quality (the BUT ONLY clause, Section 6.1).

        Conditions are :class:`~repro.query.quality.QualityCondition`
        objects or ``(kind, attribute, op, bound)`` tuples, e.g.
        ``("distance", "price", "<=", 2000)``.
        """
        if not conditions:
            raise ValueError("but_only() needs at least one condition")
        cooked = tuple(
            c if isinstance(c, QualityCondition) else QualityCondition(*c)
            for c in conditions
        )
        self._fail_fast("but only", "PQ106", [c.attribute for c in cooked])
        return self._copy(quality=(*self._quality, *cooked))

    def top(self, k: int, ties: str = "strict") -> "PreferenceQuery":
        """Switch to ranked k-best semantics (Section 6.2) for SCORE terms."""
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if ties not in ("strict", "all"):
            raise ValueError(f"ties must be 'strict' or 'all', got {ties!r}")
        return self._copy(top=k, top_ties=ties)

    def select(self, *attributes: str) -> "PreferenceQuery":
        """Project the result onto ``attributes`` (the SELECT list)."""
        if not attributes:
            raise ValueError("select() needs at least one attribute")
        self._fail_fast("select", "PQ106", attributes)
        return self._copy(select=tuple(attributes))

    def order_by(
        self, *keys: str | tuple[str, bool], descending: bool = False
    ) -> "PreferenceQuery":
        """Presentation ordering; keys are names or (name, descending)."""
        if not keys:
            raise ValueError("order_by() needs at least one key")
        cooked = tuple(
            (k, descending) if isinstance(k, str) else (k[0], bool(k[1]))
            for k in keys
        )
        self._fail_fast("order by", "PQ106", [name for name, _ in cooked])
        return self._copy(order_by=(*self._order_by, *cooked))

    def limit(self, n: int) -> "PreferenceQuery":
        """Keep only the first ``n`` result rows (applied after ordering).

        A presentation clause like :meth:`order_by` — unlike :meth:`top`
        it does not change BMO semantics, it just truncates the output.
        """
        if n < 0:
            raise ValueError(f"limit must be non-negative, got {n}")
        return self._copy(limit=n)

    def using(self, algorithm: Any) -> "PreferenceQuery":
        """Force one evaluation engine (an ALGORITHMS name or a callable),
        bypassing automatic selection and cascade splitting.

        The code kernels are reachable here by name too (``"vsfs"``).
        Results are identical under every evaluator; :meth:`explain`
        shows the one the planner would pick, and why, on its
        ``decision:`` line.
        """
        return self._copy(algorithm=algorithm)

    def optimize(self, enabled: bool = True) -> "PreferenceQuery":
        """Toggle the algebraic rewriter (on by default)."""
        return self._copy(use_rewriter=bool(enabled))

    def _with_sql_ast(self, ast_query: Any) -> "PreferenceQuery":
        return self._copy(sql_ast=ast_query)

    # -- introspection ----------------------------------------------------------

    @property
    def preference(self) -> Preference | None:
        """The combined preference term (prefer + cascades), if any."""
        if self._pref is None:
            return None
        if not self._cascades:
            return self._pref
        return PrioritizedPreference((self._pref, *self._cascades))

    def fingerprint(self) -> tuple:
        """A hashable structural identity for plan caching and equality.

        Two queries with equal fingerprints (over the same relation
        version) plan and execute identically, regardless of the order
        their clauses were chained in.  The rewrite engine's
        :data:`~repro.query.rewrite.RULESET_VERSION` participates, so a
        session plan cache can never replay a plan whose rewrites an
        upgraded rule set would no longer produce.
        """
        from repro.query.rewrite import RULESET_VERSION

        pref = self._pref.signature if self._pref is not None else None
        return (
            "pq1",
            RULESET_VERSION,
            self._source_key(),
            pref,
            tuple(c.signature for c in self._cascades),
            tuple(w.cache_key for w in self._wheres),
            self._groupby,
            self._quality,
            self._top,
            self._top_ties,
            self._select,
            self._order_by,
            self._limit,
            self._algorithm,
            self._use_rewriter,
            self._storage_identity(),
        )

    def _storage_identity(self) -> str:
        """The session's storage-backend name (fingerprint component).

        Plans built against a SQL mirror hold StorageScan leaves bound to
        that backend; a cache shared across differently-backed sessions
        must never replay one for the other.
        """
        storage = self._storage()
        return "memory" if storage is None else storage.name

    def _source_key(self) -> tuple:
        kind, payload = self._source
        if kind == "catalog":
            return ("catalog", payload.lower())
        return (kind, id(payload))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreferenceQuery):
            return NotImplemented
        try:
            return self.fingerprint() == other.fingerprint()
        except TypeError:  # unhashable payloads: fall back to identity
            return self is other

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __repr__(self) -> str:
        kind, payload = self._source
        name = payload if kind == "catalog" else getattr(
            payload, "name", f"{len(payload)} rows"
        )
        clauses = []
        if self._wheres:
            clauses.append(f"where={' AND '.join(w.label for w in self._wheres)}")
        if self._pref is not None:
            clauses.append(f"prefer={self.preference!r}")
        if self._groupby:
            clauses.append(f"groupby={list(self._groupby)}")
        if self._quality:
            clauses.append(f"but_only={[str(c) for c in self._quality]}")
        if self._top is not None:
            clauses.append(f"top={self._top}")
        inner = ", ".join([repr(name), *clauses])
        return f"PreferenceQuery({inner})"

    # -- planning ---------------------------------------------------------------

    def relation(self) -> Relation:
        """Resolve the source relation (catalog lookup happens here)."""
        kind, payload = self._source
        if kind == "catalog":
            if self._session is None:
                raise ValueError(
                    f"query over catalog relation {payload!r} needs a Session"
                )
            return self._session.catalog.get(payload)
        if kind == "relation":
            return payload
        return _rows_relation(payload, self.preference)

    def plan(self) -> Plan:
        """Build (or fetch from the session plan cache) the execution plan."""
        kind, payload = self._source
        if self._session is not None and kind == "catalog":
            name = payload.lower()
            version = self._session.catalog.version(name)
            key = (self.fingerprint(), name, version)
            try:
                hash(key)
            except TypeError:  # unhashable literal somewhere: skip caching
                return self._build_plan()
            return self._session.cached_plan(key, self._build_plan)
        return self._build_plan()

    def _build_plan(self) -> Plan:
        pref = self.preference
        if pref is None and (self._groupby or self._quality or self._top):
            raise ValueError(
                "groupby/but_only/top need a preference term; call .prefer()"
            )
        return _optimizer.plan(
            pref,
            self.relation(),
            wheres=self._wheres,
            groupby=self._groupby or None,
            top_k=self._top,
            top_ties=self._top_ties,
            but_only=self._quality or None,
            select=self._select,
            order_by=self._order_by or None,
            limit=self._limit,
            use_rewriter=self._use_rewriter,
            algorithm=self._algorithm,
            storage=self._storage(),
            source_name=self._catalog_source_name(),
        )

    def _storage(self) -> Any:
        """The session's storage backend, or None (memory only)."""
        if self._session is None:
            return None
        binding = getattr(self._session, "storage", None)
        return None if binding is None else binding.backend

    def _catalog_source_name(self) -> str | None:
        kind, payload = self._source
        return payload.lower() if kind == "catalog" else None

    # -- terminals --------------------------------------------------------------

    def run(self) -> Any:
        """Plan and execute; returns a Relation (or rows for row sources)."""
        result = self.plan().execute()
        if self._source[0] == "rows":
            return result.rows()
        return result

    def iter(self) -> Iterator[Row]:
        """Iterate the result rows."""
        result = self.plan().execute()
        return iter(result.rows())

    __iter__ = iter

    def count(self) -> int:
        """Plan, execute, and return only the result cardinality."""
        return len(self.plan().execute())

    def check(self) -> Any:
        """Statically analyse the query without executing it.

        Returns a :class:`~repro.analysis.diagnostics.CheckResult` of
        ``PQxxx`` diagnostics, ordered errors → warnings → infos — never
        raises.  Use ``check().raise_for_errors()`` for a hard gate, or
        ``check().ok`` as a boolean.  See ``docs/analysis.md`` for the
        diagnostic-code catalog.
        """
        from repro.analysis import check_query

        return check_query(self)

    def explain(self) -> str:
        """The plan text: operators, algorithms, and the rewrite trace.

        Plans with rewrites show a compact ``rewrites: [rule, ...]``
        summary (term-level algebra laws and plan-level rules such as
        ``push_select_below_winnow`` / ``split_prio`` alike) followed by
        per-step ``rule: before -> after`` lines; plans without any end
        with ``rewrites applied: (none)``.  When the static analyzer
        (:meth:`check`) finds errors or warnings, they are appended as a
        ``diagnostics:`` section.
        """
        plan = self.plan()
        text = plan.explain()
        if not plan.rewrites:
            text += "\nrewrites applied: (none)"
        revision = self.revision
        if revision is not None:
            text += "\n" + revision.describe()
        problems = [
            d for d in self.check().diagnostics if d.severity != "info"
        ]
        if problems:
            text += "\ndiagnostics:\n" + "\n".join(
                f"  {d}" for d in problems
            )
        return text

    def to_sql(self) -> str:
        """The plug-and-go SQL92 rewriting of this query (Section 6.1).

        Queries parsed from Preference SQL text translate verbatim; fluent
        queries are reconstructed from their clauses.  Raises
        ``ValueError`` for constructs with no SQL equivalent (callable
        predicates, SCORE/RANK terms needing a function registry).
        """
        from repro.psql.sqlgen import to_sql92

        return to_sql92(self._ast_query())

    def _ast_query(self) -> Any:
        if self._sql_ast is not None:
            return self._sql_ast
        from repro.psql import ast as A

        kind, payload = self._source
        if kind == "catalog":
            table = payload
        else:
            table = getattr(payload, "name", None)
            if not table:
                raise ValueError(
                    "to_sql() needs a named relation source (catalog or "
                    "Relation); got a bare row list"
                )

        where: Any = None
        if self._wheres:
            asts = [w.ast for w in self._wheres]
            if any(a is None for a in asts):
                bad = [w.label for w in self._wheres if w.ast is None]
                raise ValueError(
                    "to_sql() cannot translate callable where-predicates "
                    f"{bad}; build them from attribute keywords or psql AST"
                )
            where = asts[0] if len(asts) == 1 else A.BoolOp("AND", tuple(asts))

        preferring = (
            preference_to_ast(self._pref) if self._pref is not None else None
        )
        cascades = tuple(preference_to_ast(c) for c in self._cascades)
        return A.Query(
            select=self._select if self._select is not None else "*",
            table=table,
            where=where,
            preferring=preferring,
            cascades=cascades,
            grouping=self._groupby,
            but_only=tuple(
                A.QualityExpr(c.kind, c.attribute, c.op, c.bound)
                for c in self._quality
            ),
            top=self._top,
            order_by=self._order_by,
            limit=self._limit,
        )


def compose_terms(
    pref: Preference | None, base: Preference | None
) -> Preference | None:
    """``prio(pref, base)`` — Definition 9: the user's term dominates, the
    base term breaks ties — or whichever of the two is present (``None``
    when neither is)."""
    if pref is None or base is None:
        return pref if base is None else base
    return PrioritizedPreference((pref, base))


def _callable_label(fn: Callable) -> str:
    name = getattr(fn, "__name__", None)
    return f"<{name}>" if name and name != "<lambda>" else "<predicate>"


def _rows_relation(
    rows: tuple[Row, ...], pref: Preference | None
) -> Relation:
    """Wrap a plain row tuple in an anonymous relation for planning."""
    names: dict[str, None] = {}
    for row in rows:
        for key in row:
            names.setdefault(key, None)
    if not names and pref is not None:
        for attribute in pref.attributes:
            names.setdefault(attribute, None)
    return Relation("rows", Schema(list(names)), rows, validate=False)


def preference_to_ast(pref: Preference) -> Any:
    """Best-effort reconstruction of a Preference SQL PREFERRING AST.

    Covers the paper's named base constructors and the Pareto / prioritized
    accumulations — the terms Preference SQL itself can express.  Raises
    ``ValueError`` for terms with no syntactic equivalent (bare SCORE
    closures, rank(F), intersection, linear sum, duals).
    """
    from repro.core.base_nonnumerical import (
        ExplicitPreference,
        NegPreference,
        PosNegPreference,
        PosPosPreference,
        PosPreference,
    )
    from repro.core.base_numerical import (
        AroundPreference,
        BetweenPreference,
        HighestPreference,
        LowestPreference,
    )
    from repro.core.constructors import ParetoPreference
    from repro.psql import ast as A

    if isinstance(pref, PosNegPreference):
        return A.ElseChain(
            A.PosAtom(pref.attribute, tuple(sorted(pref.pos_set))),
            A.NegAtom(pref.attribute, tuple(sorted(pref.neg_set))),
        )
    if isinstance(pref, PosPosPreference):
        return A.ElseChain(
            A.PosAtom(pref.attribute, tuple(sorted(pref.pos1_set))),
            A.PosAtom(pref.attribute, tuple(sorted(pref.pos2_set))),
        )
    if isinstance(pref, PosPreference):
        return A.PosAtom(pref.attribute, tuple(sorted(pref.pos_set)))
    if isinstance(pref, NegPreference):
        return A.NegAtom(pref.attribute, tuple(sorted(pref.neg_set)))
    if isinstance(pref, ExplicitPreference):
        return A.ExplicitAtom(pref.attribute, pref.edges)
    if isinstance(pref, AroundPreference):
        return A.AroundAtom(pref.attribute, pref.z)
    if isinstance(pref, BetweenPreference):
        return A.BetweenAtom(pref.attribute, pref.low, pref.up)
    if isinstance(pref, HighestPreference):
        return A.HighestAtom(pref.attribute)
    if isinstance(pref, LowestPreference):
        return A.LowestAtom(pref.attribute)
    if isinstance(pref, ParetoPreference):
        return A.ParetoExpr(tuple(preference_to_ast(c) for c in pref.children))
    if isinstance(pref, PrioritizedPreference):
        return A.PriorExpr(tuple(preference_to_ast(c) for c in pref.children))
    raise ValueError(
        f"{type(pref).__name__} has no Preference SQL syntax; to_sql() "
        "supports the named base constructors, Pareto and prioritized terms"
    )
