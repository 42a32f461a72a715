"""The Preference SQL engine: parse, translate, optimize, run.

:class:`PreferenceSQL` owns a catalog of relations and a registry of scoring
/ combining functions for SCORE and RANK.  ``execute`` returns a relation;
``explain`` shows the chosen plan including the algebra laws that fired.

Since the unified-API redesign this class is a thin front end over
:class:`~repro.session.Session`: every statement is translated into a
:class:`~repro.query.api.PreferenceQuery` and planned/executed through the
same pipeline as the fluent API and Preference XPath — one execution path,
one plan cache.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.psql.ast import Query
from repro.psql.parser import parse
from repro.query.plan import Plan
from repro.relations.catalog import Catalog
from repro.relations.relation import Relation
from repro.session import Session


class PreferenceSQL:
    """A Preference SQL session bound to a catalog.

    Thin wrapper over :class:`~repro.session.Session`; kept as the
    language-centric face (``execute(text)`` / ``explain(text)``) of the
    shared query pipeline.
    """

    def __init__(
        self,
        catalog: Catalog,
        functions: Mapping[str, Callable[..., Any]] | None = None,
    ):
        self.session = Session(catalog, functions=functions)

    @property
    def catalog(self) -> Catalog:
        return self.session.catalog

    @property
    def functions(self) -> dict[str, Callable[..., Any]]:
        return self.session.functions

    def register_function(self, name: str, fn: Callable[..., Any]) -> None:
        """Register a scoring/combining function for SCORE / RANK atoms."""
        self.session.register_function(name, fn)

    # -- pipeline ------------------------------------------------------------

    def parse(self, text: str) -> Query:
        return parse(text)

    def query(self, text: str):
        """The statement as a fluent :class:`PreferenceQuery` (lazy)."""
        return self.session.sql_query(text)

    def plan(self, text: str) -> Plan:
        return self.query(text).plan()

    def execute(self, text: str) -> Relation:
        """Run one statement and return the result relation."""
        return self.query(text).run()

    def explain(self, text: str) -> str:
        """The plan (operators, algorithms, fired laws) without running it."""
        return self.query(text).explain()

    def check(self, text: str) -> Any:
        """Statically analyse one statement without running it.

        Parses ``text`` (syntax errors raise :class:`ParseError` /
        :class:`LexError` with line/column information) and returns the
        analyzer's :class:`~repro.analysis.diagnostics.CheckResult` of
        ``PQxxx`` diagnostics — see :meth:`PreferenceQuery.check`.  A
        fail-fast :class:`DiagnosticError` the builder raises while
        translating the statement is folded into the result rather than
        propagated, so ``check`` always reports instead of throwing.
        """
        from repro.analysis.diagnostics import CheckResult, DiagnosticError

        try:
            return self.query(text).check()
        except DiagnosticError as exc:
            return CheckResult((exc.diagnostic,))

