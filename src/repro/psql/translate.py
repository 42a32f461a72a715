"""Translate Preference SQL syntax into the preference model.

PREFERRING expressions become preference terms:

* ``attr = v`` / ``attr IN (...)``       -> POS
* ``attr <> v`` / ``attr NOT IN (...)``  -> NEG
* ``a ELSE b`` chains                    -> POS/POS, POS/NEG, or a general
  layered preference for longer chains (all on one attribute)
* ``AROUND`` / ``BETWEEN`` / ``LOWEST`` / ``HIGHEST`` / ``SCORE`` /
  ``EXPLICIT``                           -> the matching base constructor
* ``AND``                                -> Pareto accumulation
* ``PRIOR TO``                           -> prioritized accumulation
* ``RANK(f)(...)``                       -> numerical accumulation

Date literals: strings shaped like ``'2001/11/23'`` or ``'2001-11-23'`` are
converted to ``datetime.date`` *inside numerical atoms* (AROUND, BETWEEN),
mirroring the paper's trips example; elsewhere strings stay strings.

WHERE expressions become row predicates with SQL-ish semantics (comparisons
against NULL are false; ``IS NULL`` tests presence) — and, beside them,
boolean NumPy masks over a column store's exact arrays, for the fragment
where a mask selects exactly the rows the predicate does
(:func:`where_mask`).
"""

from __future__ import annotations

import datetime
import operator
import re
from typing import Any, Callable

from repro.core.base_nonnumerical import (
    ExplicitPreference,
    LayeredPreference,
    NegPreference,
    OTHERS,
    PosNegPreference,
    PosPosPreference,
    PosPreference,
)
from repro.core.base_numerical import (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
    LowestPreference,
    ScorePreference,
)
from repro.core.constructors import (
    ParetoPreference,
    PrioritizedPreference,
    RankPreference,
)
from repro.core.preference import Preference, Row
from repro.psql.ast import (
    AroundAtom,
    BetweenAtom,
    BoolOp,
    Comparison,
    ElseChain,
    ExplicitAtom,
    HardBetween,
    HardExpr,
    HighestAtom,
    InList,
    IsNull,
    LikePattern,
    LowestAtom,
    NegAtom,
    NotOp,
    ParetoExpr,
    PosAtom,
    PrefExpr,
    PriorExpr,
    QualityExpr,
    RankExpr,
    ScoreAtom,
)
from repro.query.quality import QualityCondition


class TranslationError(ValueError):
    """Semantically invalid Preference SQL (e.g. ELSE across attributes)."""


_DATE_RE = re.compile(r"^(\d{4})[-/](\d{1,2})[-/](\d{1,2})$")


def coerce_date(value: Any) -> Any:
    """Turn ``'2001/11/23'``-shaped strings into ``datetime.date``."""
    if isinstance(value, str):
        match = _DATE_RE.match(value)
        if match:
            year, month, day = map(int, match.groups())
            return datetime.date(year, month, day)
    return value


# -- PREFERRING -> Preference -----------------------------------------------------

def translate_preferring(
    expr: PrefExpr,
    functions: dict[str, Callable[..., Any]] | None = None,
) -> Preference:
    """Build the preference term for one PREFERRING / CASCADE expression.

    ``functions`` resolves the names in ``SCORE(attr, f)`` and
    ``RANK(f)(...)``.
    """
    functions = functions or {}
    return _translate(expr, functions)


def _translate(expr: PrefExpr, functions: dict) -> Preference:
    if isinstance(expr, PosAtom):
        return PosPreference(expr.attribute, expr.values)
    if isinstance(expr, NegAtom):
        return NegPreference(expr.attribute, expr.values)
    if isinstance(expr, ElseChain):
        return _translate_else(expr)
    if isinstance(expr, AroundAtom):
        return AroundPreference(expr.attribute, coerce_date(expr.target))
    if isinstance(expr, BetweenAtom):
        return BetweenPreference(
            expr.attribute, coerce_date(expr.low), coerce_date(expr.up)
        )
    if isinstance(expr, LowestAtom):
        return LowestPreference(expr.attribute)
    if isinstance(expr, HighestAtom):
        return HighestPreference(expr.attribute)
    if isinstance(expr, ScoreAtom):
        fn = _resolve(functions, expr.function)
        return ScorePreference(expr.attribute, fn, name=expr.function)
    if isinstance(expr, ExplicitAtom):
        return ExplicitPreference(expr.attribute, expr.edges)
    if isinstance(expr, RankExpr):
        fn = _resolve(functions, expr.function)
        children = [_translate(op, functions) for op in expr.operands]
        bad = [c for c in children if not isinstance(c, ScorePreference)]
        if bad:
            raise TranslationError(
                f"RANK({expr.function}) needs SCORE-family operands; got "
                f"{', '.join(type(c).__name__ for c in bad)}"
            )
        return RankPreference(fn, children, name=expr.function)
    if isinstance(expr, ParetoExpr):
        return ParetoPreference(
            tuple(_translate(op, functions) for op in expr.operands)
        )
    if isinstance(expr, PriorExpr):
        return PrioritizedPreference(
            tuple(_translate(op, functions) for op in expr.operands)
        )
    raise TranslationError(f"unsupported preference expression {expr!r}")


def _resolve(functions: dict, name: str) -> Callable[..., Any]:
    try:
        return functions[name]
    except KeyError:
        raise TranslationError(
            f"unknown function {name!r}; register it with the executor "
            f"(known: {sorted(functions)})"
        ) from None


def _translate_else(expr: ElseChain) -> Preference:
    """``a ELSE b [ELSE c ...]``: a layered preference over one attribute.

    The common two-level forms map onto the paper's named constructors:
    POS ELSE POS -> POS/POS, POS ELSE NEG -> POS/NEG.  Longer all-POS
    chains with an optional trailing NEG build the general layered form.
    """
    atoms: list[PrefExpr] = []
    node: PrefExpr = expr
    while isinstance(node, ElseChain):
        atoms.append(node.first)
        node = node.second
    atoms.append(node)

    attribute = None
    for atom in atoms:
        if not isinstance(atom, (PosAtom, NegAtom)):
            raise TranslationError(
                "ELSE chains accept only set atoms (=, <>, IN, NOT IN); got "
                f"{type(atom).__name__}"
            )
        if attribute is None:
            attribute = atom.attribute
        elif atom.attribute != attribute:
            raise TranslationError(
                f"ELSE chain mixes attributes {attribute!r} and "
                f"{atom.attribute!r}"
            )
    neg_atoms = [a for a in atoms if isinstance(a, NegAtom)]
    if len(neg_atoms) > 1 or (neg_atoms and not isinstance(atoms[-1], NegAtom)):
        raise TranslationError(
            "an ELSE chain may end in at most one negative layer"
        )
    pos_layers = [frozenset(a.values) for a in atoms if isinstance(a, PosAtom)]
    neg_layer = frozenset(neg_atoms[0].values) if neg_atoms else None

    if len(pos_layers) == 2 and neg_layer is None:
        return PosPosPreference(attribute, pos_layers[0], pos_layers[1])
    if len(pos_layers) == 1 and neg_layer is not None:
        return PosNegPreference(attribute, pos_layers[0], neg_layer)
    layers: list = list(pos_layers) + [OTHERS]
    if neg_layer is not None:
        layers.append(neg_layer)
    return LayeredPreference(attribute, layers)


# -- WHERE -> predicate ---------------------------------------------------------------

def translate_where(expr: HardExpr) -> Callable[[Row], bool]:
    """Compile a WHERE tree into a row predicate."""

    def predicate(row: Row) -> bool:
        return _eval_hard(expr, row)

    return predicate


def _eval_hard(expr: HardExpr, row: Row) -> bool:
    if isinstance(expr, Comparison):
        value = row.get(expr.attribute)
        if value is None:
            return False
        other = expr.value
        try:
            if expr.op == "=":
                return value == other
            if expr.op == "<>":
                return value != other
            if expr.op == "<":
                return value < other
            if expr.op == "<=":
                return value <= other
            if expr.op == ">":
                return value > other
            if expr.op == ">=":
                return value >= other
        except TypeError:
            return False
        raise TranslationError(f"unknown comparison operator {expr.op!r}")
    if isinstance(expr, InList):
        value = row.get(expr.attribute)
        if value is None:
            return False
        return (value in expr.values) != expr.negated
    if isinstance(expr, LikePattern):
        value = row.get(expr.attribute)
        if not isinstance(value, str):
            return False
        return bool(_like_regex(expr.pattern).match(value)) != expr.negated
    if isinstance(expr, IsNull):
        return (row.get(expr.attribute) is None) != expr.negated
    if isinstance(expr, HardBetween):
        value = row.get(expr.attribute)
        if value is None:
            return False
        try:
            return expr.low <= value <= expr.up
        except TypeError:
            return False
    if isinstance(expr, BoolOp):
        if expr.op == "AND":
            return all(_eval_hard(op, row) for op in expr.operands)
        return any(_eval_hard(op, row) for op in expr.operands)
    if isinstance(expr, NotOp):
        return not _eval_hard(expr.operand, row)
    raise TranslationError(f"unsupported WHERE expression {expr!r}")


_MASK_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

def where_mask(
    expr: HardExpr,
    array: Callable[[str], Any],
    np: Any,
    codes: Callable[[str], Any] | None = None,
) -> Any:
    """:func:`translate_where` as a boolean vector, or None.

    ``array(attribute)`` hands out a column as an exact NumPy array
    (:func:`repro.engine.columns.exact_array`) over the rows the vector
    covers, or None.  The mask covers the fragment
    :func:`repro.storage.pushdown.pushable_where` accepts — comparisons,
    positive IN, BETWEEN, IS [NOT] NULL, AND / OR — as long as every
    literal compares with its column exactly as Python compares it
    (:func:`~repro.engine.columns.exact_literal`).  Anything else — NOT,
    LIKE, NOT IN, an inexact column or literal — answers None, and the
    caller keeps the row closure.  An exact array holds no None, so the
    closure's NULL rule has nothing to exclude.

    ``codes(attribute)``, when given, hands out ``(identity, lookup)``
    for a column whose exact array holds strings (``U``), else None:
    int64 identity codes over the same rows and the code of each
    distinct value.  ``=`` and positive IN with exact ``str`` literals
    then compare codes instead of strings — the same rows, since two
    strings are equal iff their codes are.
    """
    from repro.engine.columns import exact_literal, exact_text

    if isinstance(expr, BoolOp):
        if not expr.operands or expr.op not in ("AND", "OR"):
            return None
        combine = operator.and_ if expr.op == "AND" else operator.or_
        out = None
        for operand in expr.operands:
            mask = where_mask(operand, array, np, codes)
            if mask is None:
                return None
            out = mask if out is None else combine(out, mask)
        return out
    if isinstance(expr, Comparison) and expr.op in _MASK_OPS:
        literals: tuple = (expr.value,)
    elif isinstance(expr, HardBetween):
        literals = (expr.low, expr.up)
    elif isinstance(expr, InList) and expr.values and not expr.negated:
        literals = tuple(expr.values)
    elif isinstance(expr, IsNull):
        literals = ()
    else:
        return None
    if (
        codes is not None
        and (isinstance(expr, InList)
             or (isinstance(expr, Comparison) and expr.op == "="))
        and all(exact_text(v) for v in literals)
    ):
        held = codes(expr.attribute)
        if held is not None:
            identity, lookup = held
            out = None
            for value in literals:
                code = lookup.get(value)
                if code is not None:
                    hit = identity == code
                    out = hit if out is None else out | hit
            return np.zeros(len(identity), dtype=bool) if out is None else out
    column = array(expr.attribute)
    if column is None or not all(
        exact_literal(column, v) for v in literals
    ):
        return None
    if isinstance(expr, IsNull):
        return np.full(len(column), expr.negated)
    if isinstance(expr, Comparison):
        return _MASK_OPS[expr.op](column, expr.value)
    if isinstance(expr, HardBetween):
        return (column >= expr.low) & (column <= expr.up)
    out = column == literals[0]
    for value in literals[1:]:
        out |= column == value
    return out


def _like_regex(pattern: str) -> re.Pattern:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE)


# -- BUT ONLY -> quality conditions -------------------------------------------------

def translate_quality(expr: QualityExpr) -> QualityCondition:
    return QualityCondition(expr.kind, expr.attribute, expr.op, expr.bound)


# -- display --------------------------------------------------------------------------

def render_where(expr: HardExpr) -> str:
    """A compact WHERE rendering for plan labels."""
    from repro.psql import ast as A

    if isinstance(expr, A.Comparison):
        return f"{expr.attribute} {expr.op} {expr.value!r}"
    if isinstance(expr, A.InList):
        op = "NOT IN" if expr.negated else "IN"
        return f"{expr.attribute} {op} {expr.values!r}"
    if isinstance(expr, A.LikePattern):
        op = "NOT LIKE" if expr.negated else "LIKE"
        return f"{expr.attribute} {op} {expr.pattern!r}"
    if isinstance(expr, A.IsNull):
        return f"{expr.attribute} IS {'NOT ' if expr.negated else ''}NULL"
    if isinstance(expr, A.HardBetween):
        return f"{expr.attribute} BETWEEN {expr.low!r} AND {expr.up!r}"
    if isinstance(expr, A.BoolOp):
        inner = f" {expr.op} ".join(render_where(op) for op in expr.operands)
        return f"({inner})"
    if isinstance(expr, A.NotOp):
        return f"NOT {render_where(expr.operand)}"
    return "<where>"
