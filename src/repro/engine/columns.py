"""Columnar materialization: one lazily built cache per attribute.

The row engine (:mod:`repro.query.algorithms`) evaluates dominance through
``pref._lt`` on dict rows — flexible, but every comparison pays dict lookups
and recursive dispatch.  The columnar engine instead works on a
:class:`ColumnStore` over a row list: per attribute, the value vector in
row order and what the engine derives from it — an exact NumPy array
(:func:`exact_array`), the dense rank codes of a chain axis
(:func:`encode_axis`), the identity codes and distinct values of a weak
axis.  Dominance then reduces to integer comparisons over contiguous
arrays — the representation the vectorized kernels in
:mod:`repro.engine.vectorized` consume — and a WHERE conjunct to a boolean
mask over the exact arrays (:func:`repro.psql.translate.where_mask`).

Every entry is built on first request and cached for the store's lifetime,
one attribute at a time, so reading two columns of a twelve-column
relation builds two.  A relation's store is
:meth:`Relation.column_store <repro.relations.relation.Relation.column_store>`:
relations are immutable, so the cache can never go stale, and the catalog
hands out one relation per ``(name, version)``.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.engine.backend import DETECT, get_numpy
from repro.relations.relation import _PUBLISH

Row = dict[str, Any]

#: Cache misses; ``None`` is a cached answer (a column with no exact array).
_MISSING = object()


class ColumnStore:
    """Read-only, lazily columnarized view over a row list.

    The rows are retained so results fan back out to full tuples without
    reconstruction.  Entries that depend on the engine leg (arrays on the
    NumPy leg, lists on the interpreted one) are cached per leg.
    """

    __slots__ = ("rows", "length", "_cache")

    def __init__(self, rows: Sequence[Row]):
        self.rows = rows
        self.length = len(rows)
        self._cache: dict[tuple, Any] = {}

    def _cached(self, key: tuple, build: Callable[[], Any]) -> Any:
        """``build()`` once per key; concurrent first readers all get the
        object published first."""
        value = self._cache.get(key, _MISSING)
        if value is _MISSING:
            value = build()
            with _PUBLISH:
                value = self._cache.setdefault(key, value)
        return value

    def column(self, attribute: str) -> tuple:
        """All values of one attribute, in row order."""

        def build() -> tuple:
            try:
                return tuple(row[attribute] for row in self.rows)
            except KeyError:
                raise KeyError(f"no column {attribute!r}") from None

        return self._cached(("values", attribute), build)

    def array(self, attribute: str, np: Any) -> Any:
        """The column as an exact NumPy array (:func:`exact_array`), or
        None — also when some row lacks the attribute."""

        def build() -> Any:
            try:
                values = self.column(attribute)
            except KeyError:
                return None
            return exact_array(values, np)

        return self._cached(("array", attribute), build)

    def chain_codes(self, attribute: str, np: Any) -> tuple[Any, Any]:
        """:func:`encode_axis` of the column on the ``np`` leg:
        ``(dense rank codes, incomparable mask or None)``."""
        return self._cached(
            ("chain", attribute, np is not None),
            lambda: encode_axis(self.column(attribute), np),
        )

    def weak_identity(self, attribute: str, np: Any) -> tuple[Any, list]:
        """``(identity, distinct)``: dense identity codes per row and the
        distinct values they index, in first-occurrence order — what
        :func:`weak_codes` scores."""
        return self._cached(
            ("weak", attribute, np is not None),
            lambda: _identity_codes(self.column(attribute), np),
        )

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        built = sorted({key[1] for key in self._cache})
        return f"ColumnStore({self.length} rows, built={built})"


def take(vector: Any, index: Any, np: Any) -> Any:
    """``vector`` at ``index`` (None: all of it) on the ``np`` leg: an
    ndarray stays one when ``np`` is the module and becomes a list when
    it is None; a list stays a list (the kernels' NumPy leg takes
    either)."""
    if hasattr(vector, "dtype"):
        out = vector if index is None else vector[index]
        return out if np is not None else out.tolist()
    return list(vector) if index is None else [vector[i] for i in index]


#: Below this magnitude every integer has an exact float64.
_EXACT = 2**53


def exact_array(values: Sequence[Any], np: Any) -> Any:
    """``values`` as a 1-d ndarray whose entries equal and order exactly
    as the Python values do, or None.

    The one exactness rule of the engine — rank encoding reads it, and
    WHERE masks read it together with :func:`exact_literal`: integer and
    bool arrays; datetime arrays; float arrays bounded by 2**53 in
    magnitude (every int in that range has an exact float64, so a mixed
    int/float column orders the same) or built from Python floats alone;
    and strings that are all ``str`` (or all ``bytes``) with no trailing
    NUL — NumPy's fixed-width string dtypes strip those, merging ``'a'``
    and ``'a\\x00'``.  Larger Python ints would be promoted to lossy
    float64, mixed objects to strings or to the object dtype; all of
    those take the exact Python path instead.
    """
    try:
        arr = np.asarray(values)
    except (ValueError, TypeError):  # ragged / unconvertible values
        return None
    if arr.ndim != 1:
        return None
    kind = arr.dtype.kind
    if kind in "biuMm":
        return arr
    if kind == "f":
        if (
            not (np.abs(arr) >= _EXACT).any()
            or set(map(type, values)) == {float}
        ):
            return arr
        return None
    if kind in "SU":
        text, nul = (str, "\x00") if kind == "U" else (bytes, b"\x00")
        if all(type(v) is text and not v.endswith(nul) for v in values):
            return arr
    return None


def exact_literal(column: Any, value: Any) -> bool:
    """Whether NumPy compares ``value`` with every entry of an
    :func:`exact_array` ``column`` as Python does — the literal half of
    the exactness rule.  Strings meet strings without a trailing NUL;
    numbers meet bool, int and float columns as long as no operand is
    rounded on the way: an int literal fits the column's dtype (within
    2**53 against floats), a float literal meets an int column only when
    every entry is below 2**53 — NumPy answers ``2**53 + 1 >
    9007199254740992.0`` with False, Python with True.  NaN literals stay
    out (``in`` also tests identity)."""
    kind = column.dtype.kind
    if kind == "U":
        return type(value) is str and not value.endswith("\x00")
    if kind not in "bif" or type(value) not in (bool, int, float):
        return False
    if type(value) is float:
        if value != value:
            return False
        return kind != "i" or bool(
            ((column > -_EXACT) & (column < _EXACT)).all()
        )
    if kind == "f":
        return -_EXACT <= value <= _EXACT
    return -(2**63) <= value < 2**63


def rank_codes(values: Sequence[Any]) -> list[int]:
    """Dense order-preserving integer codes: ``v < w  iff  code(v) < code(w)``.

    Values need only support ``<`` among themselves (the same contract the
    row algorithms rely on); ties — values neither ``<`` nor ``>`` — get
    equal codes.  Rank encoding is what lets the vectorized kernels run on
    *any* orderable axis (floats, dates, strings, chain keys) with one
    integer dtype.  Columns with an exact NumPy array are encoded with one
    ``argsort``; anything else falls back to Python sorting with identical
    results.  Values that don't compare equal to themselves (NaN, NaT) get
    arbitrary codes — use :func:`encode_axis` to detect and handle them.
    """
    codes, _ = encode_axis(values)
    return codes if isinstance(codes, list) else codes.tolist()


def rank_code_vector(values: Sequence[Any]) -> Any:
    """:func:`rank_codes`, but returning an int64 ndarray when the NumPy
    fast path applies (exact columns) and a plain list otherwise — the
    zero-copy form the vectorized kernels build their matrices from.
    """
    codes, _ = encode_axis(values)
    return codes


def encode_axis(
    values: Sequence[Any], np: Any = DETECT
) -> tuple[Any, list[bool] | None]:
    """``(codes, incomparable)`` for one axis column, on the ``np`` leg
    (the NumPy module, ``None`` for pure Python, default: ask now).

    ``codes`` are dense order-preserving integers (int64 ndarray on the
    NumPy fast path, list otherwise).  ``incomparable`` marks values that
    do not compare equal to themselves — NaN, NaT — which a total integer
    encoding cannot represent (they are unranked against *everything*, so
    under BMO the rows carrying them are maximal and dominate nothing);
    ``None`` means provably absent.  Their code entries are meaningless
    and must be masked out by the caller.

    The NumPy path is taken only for columns :func:`exact_array` accepts;
    the rest (2**63 and 2**63 + 1 as lossy floats, ``'a'`` and
    ``'a\\x00'`` as one string) take the exact Python path.
    """
    n = len(values)
    if n == 0:
        return [], None
    if np is DETECT:
        np = get_numpy()
    arr = None if np is None else exact_array(values, np)
    if arr is not None:
        kind = arr.dtype.kind
        if kind not in "Mmf":  # exact, and never self-unequal
            return _argsort_codes(np, arr), None
        bad = np.isnat(arr) if kind in "Mm" else np.isnan(arr)
        return _argsort_codes(np, arr), (bad.tolist() if bad.any() else None)
    incomparable = [v != v for v in values]
    has_incomparable = any(incomparable)
    comparable = (
        [i for i in range(n) if not incomparable[i]]
        if has_incomparable
        else range(n)
    )
    order = sorted(comparable, key=values.__getitem__)
    codes_list = [0] * n
    code = 0
    previous: Any = None
    for position, idx in enumerate(order):
        v = values[idx]
        if position and previous < v:
            code += 1
        previous = v
        codes_list[idx] = code
    return codes_list, (incomparable if has_incomparable else None)


def _identity_codes(values: Sequence[Any], np: Any) -> tuple[Any, list]:
    """Dense identity codes of ``values`` and the distinct values, by dict
    identity — ``==`` plus the same-object shortcut, the test the row
    engine's projection tuples apply."""
    ids: dict[Any, int] = {}
    identity = [ids.setdefault(v, len(ids)) for v in values]
    if np is not None:
        return np.asarray(identity, dtype=np.int64), list(ids)
    return identity, list(ids)


def weak_codes(
    identity: Any, distinct: Sequence[Any], score: Any, sign: int, np: Any
) -> tuple[Any, Any]:
    """``(upper, lower)`` code vectors of one weak-order axis, for rows
    whose dense ``identity`` codes index the ``distinct`` values.

    A weak order ranks values by ``score`` and leaves equal-score values
    unranked, so no single total code can stand for it: Pareto needs
    "better **or the same value**" per arm (Definition 8), and equal
    scores of different values are neither.  Two codes can: with ``id``
    the identity code of the value, ``upper`` orders rows by
    ``(score, id)`` and ``lower`` by ``(score, -id)``, so

        ``a >= b`` on both   iff   ``score_a > score_b  or  value_a = value_b``

    which is exactly the arm's clause.  Distinct values get distinct
    ``upper`` codes, so vectors stay injective on projections.  A score
    that does not equal itself (NaN: ranked against nothing) goes above
    everything in ``upper`` and below everything in ``lower``, which
    leaves its value comparable to itself alone.  ``sign`` -1 reverses
    the score order (the dual).  Each distinct value is scored once.
    Codes are order-isomorphic to dense ranks but not dense themselves;
    the kernels only compare and add them.
    """
    k = len(distinct)
    ranks, unranked = encode_axis([score(v) for v in distinct], np)
    if np is not None:
        ranks = np.asarray(ranks, dtype=np.int64) * sign
        above = below = ranks
        if unranked is not None:
            mask = np.asarray(unranked, dtype=bool)
            above = np.where(mask, ranks.max() + 1, ranks)
            below = np.where(mask, ranks.min() - 1, ranks)
        own = np.arange(k, dtype=np.int64)
        upper, lower = above * k + own, below * k + (k - 1 - own)
        return upper[identity], lower[identity]
    ranks = [sign * r for r in ranks]
    top, bottom = max(ranks) + 1, min(ranks) - 1
    upper, lower = [], []
    for own, rank in enumerate(ranks):
        loose = unranked is not None and unranked[own]
        upper.append((top if loose else rank) * k + own)
        lower.append((bottom if loose else rank) * k + (k - 1 - own))
    return [upper[i] for i in identity], [lower[i] for i in identity]


def _argsort_codes(np: Any, arr: Any) -> Any:
    """Dense ranks of a sortable ndarray (self-unequal entries get junk)."""
    n = len(arr)
    order = np.argsort(arr, kind="stable")
    in_order = arr[order]
    bumps = np.empty(n, dtype=np.int64)
    bumps[0] = 0
    bumps[1:] = in_order[1:] > in_order[:-1]
    codes = np.empty(n, dtype=np.int64)
    codes[order] = np.cumsum(bumps)
    return codes
