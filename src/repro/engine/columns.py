"""Columnar materialization: one lazily built cache per attribute.

The row engine (:mod:`repro.query.algorithms`) evaluates dominance through
``pref._lt`` on dict rows — flexible, but every comparison pays dict lookups
and recursive dispatch.  The columnar engine instead works on a
:class:`ColumnStore` over a row list: per attribute, the value vector in
row order and what the engine derives from it — an exact NumPy array
(:func:`exact_array`), the dense rank codes of a chain axis
(:func:`encode_axis`), the identity codes and distinct values of a weak
axis, and those values as an array a column expression can score
(:func:`interval_scores`).  Dominance then reduces to integer comparisons
over contiguous arrays — the representation the vectorized kernels in
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
        :func:`weak_codes` ranks the scores of."""
        return self._cached(
            ("weak", attribute, np is not None),
            lambda: _identity_codes(self.column(attribute), np),
        )

    def text_codes(self, attribute: str, np: Any) -> tuple[Any, dict] | None:
        """``(identity, lookup)`` for a column whose exact array holds
        strings (``U``): :meth:`weak_identity`'s codes and the code of
        each distinct value — what a string ``=`` or ``IN`` compares in
        place of the strings (:func:`repro.psql.translate.where_mask`).
        None for any other column."""
        column = self.array(attribute, np)
        if column is None or column.dtype.kind != "U":
            return None
        identity, distinct = self.weak_identity(attribute, np)
        lookup = self._cached(
            ("lookup", attribute),
            lambda: {value: code for code, value in enumerate(distinct)},
        )
        return identity, lookup

    def weak_values(self, attribute: str, np: Any) -> Any:
        """:meth:`weak_identity`'s distinct values as a NumPy array a
        column expression scores exactly (:func:`scorable_array`), or
        None."""
        return self._cached(
            ("scorable", attribute),
            lambda: scorable_array(self.weak_identity(attribute, np)[1], np),
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
        if set(map(type, values)) != {text}:
            return None
        # One scan for a NUL anywhere; only a hit pays the per-value test.
        if nul not in text().join(values) or not any(
            v.endswith(nul) for v in values
        ):
            return arr
    return None


def exact_text(value: Any) -> bool:
    """Whether ``value`` is a ``str`` literal that NumPy's ``U`` dtype
    compares as Python does: one without a trailing NUL."""
    return type(value) is str and not value.endswith("\x00")


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
        return exact_text(value)
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


#: Below this magnitude the difference of two numbers — ints, floats or
#: one of each — is computed exactly alike in float64 and in Python.
_SCORABLE = 2**52


def scorable_array(values: Sequence[Any], np: Any) -> Any:
    """``values`` as an int64 or float64 :func:`exact_array` whose every
    entry is below 2**52 in magnitude, or None.

    Such an array gives :func:`interval_scores` the numbers Python's
    arithmetic gives the values one by one: an int64 array stays exact, a
    float64 one rounds as Python floats do, and the difference of two
    integers below 2**52 has an exact float64, so a column mixing ints
    and floats cannot round where Python's int arithmetic does not.  NaN
    entries pass (they score NaN either way), infinities do not.  Bool
    and unsigned arrays, datetimes and strings score through Python.
    """
    arr = exact_array(values, np)
    if arr is None or arr.dtype not in (np.int64, np.float64):
        return None
    return None if (np.abs(arr) >= _SCORABLE).any() else arr


def scorable_interval(low: Any, up: Any) -> bool:
    """Whether :func:`interval_scores` takes these bounds: each an
    ``int`` or ``float`` below 2**52 in magnitude (so not NaN or an
    infinity, nor a bool or a NumPy scalar)."""
    return all(
        type(bound) in (int, float) and abs(bound) < _SCORABLE
        for bound in (low, up)
    )


def interval_scores(values: Any, low: Any, up: Any, np: Any) -> Any:
    """``-distance(v, [low, up])`` (Definition 7b) of every entry of a
    :func:`scorable_array`, for bounds :func:`scorable_interval` takes,
    as one array expression.  With ``low <= up`` at most one of
    ``low - v`` and ``v - up`` is positive, and it is the branch
    :func:`~repro.core.base_numerical.distance_to_interval` takes, so the
    larger of the two and ``v - v`` (its own zero) is that distance,
    computed by the same operation; NaN propagates through ``maximum``
    and stays NaN."""
    return -np.maximum(
        np.maximum(low - values, values - up), values - values
    )


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
    identity: Any, scores: Sequence[Any], sign: int, np: Any
) -> tuple[Any, Any]:
    """``(upper, lower)`` code vectors of one weak-order axis, for rows
    whose dense ``identity`` codes index the distinct values that
    ``scores`` holds the scores of, one each.

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
    the score order (the dual).  Codes are order-isomorphic to dense
    ranks but not dense themselves; the kernels only compare and add
    them.
    """
    k = len(scores)
    ranks, unranked = encode_axis(scores, np)
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
    """Dense ranks of a sortable ndarray (self-unequal entries get junk).

    A rank depends on the value alone, so the order a sort leaves among
    equal values is never read: the default sort gives the ranks a
    stable one gives, several times faster.  (NaN and NaT sort last
    either way, so even their junk is the same.)"""
    n = len(arr)
    order = np.argsort(arr)
    in_order = arr[order]
    bumps = np.empty(n, dtype=np.int64)
    bumps[0] = 0
    bumps[1:] = in_order[1:] > in_order[:-1]
    codes = np.empty(n, dtype=np.int64)
    codes[order] = np.cumsum(bumps)
    return codes
