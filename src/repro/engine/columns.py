"""Columnar materialization: contiguous per-attribute value vectors.

The row engine (:mod:`repro.query.algorithms`) evaluates dominance through
``pref._lt`` on dict rows — flexible, but every comparison pays dict lookups
and recursive dispatch.  The columnar engine instead works on a
:class:`ColumnStore`: one value vector per attribute, in row order, from
which per-preference *score vectors* are extracted once and rank-encoded
into dense integer codes (:func:`rank_codes`).  Dominance then reduces to
integer comparisons over contiguous arrays — the representation the
vectorized kernels in :mod:`repro.engine.vectorized` consume.

Stores are built from a :class:`~repro.relations.relation.Relation` (which
caches its columnar form — relations are immutable, so the cache can never
go stale; see :meth:`Relation.columns`) or from plain row lists.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.engine.backend import DETECT, get_numpy
from repro.relations.relation import Relation

Row = dict[str, Any]


class ColumnStore:
    """Read-only columnar view over a set of rows.

    ``columns`` maps attribute name -> tuple of values in row order; all
    tuples have equal length.  The original rows are retained so results
    can be fanned back out to full tuples without reconstruction.
    """

    __slots__ = ("columns", "rows", "length")

    def __init__(self, columns: Mapping[str, tuple], rows: Sequence[Row]):
        self.columns = dict(columns)
        self.rows = rows
        self.length = len(rows)

    @classmethod
    def from_relation(
        cls, relation: Relation, attributes: Sequence[str] | None = None
    ) -> "ColumnStore":
        """The relation's columnar materialization, wrapped.

        A relation that already carries its column cache (a catalog
        relation queried before) hands it over as is.  One that does not —
        typically a freshly filtered intermediate that will be read once —
        materializes only ``attributes`` when given, and caches nothing:
        building every column to read two is the dominant cost of a small
        winnow.
        """
        if attributes is None or relation._column_cache is not None:
            return cls(relation.columns(), relation._rows)
        return cls.from_rows(relation._rows, attributes)

    @classmethod
    def from_rows(
        cls, rows: Sequence[Row], attributes: Sequence[str] | None = None
    ) -> "ColumnStore":
        """Columnarize a plain row list.

        ``attributes`` defaults to the union of all row keys; callers that
        only evaluate some attributes (the winnow needs just the
        preference's) should pass them explicitly so heterogeneous row
        lists don't fail on columns nobody reads.
        """
        cooked = list(rows)
        if attributes is None:
            names: dict[str, None] = {}
            for row in cooked:
                for key in row:
                    names.setdefault(key, None)
            attributes = tuple(names)
        columns = {
            a: tuple(row[a] for row in cooked) for a in attributes
        }
        return cls(columns, cooked)

    def column(self, attribute: str) -> tuple:
        try:
            return self.columns[attribute]
        except KeyError:
            raise KeyError(
                f"no column {attribute!r}; store has {sorted(self.columns)}"
            ) from None

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (
            f"ColumnStore({self.length} rows, "
            f"columns={sorted(self.columns)})"
        )


def rank_codes(values: Sequence[Any]) -> list[int]:
    """Dense order-preserving integer codes: ``v < w  iff  code(v) < code(w)``.

    Values need only support ``<`` among themselves (the same contract the
    row algorithms rely on); ties — values neither ``<`` nor ``>`` — get
    equal codes.  Rank encoding is what lets the vectorized kernels run on
    *any* orderable axis (floats, dates, strings, chain keys) with one
    integer dtype.  Columns NumPy can sort natively are encoded with one
    ``argsort``; anything else falls back to Python sorting with identical
    results.  Values that don't compare equal to themselves (NaN, NaT) get
    arbitrary codes — use :func:`encode_axis` to detect and handle them.
    """
    codes, _ = encode_axis(values)
    return codes if isinstance(codes, list) else codes.tolist()


def rank_code_vector(values: Sequence[Any]) -> Any:
    """:func:`rank_codes`, but returning an int64 ndarray when the NumPy
    fast path applies (native-dtype columns) and a plain list otherwise —
    the zero-copy form the vectorized kernels build their matrices from.
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

    The NumPy path is taken only for dtypes that represent the inputs
    *exactly*: integer/bool/datetime/string kinds, and float arrays that
    are either bounded by 2**53 in magnitude (every int in that range has
    an exact float64, so a mixed int/float column orders the same) or
    built from actual Python floats.  Larger Python ints would be silently
    promoted to lossy float64 (collapsing 2**63 and 2**63 + 1 onto one
    code); those columns take the exact Python path instead.
    """
    n = len(values)
    if n == 0:
        return [], None
    if np is DETECT:
        np = get_numpy()
    if np is not None:
        try:
            arr = np.asarray(values)
        except (ValueError, TypeError):  # ragged / unconvertible values
            arr = None
        if arr is not None and arr.ndim == 1:
            kind = arr.dtype.kind
            if kind in "biuSU":  # exact, and never self-unequal
                return _argsort_codes(np, arr), None
            if kind in "Mm":
                nat = np.isnat(arr)
                return (
                    _argsort_codes(np, arr),
                    nat.tolist() if nat.any() else None,
                )
            if kind == "f" and (
                not (np.abs(arr) >= _EXACT_FLOAT).any()
                or set(map(type, values)) == {float}
            ):
                nan = np.isnan(arr)
                return (
                    _argsort_codes(np, arr),
                    nan.tolist() if nan.any() else None,
                )
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


def encode_weak_axis(
    values: Sequence[Any], score: Any, sign: int = 1, np: Any = DETECT
) -> tuple[Any, Any, Any]:
    """``(upper, lower, identity)`` code vectors of one weak-order axis.

    A weak order ranks values by ``score`` and leaves equal-score values
    unranked, so no single total code can stand for it: Pareto needs
    "better **or the same value**" per arm (Definition 8), and equal
    scores of different values are neither.  Two codes can: with ``id``
    the dense identity code of the value, ``upper`` orders rows by
    ``(score, id)`` and ``lower`` by ``(score, -id)``, so

        ``a >= b`` on both   iff   ``score_a > score_b  or  value_a = value_b``

    which is exactly the arm's clause.  Distinct values get distinct
    ``upper`` codes, so vectors stay injective on projections.  A score
    that does not equal itself (NaN: ranked against nothing) goes above
    everything in ``upper`` and below everything in ``lower``, which
    leaves its value comparable to itself alone.  ``sign`` -1 reverses
    the score order (the dual).  Identity is dict identity — ``==`` plus
    the same-object shortcut — the same test the row engine's projection
    tuples apply.  Codes are order-isomorphic to dense ranks but not
    dense themselves; the kernels only compare and add them.
    """
    ids: dict[Any, int] = {}
    identity = [ids.setdefault(v, len(ids)) for v in values]
    k = len(ids)
    if np is DETECT:
        np = get_numpy()
    ranks, unranked = encode_axis([score(v) for v in ids], np)
    if np is not None:
        ranks = np.asarray(ranks, dtype=np.int64) * sign
        above = below = ranks
        if unranked is not None:
            mask = np.asarray(unranked, dtype=bool)
            above = np.where(mask, ranks.max() + 1, ranks)
            below = np.where(mask, ranks.min() - 1, ranks)
        own = np.arange(k, dtype=np.int64)
        upper, lower = above * k + own, below * k + (k - 1 - own)
        identity = np.asarray(identity, dtype=np.int64)
        return upper[identity], lower[identity], identity
    ranks = [sign * r for r in ranks]
    top, bottom = max(ranks) + 1, min(ranks) - 1
    upper, lower = [], []
    for own, rank in enumerate(ranks):
        loose = unranked is not None and unranked[own]
        upper.append((top if loose else rank) * k + own)
        lower.append((bottom if loose else rank) * k + (k - 1 - own))
    return (
        [upper[i] for i in identity],
        [lower[i] for i in identity],
        identity,
    )


#: Below this magnitude every integer has an exact float64.
_EXACT_FLOAT = 2.0**53


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
