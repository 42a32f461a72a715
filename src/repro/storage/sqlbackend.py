"""Shared machinery for the SQL mirror backends (SQLite, Postgres).

A SQL backend keeps one table per catalog relation, mirroring rows
**bit-faithfully** so a pushed-down prefilter returns exactly what the
in-memory scan + Python conjuncts would:

* an explicit ``_rid`` rowid column preserves insertion order (results
  are always ``ORDER BY _rid``), and deletes remove the minimum-``_rid``
  match to reproduce the catalog's first-match bag semantics;
* every mirror is stamped with the catalog version it reflects; a
  prefilter for any other version answers ``None`` (caller falls back);
* anything the engine cannot store faithfully — NaN (SQLite binds it as
  NULL), integers beyond 64 bits, whole schemas with undeclared or
  non-scalar column types — *blacklists* the relation's mirror instead
  of storing an approximation.  A blacklisted relation simply loses
  pushdown; correctness never depends on the mirror.  Every blacklist
  records its reason (site + exception class) in ``blacklist_reasons``
  so ``/metrics`` can say *why* pushdown is gone.

**Fidelity vs. outage**: blacklisting is for data the engine cannot
represent — a per-relation, permanent-until-resync verdict.  Engine
*operational* failures (connection lost, disk error) say nothing about
the data, so they re-raise past the blacklist (after rollback) for the
storage circuit breaker (:mod:`repro.storage.breaker`) to count.

Mirrored columns are indexed eagerly: pushed prefilters are rigid
equality/range conjuncts, exactly what a B-tree serves, and mirror
rebuilds are rare compared to prefilter scans.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping, Sequence

from repro.psql.sqlgen import Dialect, prefilter_sql, quote_ident
from repro.relations.relation import Relation
from repro.relations.schema import Schema
from repro.storage.backend import StorageBackend, StorageError

#: Mirror-internal insertion-order column (rejected in user schemas).
RID = "_rid"

_KIND_OF_TYPE: dict[type, str] = {bool: "bool", int: "int",
                                  float: "float", str: "str"}


class _Mirror:
    """Book-keeping for one mirrored relation (guarded by backend lock)."""

    __slots__ = ("columns", "kinds", "version", "next_rid")

    def __init__(self, columns: tuple[str, ...], kinds: tuple[str, ...],
                 version: int, next_rid: int):
        self.columns = columns
        self.kinds = kinds
        self.version = version
        self.next_rid = next_rid


class SQLBackend(StorageBackend):
    """Template for DB-API mirror backends; subclasses supply the engine."""

    supports_pushdown = True
    dialect: Dialect
    #: Engine column type per mirror kind ("bool"/"int"/"float"/"str").
    type_sql: Mapping[str, str]
    #: Engine exceptions that mean *the engine is unhealthy* rather than
    #: *this data is unrepresentable*: re-raised for the circuit breaker
    #: instead of blacklisting the relation.  Subclasses override.
    OPERATIONAL_ERRORS: tuple[type[BaseException], ...] = ()

    def __init__(self) -> None:
        self._lock = threading.RLock()
        #: lowercase relation name -> mirror, or ``None`` = blacklisted.
        self._mirrors: dict[str, _Mirror | None] = {}
        #: lowercase relation name -> why its mirror was blacklisted.
        self.blacklisted: dict[str, str] = {}

    # -- engine hooks ----------------------------------------------------
    def _execute(self, sql: str, params: Sequence[Any] = ()) -> Any:
        raise NotImplementedError

    def _executemany(self, sql: str, rows: Sequence[Sequence[Any]]) -> None:
        raise NotImplementedError

    def _commit(self) -> None:
        raise NotImplementedError

    def _rollback(self) -> None:
        raise NotImplementedError

    # -- value codec -----------------------------------------------------
    def _encode(self, kind: str, value: Any) -> Any:
        if value is None:
            return None
        if kind == "bool":
            return int(value)
        if isinstance(value, float) and value != value:
            raise StorageError("NaN is not representable in a SQL mirror")
        return value

    def _decode(self, kind: str, value: Any) -> Any:
        if kind == "bool" and value is not None:
            return bool(value)
        return value

    # -- schema gate -----------------------------------------------------
    def _column_kinds(self, schema: Schema) -> tuple[str, ...] | None:
        """Mirror kinds per attribute, or ``None`` when unmirrorable."""
        kinds: list[str] = []
        for attr in schema.attributes:
            kind = (_KIND_OF_TYPE.get(attr.data_type)
                    if attr.data_type is not None else None)
            if kind is None or attr.name == RID:
                return None
            kinds.append(kind)
        return tuple(kinds)

    def _blacklist(self, key: str, reason: str | None = None) -> None:
        try:
            self._execute(f"DROP TABLE IF EXISTS {quote_ident(key)}")
            self._commit()
        except Exception:
            self._rollback()
        self._mirrors[key] = None
        if reason is None:
            self.blacklisted.pop(key, None)
        else:
            self.blacklisted[key] = reason

    def _degrade(self, key: str, site: str, exc: BaseException) -> None:
        """Rollback, then classify: operational → re-raise (breaker's
        problem), anything else → blacklist with a recorded reason."""
        self._rollback()
        if isinstance(exc, self.OPERATIONAL_ERRORS):
            raise exc
        self._blacklist(key, f"{site}: {type(exc).__name__}: {exc}")

    def blacklist_reasons(self) -> dict[str, str]:
        """Why each blacklisted relation lost its mirror (for /metrics)."""
        with self._lock:
            return dict(self.blacklisted)

    def probe(self) -> None:
        """Cheap engine liveness check (the breaker's half-open probe)."""
        self._execute("SELECT 1").fetchone()

    # -- mirror maintenance ----------------------------------------------
    def sync(self, relation: Relation, version: int) -> None:
        key = relation.name.lower()
        kinds = self._column_kinds(relation.schema)
        with self._lock:
            if kinds is None:
                self._blacklist(
                    key,
                    "sync: schema not mirrorable (undeclared, non-scalar, "
                    f"or reserved {RID!r} column)",
                )
                return
            columns = tuple(relation.schema.names)
            table = quote_ident(key)
            try:
                self._execute(f"DROP TABLE IF EXISTS {table}")
                typed = ", ".join(
                    f"{quote_ident(c)} {self.type_sql[k]}"
                    for c, k in zip(columns, kinds)
                )
                self._execute(
                    f"CREATE TABLE {table} "
                    f"({quote_ident(RID)} {self.type_sql['int']} PRIMARY KEY, "
                    f"{typed})"
                )
                rows = relation.rows()
                if rows:
                    self._executemany(self._insert_sql(table, columns), [
                        (rid, *(self._encode(k, row.get(c))
                                for c, k in zip(columns, kinds)))
                        for rid, row in enumerate(rows)
                    ])
                for column in columns:
                    self._execute(
                        f"CREATE INDEX {quote_ident(f'ix_{key}_{column}')} "
                        f"ON {table} ({quote_ident(column)})"
                    )
                self._commit()
                self._mirrors[key] = _Mirror(columns, kinds, version,
                                             next_rid=len(rows))
                self.blacklisted.pop(key, None)
            except Exception as exc:
                self._degrade(key, "sync", exc)

    def _insert_sql(self, table: str, columns: tuple[str, ...]) -> str:
        names = ", ".join([quote_ident(RID), *map(quote_ident, columns)])
        slots = ", ".join(self.dialect.placeholder
                          for _ in range(len(columns) + 1))
        return f"INSERT INTO {table} ({names}) VALUES ({slots})"

    def insert(self, name: str, rows: Sequence[Mapping[str, Any]],
               version: int) -> None:
        key = name.lower()
        with self._lock:
            mirror = self._mirrors.get(key)
            if mirror is None:
                return
            table = quote_ident(key)
            try:
                self._executemany(self._insert_sql(table, mirror.columns), [
                    (mirror.next_rid + i,
                     *(self._encode(k, row.get(c))
                       for c, k in zip(mirror.columns, mirror.kinds)))
                    for i, row in enumerate(rows)
                ])
                self._commit()
                mirror.next_rid += len(rows)
                mirror.version = version
            except Exception as exc:
                self._degrade(key, "insert", exc)

    def delete(self, name: str, rows: Sequence[Mapping[str, Any]],
               version: int) -> None:
        key = name.lower()
        with self._lock:
            mirror = self._mirrors.get(key)
            if mirror is None:
                return
            table = quote_ident(key)
            rid = quote_ident(RID)
            match = " AND ".join(
                self.dialect.null_eq.format(col=quote_ident(c),
                                            ph=self.dialect.placeholder)
                for c in mirror.columns
            ) or "1=1"
            sql = (f"DELETE FROM {table} WHERE {rid} = "
                   f"(SELECT MIN({rid}) FROM {table} WHERE {match})")
            try:
                for row in rows:
                    params = tuple(self._encode(k, row.get(c))
                                   for c, k in zip(mirror.columns,
                                                   mirror.kinds))
                    cursor = self._execute(sql, params)
                    if cursor.rowcount != 1:
                        raise StorageError(
                            f"mirror of {name!r} missed a delete"
                        )
                self._commit()
                mirror.version = version
            except Exception as exc:
                self._degrade(key, "delete", exc)

    def drop(self, name: str) -> None:
        key = name.lower()
        with self._lock:
            self._blacklist(key)
            self._mirrors.pop(key, None)
            self.blacklisted.pop(key, None)

    # -- planner surface -------------------------------------------------
    def table_version(self, name: str) -> int | None:
        with self._lock:
            mirror = self._mirrors.get(name.lower())
            return None if mirror is None else mirror.version

    def render_prefilter(
        self, name: str, conjuncts: Sequence[Any]
    ) -> tuple[str, tuple[Any, ...]]:
        with self._lock:
            mirror = self._mirrors.get(name.lower())
            if mirror is None:
                raise StorageError(f"relation {name!r} is not mirrored")
            return prefilter_sql(name.lower(), mirror.columns,
                                 tuple(conjuncts), self.dialect,
                                 order_by=RID)

    def prefilter(
        self, name: str, conjuncts: Sequence[Any], version: int
    ) -> list[dict[str, Any]] | None:
        with self._lock:
            mirror = self._mirrors.get(name.lower())
            if mirror is None or mirror.version != version:
                return None
            try:
                sql, params = self.render_prefilter(name, conjuncts)
                records = self._execute(sql, params).fetchall()
            except Exception as exc:
                if isinstance(exc, self.OPERATIONAL_ERRORS):
                    raise
                return None
            return [
                {c: self._decode(k, v)
                 for c, k, v in zip(mirror.columns, mirror.kinds, record)}
                for record in records
            ]
