"""Storage backend interface and the in-memory default.

A :class:`StorageBackend` mirrors the catalog's base relations into some
engine that can (optionally) evaluate rigid WHERE prefilters *below* the
winnow — the paper's "plug-and-go" story (§ Preference SQL) of compiling
preference queries onto a standard SQL database.  The planner only ever
talks to this narrow surface:

* ``sync`` / ``insert`` / ``delete`` / ``drop`` — keep the mirror current
  with the catalog, stamped with the catalog version of each relation.
* ``prefilter`` — evaluate pushed-down conjuncts and return candidate
  rows **in insertion order**, or ``None`` when the mirror cannot answer
  (version moved, relation not mirrored, engine error).  ``None`` always
  means "fall back to the in-memory path", never "empty result".

The default :class:`MemoryBackend` mirrors nothing: the catalog *is* the
store (the existing in-memory columnar path), so every hook is a no-op
and ``supports_pushdown`` is ``False``.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.relations.relation import Relation

Row = Mapping[str, Any]


class StorageError(Exception):
    """A storage backend could not be configured or operated."""


class StorageBackend:
    """Narrow mirror interface between the catalog and a storage engine."""

    #: Identity folded into plan fingerprints (``memory``/``sqlite``/...).
    name = "abstract"
    #: Whether :meth:`prefilter` can ever answer (gates ``StorageScan``).
    supports_pushdown = False

    # -- mirror maintenance (driven by CatalogStorage) -------------------
    def sync(self, relation: Relation, version: int) -> None:
        """(Re)build the mirror of ``relation`` at catalog ``version``."""
        raise NotImplementedError

    def insert(self, name: str, rows: Sequence[Row], version: int) -> None:
        """Append ``rows`` to the mirror; stamp the new ``version``."""
        raise NotImplementedError

    def delete(self, name: str, rows: Sequence[Row], version: int) -> None:
        """Remove one first-match occurrence per row (bag semantics)."""
        raise NotImplementedError

    def drop(self, name: str) -> None:
        """Forget the mirror of ``name`` entirely."""
        raise NotImplementedError

    # -- planner surface -------------------------------------------------
    def mirrored(self, name: str) -> bool:
        """Whether ``name`` currently has a usable mirror."""
        return self.table_version(name) is not None

    def table_version(self, name: str) -> int | None:
        """Catalog version the mirror of ``name`` is current at."""
        return None

    def prefilter(
        self, name: str, conjuncts: Sequence[Any], version: int
    ) -> list[dict[str, Any]] | None:
        """Rows of ``name`` satisfying every conjunct, insertion-ordered.

        Returns ``None`` whenever the backend cannot answer exactly —
        the caller must then evaluate the conjuncts in Python.
        """
        return None

    def render_prefilter(
        self, name: str, conjuncts: Sequence[Any]
    ) -> tuple[str, tuple[Any, ...]]:
        """The parameterized SQL a prefilter would run (for explain())."""
        raise NotImplementedError

    def close(self) -> None:
        """Release engine resources; the backend is unusable afterwards."""


class MemoryBackend(StorageBackend):
    """The in-memory columnar default: the catalog is the store.

    Mirrors nothing and pushes nothing down — queries take the existing
    ``Scan`` + in-memory ``HardSelect`` path unchanged.  Exists so every
    :class:`~repro.session.Session` owns *a* backend and code never
    branches on ``storage is None``.
    """

    name = "memory"
    supports_pushdown = False

    def sync(self, relation: Relation, version: int) -> None:
        return None

    def insert(self, name: str, rows: Sequence[Row], version: int) -> None:
        return None

    def delete(self, name: str, rows: Sequence[Row], version: int) -> None:
        return None

    def drop(self, name: str) -> None:
        return None

    def render_prefilter(
        self, name: str, conjuncts: Sequence[Any]
    ) -> tuple[str, tuple[Any, ...]]:
        raise StorageError("memory backend does not render SQL prefilters")
