"""Non-numerical base preference constructors (Definition 6).

POS, NEG, POS/NEG and POS/POS are all *layered* preferences: the domain is
partitioned into an ordered list of layers, earlier layers are better, and
two values are ranked iff they lie in different layers.  The class
:class:`LayeredPreference` captures this shape once; the four constructors
are thin, faithfully-named instantiations, and their level structure (the
paper states the levels explicitly for each constructor) falls out of the
layer index.

EXPLICIT (Definition 6e) is genuinely graph-shaped and gets its own class on
top of :mod:`repro.core.digraph`.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Sequence

from repro.core.digraph import CycleError, Digraph
from repro.core.domains import Domain, FiniteDomain
from repro.core.preference import Preference, Row


class Others:
    """Sentinel naming the catch-all layer ("any other value", Definition 6).

    Exactly one ``OTHERS`` layer may appear in a layered preference; if none
    is given, values outside every explicit layer are unranked against
    everything (they belong to no layer at all).
    """

    _instance: "Others | None" = None

    def __new__(cls) -> "Others":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OTHERS"


#: The unique catch-all layer marker.
OTHERS = Others()


def _members(values: Iterable[Hashable]) -> str:
    """``{...}`` with the members sorted, so a term prints the same text
    in every process (a set iterates in string-hash order).  Members of
    mixed types order by (type name, repr)."""
    try:
        ordered = sorted(values)
    except TypeError:
        ordered = sorted(values, key=lambda v: (type(v).__name__, repr(v)))
    if not ordered:
        return "set()"
    return "{" + ", ".join(map(repr, ordered)) + "}"


class LayeredPreference(Preference):
    """An ordered partition of a domain: earlier layers are better.

    ``x <_P y`` iff x's layer comes strictly after y's layer.  The *level*
    of a value (Definition 2) is its 1-based layer index, matching the level
    statements in Definition 6 (e.g. POS/NEG: POS on level 1, others on
    level 2, NEG on level 3).
    """

    def __init__(
        self,
        attribute: str,
        layers: Sequence[Iterable[Hashable] | Others],
        domain: Domain | None = None,
    ):
        super().__init__((attribute,), domain)
        if not layers:
            raise ValueError("a layered preference needs at least one layer")
        cooked: list[frozenset | Others] = []
        others_seen = 0
        for layer in layers:
            if isinstance(layer, Others):
                others_seen += 1
                cooked.append(OTHERS)
            else:
                cooked.append(frozenset(layer))
        if others_seen > 1:
            raise ValueError("at most one OTHERS layer is allowed")
        explicit = [l for l in cooked if not isinstance(l, Others)]
        union: set = set()
        for layer in explicit:
            overlap = union & layer
            if overlap:
                raise ValueError(
                    f"layers must be disjoint; {sorted(map(repr, overlap))} repeat"
                )
            union |= layer
        self._layers: tuple[frozenset | Others, ...] = tuple(cooked)
        self._explicit_values = frozenset(union)
        self._others_index = next(
            (i for i, l in enumerate(cooked) if isinstance(l, Others)), None
        )

    @property
    def attribute(self) -> str:
        return self.attributes[0]

    @property
    def layers(self) -> tuple[frozenset | Others, ...]:
        return self._layers

    @property
    def signature(self) -> tuple:
        parts = tuple(
            ("OTHERS",) if isinstance(l, Others) else ("set", l) for l in self._layers
        )
        return ("layered", self.attribute, parts)

    def layer_index(self, value: Any) -> int | None:
        """0-based layer of ``value``; ``None`` when it belongs to no layer."""
        for i, layer in enumerate(self._layers):
            if not isinstance(layer, Others) and value in layer:
                return i
        if self._others_index is not None and value not in self._explicit_values:
            return self._others_index
        return None

    def level(self, value: Any) -> int | None:
        """1-based quality level (Definition 2); best values are level 1."""
        idx = self.layer_index(value)
        return None if idx is None else idx + 1

    def _lt(self, x: Row, y: Row) -> bool:
        xi = self.layer_index(x[self.attribute])
        yi = self.layer_index(y[self.attribute])
        if xi is None or yi is None:
            return False
        return xi > yi

    def max_level(self) -> int:
        return len(self._layers)

    def __repr__(self) -> str:
        inner = ", ".join(
            "OTHERS" if isinstance(l, Others) else _members(l) for l in self._layers
        )
        return f"LayeredPreference({self.attribute}, [{inner}])"


class PosPreference(LayeredPreference):
    """``POS(A, POS-set)``: favorites first, anything else second.

    Definition 6a: ``x <_P y  iff  x not in POS-set and y in POS-set``.
    """

    def __init__(
        self, attribute: str, pos_set: Iterable[Hashable], domain: Domain | None = None
    ):
        pos = frozenset(pos_set)
        if not pos:
            raise ValueError("POS needs a non-empty POS-set")
        super().__init__(attribute, [pos, OTHERS], domain)
        self.pos_set = pos

    @property
    def signature(self) -> tuple:
        return ("pos", self.attribute, self.pos_set)

    def __repr__(self) -> str:
        return f"POS({self.attribute}, {_members(self.pos_set)})"


class NegPreference(LayeredPreference):
    """``NEG(A, NEG-set)``: dislikes last, anything else first.

    Definition 6b: ``x <_P y  iff  y not in NEG-set and x in NEG-set``.
    """

    def __init__(
        self, attribute: str, neg_set: Iterable[Hashable], domain: Domain | None = None
    ):
        neg = frozenset(neg_set)
        if not neg:
            raise ValueError("NEG needs a non-empty NEG-set")
        super().__init__(attribute, [OTHERS, neg], domain)
        self.neg_set = neg

    @property
    def signature(self) -> tuple:
        return ("neg", self.attribute, self.neg_set)

    def __repr__(self) -> str:
        return f"NEG({self.attribute}, {_members(self.neg_set)})"


class PosNegPreference(LayeredPreference):
    """``POS/NEG(A, POS-set; NEG-set)``: favorites, then neutral, then dislikes.

    Definition 6c; POS-set and NEG-set must be disjoint.
    """

    def __init__(
        self,
        attribute: str,
        pos_set: Iterable[Hashable],
        neg_set: Iterable[Hashable],
        domain: Domain | None = None,
    ):
        pos, neg = frozenset(pos_set), frozenset(neg_set)
        super().__init__(attribute, [pos, OTHERS, neg], domain)
        self.pos_set = pos
        self.neg_set = neg

    @property
    def signature(self) -> tuple:
        return ("posneg", self.attribute, self.pos_set, self.neg_set)

    def __repr__(self) -> str:
        return (
            f"POS/NEG({self.attribute}, {_members(self.pos_set)}; "
            f"{_members(self.neg_set)})"
        )


class PosPosPreference(LayeredPreference):
    """``POS/POS(A, POS1-set; POS2-set)``: favorites, alternatives, the rest.

    Definition 6d; POS1-set and POS2-set must be disjoint.
    """

    def __init__(
        self,
        attribute: str,
        pos1_set: Iterable[Hashable],
        pos2_set: Iterable[Hashable],
        domain: Domain | None = None,
    ):
        pos1, pos2 = frozenset(pos1_set), frozenset(pos2_set)
        super().__init__(attribute, [pos1, pos2, OTHERS], domain)
        self.pos1_set = pos1
        self.pos2_set = pos2

    @property
    def signature(self) -> tuple:
        return ("pospos", self.attribute, self.pos1_set, self.pos2_set)

    def __repr__(self) -> str:
        return (
            f"POS/POS({self.attribute}, {_members(self.pos1_set)}; "
            f"{_members(self.pos2_set)})"
        )


class ExplicitPreference(Preference):
    """``EXPLICIT(A, EXPLICIT-graph)``: a handcrafted finite preference.

    Definition 6e.  The edge list uses the paper's orientation
    ``(val_i, val_j)`` meaning ``val_i <_E val_j`` (val_j is better); the
    induced order is the transitive closure, and every value occurring in
    the graph is better than every other domain value.

    ``rank_others=False`` yields the *pure* induced order ``E = (V, <_E)``
    without the catch-all rule — this is the building block in the paper's
    linear-sum characterization ``EXPLICIT = E (+) other-values<->``.
    """

    def __init__(
        self,
        attribute: str,
        edges: Iterable[tuple[Hashable, Hashable]],
        domain: Domain | None = None,
        rank_others: bool = True,
    ):
        super().__init__((attribute,), domain)
        self._edges = tuple((worse, better) for worse, better in edges)
        if not self._edges:
            raise ValueError("EXPLICIT needs at least one better-than pair")
        graph = Digraph(self._edges)
        try:
            graph.ensure_acyclic()
        except CycleError as exc:
            raise ValueError(f"EXPLICIT-graph must be acyclic: {exc}") from exc
        self._graph = graph
        closure = graph.transitive_closure()
        self._closure_pairs = frozenset(closure.edges)
        self._range = frozenset(graph.nodes)
        self._levels = graph.longest_path_levels()
        self._height = max(self._levels.values()) if self._levels else 0
        self.rank_others = bool(rank_others)
        if self._domain is None:
            # The paper's V: the set of all values occurring in the graph.
            # When others are ranked the true domain is larger and unknown;
            # we record only what can be enumerated.
            self._known_values = FiniteDomain(graph.nodes)
        else:
            self._known_values = None

    @property
    def attribute(self) -> str:
        return self.attributes[0]

    @property
    def edges(self) -> tuple[tuple[Hashable, Hashable], ...]:
        return self._edges

    @property
    def graph_values(self) -> frozenset:
        """``V``: all values occurring in the EXPLICIT-graph (= range(<_E))."""
        return self._range

    @property
    def signature(self) -> tuple:
        return ("explicit", self.attribute, frozenset(self._edges), self.rank_others)

    def in_graph(self, value: Any) -> bool:
        return value in self._range

    def _lt(self, x: Row, y: Row) -> bool:
        xv, yv = x[self.attribute], y[self.attribute]
        if (xv, yv) in self._closure_pairs:
            return True
        if self.rank_others:
            return xv not in self._range and yv in self._range
        return False

    def level(self, value: Any) -> int | None:
        """Longest-path level inside the graph; others sit one level below.

        Matches Example 1: white/red level 1, yellow 2, green 3, and the
        unlisted colours (brown, black) on level 4 = graph height + 1.
        """
        if value in self._levels:
            return self._levels[value]
        if self.rank_others:
            return self._height + 1
        return None

    def max_level(self) -> int:
        return self._height + (1 if self.rank_others else 0)

    def __repr__(self) -> str:
        return (
            f"EXPLICIT({self.attribute}, {len(self._edges)} edges"
            f"{'' if self.rank_others else ', pure'})"
        )
