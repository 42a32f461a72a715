"""The four traffic shapes, as deterministic request streams.

Everything a run sends is a function of ``(workload, seed, connection)``:
the warm-up requests and the timed stream (the relations are fixed).  The load
generator sends these over the socket; ``trace.py`` replays a prefix of
the same stream in-process.  The program under test only ever sees the
generated inputs, never the seed.

Why these four (one sentence each, repeated in BENCHMARK.json):

* ``adhoc``    — every request is new to every cache, so planner and
  winnow kernels do nearly all the work.
* ``standing`` — the working set fits every cache (all view-answered),
  so only fixed per-request overhead is left.
* ``wide``     — linear-time winnows with thousand-row answers, so
  serialization and the socket dominate.
* ``churn``    — durable writes beside subscribed reads, so view
  maintenance, WAL, mirror and recovery are on the path.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.datasets.cars import CAR_CATEGORIES, CAR_COLORS, generate_cars
from repro.datasets.skyline_data import independent

Row = dict[str, Any]

#: Tenants and canonical shapes of the ``standing`` workload (the
#: ``tools/tenancy_smoke.py`` population).
N_TENANTS = 200
N_SHAPES = 8

#: Requests of each connection's stream that the stream digest covers.
DIGEST_PREFIX = 256

#: First key of rows the ``churn`` writer inserts (far above seed oids).
CHURN_OID_BASE = 10_000_000


@dataclass(frozen=True)
class Request:
    """One wire request, pre-encoded.

    ``body`` is the JSON object text after ``{"id":N,`` — the generator
    prepends the correlation id per send, so encoding is paid once.
    ``key`` groups requests whose answers are equal on a static relation
    (``None``: unique).  ``where`` is the hard filter as one
    ``(attribute, op, value)`` triple, kept for the oracle.
    """

    kind: str
    payload: dict[str, Any]
    key: tuple | None = None
    where: tuple | None = None
    body: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        text = json.dumps(self.payload, separators=(",", ":"))
        object.__setattr__(self, "body", text[1:].encode("utf-8"))

    @property
    def relation(self) -> str:
        """The relation a query reads (SQL text here is always on car)."""
        return (self.payload.get("spec") or {}).get("relation", "car")


# -- preference terms (wire format) -------------------------------------------


def around(attribute: str, z: float) -> dict:
    return {"type": "around", "attribute": attribute, "z": z}


def highest(attribute: str) -> dict:
    return {"type": "highest", "attribute": attribute}


def lowest(attribute: str) -> dict:
    return {"type": "lowest", "attribute": attribute}


def pareto(*children: dict) -> dict:
    return {"type": "pareto", "children": list(children)}


def pos(attribute: str, values: list[str]) -> dict:
    return {"type": "pos", "attribute": attribute, "pos_set": sorted(values)}


def query(kind: str, key: tuple | None = None, where: tuple | None = None,
          **params: Any) -> Request:
    if where is not None and "spec" in params:
        params["spec"]["where"] = [list(where)]
    return Request(kind, {"op": "query", **params}, key, where)


def shape_variants(i: int) -> list[dict]:
    """Three Definition-13-equivalent spellings of canonical shape ``i``
    (same terms as ``tools/tenancy_smoke.py``)."""
    a, h = around("price", 20_000 + 5_000 * i), highest("horsepower")
    return [pareto(a, h), pareto(h, a), pareto(a, h, a)]


def _rng(*parts: Any) -> random.Random:
    # str seeds hash through SHA-512: stable across processes and runs.
    return random.Random(":".join(str(p) for p in parts))


def _deck(rng: random.Random, cards: Iterable) -> Iterator:
    """Deal ``cards`` over and over, reshuffled each time: the mix is
    exact over every ``len(cards)`` requests, so a short window at one
    seed carries the same shares as at another."""
    while True:
        hand = list(cards)
        rng.shuffle(hand)
        yield from hand


# -- adhoc --------------------------------------------------------------------


SKY = pareto(lowest("d0"), lowest("d1"), lowest("d2"))

#: Where the ``AROUND`` targets lie.  Below 10 000 a winnow keeps so many
#: rows that one request runs for 0.4 to 0.7 s: a 15 s window then holds
#: under 200 requests and its p95 rests on a handful of them.
AROUND_RANGE = (10_000, 40_000)


def _car_spec(category: str, z: float) -> Request:
    return query(
        "adhoc.car_spec", where=("category", "=", category),
        spec={"relation": "car",
              "prefer": pareto(around("price", z), highest("horsepower"))},
    )


def _sky_spec(floor: float) -> Request:
    return query("adhoc.sky_spec", where=("d0", ">=", floor),
                 spec={"relation": "sky", "prefer": SKY})


def _car_sql(year: int, z: float) -> Request:
    return query(
        "adhoc.sql", where=("year", ">=", year),
        sql=f"SELECT * FROM car WHERE year >= {year} PREFERRING "
            f"price AROUND {z} AND HIGHEST(horsepower)",
    )


def adhoc_warmup(seed: int) -> list[Request]:
    """One request of each class, sent one after another, so the server
    has imported every module its query paths load lazily before two
    connections call them at once.  (Two first requests arriving together
    at a cold server race inside ``import repro.psql`` and one is refused
    as a ``bad_request``; see the README's known gaps.)  The constants
    lie outside the ranges the stream draws from, and each term is
    sighted once, so the window still meets cold caches and no view."""
    return [_car_spec(CAR_CATEGORIES[0], 45_000.5), _sky_spec(0.06),
            _car_sql(1997, 46_000.5)]


def _strata(rng: random.Random, lo: float, hi: float,
            n: int) -> Iterator[float]:
    """One uniform draw from each of ``n`` equal slices of ``[lo, hi)``,
    slices dealt like a deck: uniform overall, and every ``n`` draws
    cover the range evenly."""
    width = (hi - lo) / n
    for slice_ in _deck(rng, range(n)):
        yield lo + (slice_ + rng.random()) * width


def adhoc_stream(seed: int, conn: int) -> Iterator[Request]:
    """40 % car spec, 30 % sky spec, 30 % SQL text, 20 requests a hand.

    What a request costs is set by its constants — a winnow around a low
    price keeps five times the rows of one around a high price and runs
    ten times as long — so they are dealt too: each hand holds one
    ``AROUND`` target from every eighth (spec) or sixth (SQL) of the price
    range and one floor from every sixth of the ``d0`` range.  Drawn
    freely, the few most expensive requests of a 200-request window moved
    its p95 by a quarter from seed to seed.  The draw inside a slice is
    continuous, so a repeat (which would hit the plan cache) is
    vanishingly unlikely.
    """
    rng = _rng(seed, "adhoc", conn)
    spec_z = _strata(rng, *AROUND_RANGE, 8)
    sql_z = _strata(rng, *AROUND_RANGE, 6)
    floors = _strata(rng, 0.0, 0.05, 6)
    categories = _deck(rng, CAR_CATEGORIES)
    years = _deck(rng, range(1990, 1997))
    for card in _deck(rng, "c" * 8 + "s" * 6 + "q" * 6):
        if card == "c":
            yield _car_spec(next(categories), round(next(spec_z), 2))
        elif card == "s":
            yield _sky_spec(round(next(floors), 6))
        else:
            yield _car_sql(next(years), round(next(sql_z), 2))


# -- standing -----------------------------------------------------------------


def _anon(shape: int, spelling: int) -> Request:
    return query(
        "standing.anon", key=("anon", shape, spelling),
        spec={"relation": "car", "prefer": shape_variants(shape)[spelling]},
    )


def _tenant(user: int) -> Request:
    return query(
        "standing.tenant", key=("tenant", user),
        tenant=f"user-{user}", spec={"relation": "car"},
    )


def standing_warmup(seed: int) -> list[Request]:
    rng = _rng(seed, "standing", "profiles")
    out = [
        Request("standing.profile", {
            "op": "profile", "action": "set", "name": "deal",
            "tenant": f"user-{u}",
            "prefer": rng.choice(shape_variants(u % N_SHAPES)),
        })
        for u in range(N_TENANTS)
    ]
    # One query per tenant materializes the shared views; two sightings
    # of each anonymous spelling materialize theirs.
    out += [_tenant(u) for u in range(N_TENANTS)]
    out += [_anon(s, j) for s in range(N_SHAPES) for j in (0, 1)] * 2
    return out


def standing_stream(seed: int, conn: int) -> Iterator[Request]:
    rng = _rng(seed, "standing", conn)
    tenants = [_tenant(u) for u in range(N_TENANTS)]
    anons = [_anon(s, j) for s in range(N_SHAPES) for j in (0, 1)]
    for card in _deck(rng, "ta"):
        yield rng.choice(tenants if card == "t" else anons)


# -- wide ---------------------------------------------------------------------


def _colour_triple(i: int) -> list[str]:
    return [CAR_COLORS[(i + d) % len(CAR_COLORS)] for d in range(3)]


def _wide_view(colour: str) -> Request:
    return query(
        "wide.view", key=("view", colour),
        spec={"relation": "car", "prefer": pos("color", [colour])},
    )


def wide_warmup(seed: int) -> list[Request]:
    return [_wide_view(c) for c in CAR_COLORS] * 2


def wide_stream(seed: int, conn: int) -> Iterator[Request]:
    rng = _rng(seed, "wide", conn)
    # 25 % filter only, 25 % plan-answered POS, 50 % view-answered POS.
    for card in _deck(rng, "fpvv"):
        category = rng.choice(CAR_CATEGORIES)
        if card == "f":
            yield query(
                "wide.filter", key=("filter", category),
                where=("category", "=", category),
                spec={"relation": "car"},
            )
        elif card == "p":
            i = rng.randrange(len(CAR_COLORS))
            yield query(
                "wide.plan", key=("plan", category, i),
                where=("category", "=", category),
                spec={"relation": "car",
                      "prefer": pos("color", _colour_triple(i))},
            )
        else:
            yield _wide_view(rng.choice(CAR_COLORS))


# -- churn --------------------------------------------------------------------

#: The four continuous views connection A subscribes to.
CHURN_VIEWS: list[dict] = [
    pareto(around("price", 20_000), highest("horsepower")),
    lowest("price"),
    pareto(lowest("mileage"), highest("year")),
    pos("color", ["red"]),
]
#: Index of the view the writer revises, and its refinement.
REVISED_VIEW = 1
REFINED = {"type": "prioritized",
           "children": [lowest("price"), highest("year")]}

#: A row every churn view rejects: far price, weakest engine, worst
#: mileage/year, a colour outside the POS set.
DOMINATED = {
    "make": "Opel", "category": "van", "color": "gray",
    "transmission": "manual", "year": 1990, "horsepower": 40,
    "mileage": 400_000, "price": 90_000, "fuel_economy": 30,
    "insurance_rating": 5, "commission": 1_000,
}


def churn_warmup(seed: int) -> list[Request]:
    return [
        Request("churn.subscribe", {
            "op": "subscribe", "relation": "car", "prefer": view,
            "snapshot": True,
        })
        for view in CHURN_VIEWS
    ]


def entering_row(oid: int, k: int) -> Row:
    """A row built to enter view ``k % 4`` — strictly better than the
    ``k - 4``-th, so it evicts its predecessor and views stay small."""
    row = dict(DOMINATED, oid=oid)
    target = k % 4
    if target == 0:
        row.update(price=20_000, horsepower=301 + k)
    elif target == 1:
        row.update(price=400 - k)
    elif target == 2:
        row.update(mileage=0, year=2002 + k)
    else:
        row.update(color="red")
    return row


def churn_stream(seed: int, conn: int) -> Iterator[Request]:
    """Connection B's mutations: 85 % single-row inserts (5 in 17 of
    them entering a BMO set), 15 % deletes by key of an earlier insert,
    and a revise (refine, then revert, alternating) as every 25th op.

    One delete in three removes the newest *entering* row — it sits in a
    BMO set, so the view recomputes its group and the predecessor comes
    back — and two remove the newest dominated row.  Fixed victims keep
    the share of expensive deletes equal across seeds.
    """
    rng = _rng(seed, "churn", conn)
    cards = _deck(rng, "i" * 12 + "e" * 5 + "dd" + "D")
    live: dict[str, list[int]] = {"i": [], "e": []}
    next_oid = CHURN_OID_BASE
    entering = 0
    refined = False
    op = 0
    while True:
        op += 1
        card = "r" if op % 25 == 0 else next(cards)
        victims = live["e" if card == "D" else "i"]
        if card == "r":
            old, new = (REFINED, CHURN_VIEWS[REVISED_VIEW]) if refined \
                else (CHURN_VIEWS[REVISED_VIEW], REFINED)
            yield Request(
                "churn.revise_revert" if refined else "churn.revise_refine",
                {"op": "revise", "relation": "car", "prefer": old, "to": new},
            )
            refined = not refined
        elif card in "dD" and victims:
            oid = victims.pop()
            yield Request("churn.delete", {
                "op": "delete", "relation": "car",
                "where": [["oid", "=", oid]],
            }, key=("oid", oid))
        else:
            # (A delete with nothing to delete yet becomes an insert.)
            oid, next_oid = next_oid, next_oid + 1
            if card == "e":
                row = entering_row(oid, entering)
                entering += 1
                kind = "churn.insert_entering"
            else:
                row = dict(DOMINATED, oid=oid)
                kind = "churn.insert"
            live["e" if card == "e" else "i"].append(oid)
            yield Request(kind, {
                "op": "insert", "relation": "car", "rows": [row],
            }, key=("oid", oid))


def view_query(view: dict, keys_only: bool = True) -> Request:
    """The reconcile read of one subscribed churn view.  In the window a
    subscriber reconciles by key (``select oid``), which keeps all four
    views' reads the same size; the quiescent checks read whole rows."""
    spec = {"relation": "car", "prefer": view}
    if keys_only:
        spec["select"] = ["oid"]
    return query("churn.read", spec=spec)


# -- registry -----------------------------------------------------------------


# The relations are the dataset generators' default instances, the same
# for every --seed: the seed varies the requests.  Seeding the data as
# well moved kernel-bound numbers by +-25 % between seeds (skyline sizes,
# and with them every winnow and every view rebuild, differ per
# instance), which says nothing about the code under test.


def _cars(rows: int) -> dict[str, list[Row]]:
    return {"car": generate_cars(rows).rows()}


def _cars_and_sky(rows: int) -> dict[str, list[Row]]:
    return {**_cars(rows), "sky": independent(rows, 3)}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    relations: Callable[[int], dict[str, list[Row]]]
    warmup: Callable[[int], list[Request]]
    stream: Callable[[int, int], Iterator[Request]]
    #: Requests of connection 0's stream the traced pass replays.
    replay: int
    durable: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "adhoc",
            "every request is new to every cache, so planner and winnow "
            "kernels do nearly all the work",
            _cars_and_sky, adhoc_warmup, adhoc_stream, replay=60,
        ),
        Workload(
            "standing",
            "the working set fits every cache and every answer comes "
            "from a view, so only fixed per-request overhead is left",
            _cars, standing_warmup, standing_stream, replay=200,
        ),
        Workload(
            "wide",
            "linear-time POS winnows with thousand-row answers, so "
            "serialization and the socket dominate",
            _cars, wide_warmup, wide_stream, replay=200,
        ),
        Workload(
            "churn",
            "durable single-row writes beside subscribed reads, so view "
            "maintenance, WAL, mirror and recovery are on the path",
            _cars, churn_warmup, churn_stream, replay=100, durable=True,
        ),
    )
}


def stream_digest(workload: Workload, seed: int, connections: int) -> str:
    """SHA-256 over the warm-up and the first :data:`DIGEST_PREFIX`
    request bodies of every connection's stream."""
    digest = hashlib.sha256()
    for request in workload.warmup(seed):
        digest.update(request.body + b"\n")
    for conn in range(connections):
        stream = workload.stream(seed, conn)
        for _ in range(DIGEST_PREFIX):
            digest.update(next(stream).body + b"\n")
    return digest.hexdigest()
