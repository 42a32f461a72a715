"""Quickstart: preferences as strict partial orders, queried under BMO.

Run:  python examples/quickstart.py

Walks the core loop of the library in five minutes: declare base
preferences, compose them with Pareto and prioritized accumulation, and ask
Best-Matches-Only queries through the unified fluent API — one lazily
planned ``PreferenceQuery`` pipeline shared by the builder, Preference SQL,
and Preference XPath.
"""

from repro import AROUND, EXPLICIT, HIGHEST, LOWEST, POS, Session, pareto, prioritized
from repro.core.graph import BetterThanGraph


def main() -> None:
    # -- 1. A session over a database set (Section 5: the "reality" side).
    s = Session({
        "car": [
            {"id": 1, "color": "red", "price": 42000, "mileage": 20000},
            {"id": 2, "color": "black", "price": 38500, "mileage": 60000},
            {"id": 3, "color": "gray", "price": 39000, "mileage": 15000},
            {"id": 4, "color": "red", "price": 55000, "mileage": 5000},
            {"id": 5, "color": "blue", "price": 39500, "mileage": 45000},
        ],
    })
    print("catalog:")
    print(s.catalog.get("car").head())

    # -- 2. Wishes (Section 3): base preferences...
    colour = POS("color", {"red", "black"})     # favourites first
    price = AROUND("price", 40000)              # close to 40k
    mileage = LOWEST("mileage")                 # the less driven the better

    # ...composed: colour and price matter equally, mileage breaks ties.
    wish = prioritized(pareto(colour, price), mileage)
    print(f"\nwish: {wish!r}")

    # -- 3. The BMO query: all best matches, only best matches (Def. 15).
    #    Nothing runs until a terminal method (.run/.explain/.iter/.to_sql).
    query = s.query("car").prefer(wish)
    best = query.run()
    print("\nbest matches:")
    print(best.head())

    # -- 4. Even impossible wishes get cooperative answers - never empty.
    print("\nclosest to an impossible price of 1000:")
    print(s.query("car").prefer(AROUND("price", 1000)).run().head())

    # -- 5. Builders chain freely: hard filters, grouping, top-k, SQL text.
    print("\nbest red-or-black car per color group, as SQL92:")
    grouped = s.query("car").prefer(price).groupby("color")
    print(grouped.to_sql())
    print(grouped.run().head())

    # -- 6. Preference SQL runs through the same pipeline (and plan cache).
    from_sql = s.sql(
        "SELECT * FROM car PREFERRING (color IN ('red', 'black')"
        " AND price AROUND 40000) PRIOR TO LOWEST(mileage)"
    )
    assert from_sql == best
    print("\nPreference SQL agrees with the fluent query.")

    # -- 7. Better-than graphs are the visual face of a preference (Def. 2).
    taste = EXPLICIT(
        "color", [("gray", "blue"), ("blue", "red"), ("blue", "black")]
    )
    graph = BetterThanGraph(taste, ["red", "black", "blue", "gray", "green"])
    print("\nhandcrafted colour taste (level 1 = best):")
    print(graph.render())

    # -- 8. The planner explains itself (which laws fired, which engine),
    #    and repeated queries hit the session's plan cache.
    print("\nquery plan:")
    print(query.explain())
    print(f"\nplan cache: {s.cache_info()}")

    # -- 9. Evaluators: Pareto/skyline winnows run on the columnar engine
    #    (vectorized dominance over per-attribute code vectors), picked by
    #    the planner; .using() forces another evaluator — same results.
    from repro.datasets.skyline_data import skyline_relation

    s.register("sky", skyline_relation("independent", 2000, 2))
    sky_wish = pareto(HIGHEST("d0"), LOWEST("d1"))
    sky_query = s.query("sky").prefer(sky_wish)
    print("\nskyline plan at 2000 rows (evaluator chosen by the planner):")
    print(sky_query.explain().splitlines()[0])
    assert sky_query.run() == sky_query.using("bnl").run()
    print("columnar kernels and BNL agree.")


if __name__ == "__main__":
    main()
