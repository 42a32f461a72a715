"""Trip planning with date preferences — the paper's second SQL example.

Run:  python examples/trip_planning.py

AROUND works on any ordered type with subtraction, dates included.  The
BUT ONLY clause supervises how far BMO was allowed to relax (two days, two
days of duration), and the ranked query model serves a k-best list for
browsing.
"""

import datetime

from repro import AROUND, LOWEST, SCORE, pareto, rank
from repro.datasets.trips import generate_trips
from repro.psql import PreferenceSQL
from repro.query import (
    QualityCondition,
    but_only,
    explain_quality,
    k_best,
    threshold_topk,
    winnow,
)
from repro.relations import Catalog


def main() -> None:
    trips = generate_trips(300, seed=23)
    print(f"catalog: {trips!r}")

    # -- Soft constraints over dates and durations -------------------------
    wish = pareto(
        AROUND("start_date", datetime.date(2001, 11, 23)),
        AROUND("duration", 14),
    )
    best = winnow(wish, trips)
    print(f"\nBMO result: {len(best)} candidate trips")
    print(best.project(["destination", "start_date", "duration", "price"]).head())

    # -- Quality supervision ------------------------------------------------
    conditions = [
        QualityCondition("distance", "start_date", "<=", 2),  # two days
        QualityCondition("distance", "duration", "<=", 2),
    ]
    checked = but_only(wish, best, conditions)
    print(f"\nwithin 2 days / 2 duration units: {len(checked)} trips")
    for line in explain_quality(wish, best.limit(3), conditions):
        print("  " + line)

    # -- The same query through Preference SQL ------------------------------
    psql = PreferenceSQL(Catalog({"trips": trips}))
    result = psql.execute(
        """
        SELECT destination, start_date, duration, price FROM trips
        PREFERRING start_date AROUND '2001/11/23' AND duration AROUND 14
        BUT ONLY DISTANCE(start_date) <= 2 AND DISTANCE(duration) <= 2
        """
    )
    print(f"\nPreference SQL agrees: {len(result)} trips")
    print(result.head())

    # -- k-best browsing (the ranked query model, Section 6.2) --------------
    cheap_and_soon = rank(
        lambda closeness, cheapness: 2.0 * closeness + cheapness,
        SCORE(
            "start_date",
            lambda d: -abs((d - datetime.date(2001, 11, 23)).days),
            name="closeness",
        ),
        SCORE("price", lambda p: -p / 100.0, name="cheapness"),
        name="deal_score",
    )
    shortlist = k_best(cheap_and_soon, trips, 5)
    print("\ntop-5 deals by combined score:")
    print(shortlist.project(["destination", "start_date", "price"]).head())

    ranked, stats = threshold_topk(cheap_and_soon, trips, 5)
    print(
        f"threshold algorithm matched the scan after inspecting only "
        f"{stats.objects_seen}/{len(trips)} trips"
    )


if __name__ == "__main__":
    main()
