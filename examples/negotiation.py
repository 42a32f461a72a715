"""E-negotiation and preference mining — the paper's Section 7 roadmap.

Run:  python examples/negotiation.py

Two parties with openly conflicting wishes shop from one catalog.  Pareto
accumulation absorbs the conflict into unranked pairs — "a natural
reservoir to negotiate compromises" — and the negotiation helper ranks that
reservoir by fairness.  A preference miner then recovers a buyer profile
from the exact-match query log the buyer left behind.
"""

from repro import HIGHEST, LOWEST, POS, pareto
from repro.datasets.cars import generate_cars
from repro.datasets.logs import generate_query_log
from repro.engineering import (
    conflict_degree,
    mine_preferences,
    negotiate,
)
from repro.query import winnow


def main() -> None:
    cars = generate_cars(500, seed=9)

    # -- Two parties, openly in conflict ------------------------------------
    buyer = pareto(LOWEST("price"), POS("color", {"red", "black"}))
    dealer = pareto(HIGHEST("commission"), HIGHEST("price"))

    degree = conflict_degree(
        LOWEST("price"), HIGHEST("price"), cars.limit(40).rows()
    )
    print(f"price conflict degree between the parties: {degree:.2f}")

    outcome = negotiate([buyer, dealer], cars)
    print(f"immediate deals (best for both at once): "
          f"{len(outcome.immediate_deals)}")
    print(f"compromise frontier (joint Pareto BMO): {len(outcome.frontier)}")

    print("\nfairest three offers (minimize the worse party's regret):")
    for row in outcome.recommended(3):
        print(
            f"  {row['make']:9s} {row['color']:7s} price={row['price']:6d} "
            f"commission={row['commission']:5d}"
        )

    # -- Mining a profile from an exact-match query log ---------------------
    log = generate_query_log(
        250, seed=3, favorite_makes=("BMW", "Audi"), price_target=30000.0
    )
    profile = mine_preferences(log)
    print("\nmined buyer profile from the query log:")
    for attribute, pref in profile.preferences.items():
        print(f"  {attribute}: {pref!r}  (support {profile.support[attribute]})")

    mined_wish = profile.combined()
    assert mined_wish is not None
    shortlist = winnow(mined_wish, cars)
    print(f"\nshopping with the mined profile: {len(shortlist)} best matches")
    print(shortlist.project(["make", "price", "color"]).head(5))


if __name__ == "__main__":
    main()
