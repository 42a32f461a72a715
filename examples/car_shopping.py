"""The paper's Example 6, end to end: preference engineering for a car shop.

Run:  python examples/car_shopping.py

Julia wants a used car; her friend Leslie has opinions; dealer Michael adds
domain knowledge and his own commission interest.  Conflicts are welcome —
the model treats them as unranked pairs, not errors.  The same scenario is
then expressed in Preference SQL, with quality control (BUT ONLY) and the
SQL92 rewriting the commercial product used.
"""

from repro.datasets.cars import example6_preferences, generate_cars
from repro.engineering import PreferenceRepository
from repro.psql import PreferenceSQL, parse, to_sql92
from repro.query import winnow
from repro.relations import Catalog


def main() -> None:
    cars = generate_cars(2000, seed=42)
    prefs = example6_preferences()

    # -- The wish lists of Example 6, straight from the paper -------------
    repo = PreferenceRepository()
    repo.save("julia", "wish", prefs["Q1"])
    repo.save("leslie", "colors", prefs["P8"])
    repo.save("michael", "domain", prefs["P6"])
    repo.save("michael", "commission", prefs["P7"])
    print(f"preference repository: {repo!r}")

    for name in ("Q1", "Q2", "Q1_star", "Q2_star"):
        best = winnow(prefs[name], cars)
        print(f"{name:8s} -> {len(best):3d} best matches "
              f"out of {len(cars)} cars")

    q2_best = winnow(prefs["Q2_star"], cars)
    print("\nthe final shortlist (Q2*):")
    print(q2_best.project(
        ["make", "category", "color", "price", "horsepower", "year"]
    ).head(10))

    # -- The same story in Preference SQL ---------------------------------
    psql = PreferenceSQL(Catalog({"car": cars}))
    query = """
        SELECT make, category, color, price, mileage FROM car
        WHERE price < 60000
        PREFERRING (category = 'cabriolet' ELSE category = 'roadster')
        AND transmission = 'automatic' AND horsepower AROUND 100
        CASCADE color <> 'gray' CASCADE LOWEST(price)
    """
    print("\nPreference SQL plan:")
    print(psql.explain(query))
    result = psql.execute(query)
    print(f"\n{len(result)} best matches:")
    print(result.head(10))

    # -- Quality supervision: accept only near-perfect horsepower ---------
    strict = query + " BUT ONLY DISTANCE(horsepower) <= 5"
    checked = psql.execute(strict)
    print(f"\nwith BUT ONLY DISTANCE(horsepower) <= 5: {len(checked)} rows "
          "(an empty answer is possible again - by explicit request)")

    # -- The plug-and-go SQL92 rewriting ----------------------------------
    print("\nSQL92 rewriting of the PREFERRING query:")
    print(to_sql92(parse(query)))


if __name__ == "__main__":
    main()
