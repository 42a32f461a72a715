"""TOPK: the ranked query model (Section 6.2).

Shape to reproduce: the threshold algorithm answers top-k after inspecting
a small prefix of the per-feature sorted lists (Quick-Combine's selling
point), while returning exactly the same k-best set as a full scan.
"""

from repro.core.base_numerical import ScorePreference
from repro.core.constructors import rank
from repro.query.topk import k_best, threshold_topk


def _rank_pref():
    return rank(
        lambda a, b: 0.7 * a + 0.3 * b,
        ScorePreference("horsepower", float, name="hp"),
        ScorePreference("year", float, name="yr"),
        name="wsum",
    )


def test_full_scan_topk(benchmark, cars_5k):
    pref = _rank_pref()
    out = benchmark.pedantic(
        lambda: k_best(pref, cars_5k, 10), rounds=3, iterations=1
    )
    assert len(out) == 10


def test_threshold_topk(benchmark, cars_5k):
    pref = _rank_pref()
    expected_scores = sorted(
        (pref.score(r) for r in k_best(pref, cars_5k, 10)), reverse=True
    )

    def run():
        return threshold_topk(pref, cars_5k, 10)

    out, stats = benchmark.pedantic(run, rounds=3, iterations=1)
    got_scores = sorted((pref.score(r) for r in out), reverse=True)
    assert got_scores == expected_scores
    fraction = stats.objects_seen / len(cars_5k)
    print(
        f"\n[TOPK] threshold inspected {stats.objects_seen}/{len(cars_5k)} "
        f"objects ({fraction:.1%}), {stats.rounds} rounds"
    )
    assert fraction < 0.5  # a small prefix, not a full scan
    benchmark.extra_info["objects_seen"] = stats.objects_seen
    benchmark.extra_info["fraction"] = round(fraction, 3)
