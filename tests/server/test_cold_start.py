"""Two first requests on a cold service must both be answered.

``repro.psql`` / ``repro.analysis`` and ``repro.session`` / ``repro.query
.api`` import each other, so the latter pair load the former lazily —
which used to happen inside the first query: an SQL query and a spec query
reaching a fresh service on two threads raced in that import and one was
refused (``cannot import name 'parse' from partially initialized module``,
about one cold start in three).  The service now loads both packages
before it can be constructed.  Twenty cold starts — ``repro`` purged from
``sys.modules`` and re-imported in a fresh interpreter — two threads
released by a barrier, zero errors.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import sys, threading

errors = []
for round_ in range(20):
    for name in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[name]
    from repro.server.service import PreferenceService

    rows = [{"price": p, "horsepower": h} for p, h in ((1, 5), (2, 4), (3, 9))]
    service = PreferenceService({"car": rows}, max_workers=2)
    barrier = threading.Barrier(2)
    requests = (
        {"sql": "SELECT * FROM car WHERE price >= 1 PREFERRING "
                "price AROUND 2 AND HIGHEST(horsepower)"},
        {"spec": {"relation": "car", "where": [["price", ">=", 1]],
                  "prefer": {"type": "pareto", "children": [
                      {"type": "around", "attribute": "price", "z": 2},
                      {"type": "highest", "attribute": "horsepower"}]}}},
    )

    def fire(request):
        try:
            barrier.wait(timeout=10)
            answer = service.query(**request)
            # All three rows: 1 and 3 are equidistant from 2, so unranked.
            assert len(answer.rows) == 3, answer.rows
        except Exception as exc:
            errors.append(f"cold start {round_}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=fire, args=(r,)) for r in requests]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        if thread.is_alive():
            errors.append(f"cold start {round_}: request never finished")
    service.close()
print("\\n".join(errors))
sys.exit(1 if errors else 0)
"""


def test_concurrent_first_requests_on_a_cold_service():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
