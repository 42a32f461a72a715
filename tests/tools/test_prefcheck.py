"""The prefcheck linter: each PC-code fires on a minimal bad example and
stays quiet on the idiomatic good version — and the real tree is clean."""

import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "tools"))

from prefcheck import (  # noqa: E402
    check_loop_lane,
    check_repo,
    check_rule_coverage,
    check_source,
)


def _codes(findings):
    return [f.code for f in findings]


class TestLockScope:
    def test_planning_under_lock_flagged(self):
        source = textwrap.dedent("""
            def cached(self, key, build):
                with self._lock:
                    plan = build()
                    self._cache[key] = plan.execute()
        """)
        assert "PC001" in _codes(check_source(source, "session.py"))

    def test_plan_outside_publish_inside_is_clean(self):
        source = textwrap.dedent("""
            def cached(self, key, build):
                with self._lock:
                    if key in self._cache:
                        return self._cache[key]
                plan = build()
                result = plan.execute()
                with self._lock:
                    self._cache[key] = result
                return result
        """)
        assert check_source(source, "session.py") == []

    def test_mutation_lock_also_guarded(self):
        source = textwrap.dedent("""
            def mutate(self):
                with self.mutation_lock:
                    self.view.seed(rows, version)
        """)
        assert "PC001" in _codes(check_source(source, "views.py"))

    def test_unrelated_with_blocks_ignored(self):
        source = textwrap.dedent("""
            def load(self):
                with open("f") as handle:
                    return handle.read()
        """)
        assert check_source(source, "x.py") == []


class TestFrozenPlanNodes:
    def test_mutable_dataclass_in_plan_py_flagged(self):
        source = textwrap.dedent("""
            from dataclasses import dataclass

            @dataclass
            class Scan:
                relation: object
        """)
        findings = check_source(source, "src/repro/query/plan.py")
        assert "PC002" in _codes(findings)

    def test_frozen_dataclass_is_clean(self):
        source = textwrap.dedent("""
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Scan:
                relation: object
        """)
        assert check_source(source, "src/repro/query/plan.py") == []

    def test_other_files_may_have_mutable_dataclasses(self):
        source = textwrap.dedent("""
            from dataclasses import dataclass

            @dataclass
            class Counter:
                hits: int = 0
        """)
        assert check_source(source, "src/repro/server/metrics.py") == []


class TestExecuteFailsVisibly:
    def test_fallback_in_execute_flagged(self):
        source = textwrap.dedent("""
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class SortedWinnow:
                child: object

                def execute(self):
                    rel = self.child.execute()
                    try:
                        return argmax(rel)
                    except TypeError:
                        return winnow(rel)
        """)
        findings = check_source(source, "src/repro/query/plan.py")
        assert _codes(findings) == ["PC007"]
        assert "SortedWinnow.execute()" in findings[0].message

    def test_execute_without_try_is_clean(self):
        source = textwrap.dedent("""
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class PreferenceSelect:
                child: object

                def execute(self):
                    return winnow(self.pref, self.child.execute())

                def lines(self):
                    try:
                        return [repr(self.pref)]
                    except TypeError:
                        return ["?"]
        """)
        assert check_source(source, "src/repro/query/plan.py") == []


class TestBareExcept:
    def test_bare_except_in_server_flagged(self):
        source = textwrap.dedent("""
            def handler(self):
                try:
                    self.step()
                except:
                    pass
        """)
        findings = check_source(source, "src/repro/server/service.py")
        assert "PC004" in _codes(findings)

    def test_typed_except_is_clean(self):
        source = textwrap.dedent("""
            def handler(self):
                try:
                    self.step()
                except Exception:
                    pass
        """)
        assert check_source(source, "src/repro/server/service.py") == []

    def test_bare_except_outside_server_flagged(self):
        source = textwrap.dedent("""
            def kernel(rows):
                try:
                    return sorted(rows)
                except:
                    return rows
        """)
        for path in ("src/repro/engine/columnar.py", "src/repro/__init__.py"):
            assert "PC004" in _codes(check_source(source, path)), path

    def test_bare_except_outside_src_is_not_checked(self):
        source = "try:\n    pass\nexcept:\n    pass\n"
        assert check_source(source, "examples/snippet.py") == []


class TestUnusedImports:
    def test_orphaned_imports_in_src_flagged(self):
        source = textwrap.dedent("""
            import os
            import threading as th
            from typing import Any, Callable, Sequence

            def run(thunks: list[Callable[[], Any]]) -> list[Any]:
                return [t() for t in thunks]
        """)
        findings = check_source(source, "src/repro/engine/columnar.py")
        assert _codes(findings) == ["PC006"] * 3
        text = " ".join(f.message for f in findings)
        for name in ("'os'", "'th'", "'Sequence'"):
            assert name in text

    def test_every_kind_of_use_is_clean(self):
        source = textwrap.dedent("""
            from __future__ import annotations

            import xml.etree
            from typing import TYPE_CHECKING, Any, Callable

            import json  # noqa: F401 - imported for its side effect

            if TYPE_CHECKING:
                from repro.session import Session
                from repro.query.incremental import BMODelta

            Listener = Callable[["BMODelta"], None]

            def parse(session: "Session | None") -> Any:
                return xml.etree
        """)
        assert check_source(source, "src/repro/server/service.py") == []
        # Package __init__ files re-export, and snippets are not src/.
        assert check_source("import os\n", "src/repro/engine/__init__.py") == []
        assert check_source("import os\n", "examples/quickstart.py") == []


class TestLoopLane:
    SERVICE = "src/repro/server/service.py"
    VIEWS = "src/repro/server/views.py"

    def test_waiting_or_working_on_the_loop_lane_flagged(self):
        service = textwrap.dedent("""
            class PreferenceService:
                def resolve(self, sql):
                    with self._mutation_lock:
                        return self.build_query(sql)

                def build_query(self, sql):
                    return self.session.sql_query(sql).plan()

                def answer_resident(self, resolved):
                    view = self.views.get(resolved.view_spec)
                    if view is None:
                        view = self._materialize(resolved.view_spec)
                    return view.rows_if_free()
        """)
        views = textwrap.dedent("""
            class ContinuousView:
                def rows_if_free(self):
                    self._lock.acquire()
                    return self._live.result()

            class ViewRegistry:
                def get(self, spec):
                    return self._views.get(spec.key)
        """)
        findings = check_loop_lane({self.SERVICE: service, self.VIEWS: views})
        assert _codes(findings) == ["PC005"] * 4
        text = " ".join(f.message for f in findings)
        assert "resolve() runs on the server's event loop" in text
        assert "enters the mutation lock" in text
        assert "build_query() " in text and "calls plan()" in text
        assert "calls _materialize()" in text
        assert "ContinuousView.rows_if_free()" in text
        assert "without blocking=False" in text

    def test_pool_lane_and_lower_layers_are_not_followed(self):
        service = textwrap.dedent("""
            class PreferenceService:
                def resolve(self, sql):
                    return self.session.query(sql)

                def answer_resident(self, resolved):
                    view = self.views.get(resolved.view_spec)
                    return None if view is None else view.rows_if_free()

                def query(self, sql):
                    return self.answer(self.resolve(sql))

                def answer(self, resolved):
                    with self._mutation_lock:
                        view = self._materialize(resolved.view_spec)
                    return view.rows() or resolved.query.run()
        """)
        views = textwrap.dedent("""
            class ContinuousView:
                def rows_if_free(self):
                    if not self._lock.acquire(blocking=False):
                        return None
                    try:
                        return self._live.result()
                    finally:
                        self._lock.release()

                def rows(self):
                    with self._lock:
                        return self._live.result()

            class ViewRegistry:
                def get(self, spec):
                    return self._views.get(spec.key)
        """)
        assert check_loop_lane(
            {self.SERVICE: service, self.VIEWS: views}
        ) == []


class TestRuleCoverage:
    def test_every_plan_rule_is_referenced_by_a_test(self):
        assert check_rule_coverage(REPO) == []

    def test_missing_reference_detected(self, tmp_path):
        (tmp_path / "test_empty.py").write_text("def test_ok(): pass\n")
        findings = check_rule_coverage(REPO, tests_dir=tmp_path)
        assert findings and all(f.code == "PC003" for f in findings)
        names = " ".join(f.message for f in findings)
        assert "winnow_to_sort" in names
        assert "remove_redundant_winnow" in names


class TestRepoIsClean:
    def test_src_tree_is_clean(self):
        assert check_repo([REPO / "src"], REPO) == []

    def test_cli_exit_status(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "prefcheck.py"),
             str(REPO / "src")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_syntax_error_reported_not_raised(self):
        findings = check_source("def broken(:", "bad.py")
        assert _codes(findings) == ["PC000"]
