#!/usr/bin/env python
"""prefcheck: repo-specific lint for the preference-query codebase.

Seven AST-level checks encode invariants the test suite cannot express as
unit tests (they quantify over *all* code, current and future):

* **PC001 — no planning under a session lock.**  Query planning and plan
  execution are expensive and re-entrant (planning may consult the
  statistics cache); doing either inside ``with self._lock`` /
  ``with self.mutation_lock`` blocks every concurrent reader.  The
  session's contract is "plan outside, publish inside" (see
  ``Session.cached_plan``), and this check keeps it honest.
* **PC002 — plan nodes are frozen.**  The session plan cache shares one
  ``Plan`` across threads; a mutable node would let one query's
  execution corrupt another's plan.  Every dataclass in
  ``query/plan.py`` must be ``@dataclass(frozen=True)``.
* **PC003 — every rewrite rule has a test.**  Each rule name registered
  in ``PLAN_RULES`` (``query/rewrite.py``) must appear somewhere under
  ``tests/``, so no rule ships without at least one test referencing it
  by name.
* **PC004 — no bare ``except:`` in ``src/``.**  A bare except swallows
  ``KeyboardInterrupt`` / ``SystemExit``: in the server it can wedge the
  serving loop, and anywhere below it (a kernel, the storage layer) it
  turns an interrupt into a wrong answer or a silent retry.  Catch
  ``Exception`` (or narrower).
* **PC005 — the loop lane never waits or works.**  The server resolves
  every ``query`` and answers view-resident ones *on its event loop*
  (``PreferenceService.resolve`` / ``answer_resident``); one blocking
  call there stalls every connection.  Those two functions, and
  everything they call inside ``src/repro/server`` and
  ``src/repro/tenancy``, may not seed, plan or execute
  (``_materialize*``, ``.seed(``, ``.plan(``, ``.run(``,
  ``.execute(``), may not enter ``with self._mutation_lock``, and may
  ``.acquire(`` a lock only with ``blocking=False``.
* **PC006 — no unused imports in ``src/``.**  ruff and mypy are not part
  of the toolchain, so deleting code would silently orphan its imports.
  A name a module imports must be read somewhere in that module (string
  annotations count); package ``__init__.py`` files re-export by design
  and are exempt, and an import line marked ``# noqa`` is kept on
  purpose (an import for its side effect).
* **PC007 — plan nodes fail visibly.**  No ``try`` statement may appear
  inside an ``execute`` method in ``query/plan.py``: an evaluator that
  fails must raise, never re-route the winnow to another evaluator,
  which is how a wrong answer hides behind a fallback.

Usage::

    python tools/prefcheck.py [paths...]      # default: src/

Exit status 1 when any finding is reported.  The check functions are
importable (``check_source``, ``check_repo``) so ``tests/tools`` and
``tools/check_docs.py`` reuse them over examples and doc blocks.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

REPO = Path(__file__).resolve().parent.parent

#: Calls that plan, rewrite, or execute — too expensive to hold a lock over.
PLANNING_CALLS = {
    "plan", "_build_plan", "rewrite_plan", "execute", "run",
    "winnow", "columnar_winnow", "k_best", "from_relation", "seed",
}

#: Lock attributes whose ``with`` blocks must stay planning-free.
LOCK_ATTRS = {"_lock", "mutation_lock", "_cache_lock"}

#: Cheap accessors allowed under a lock even though their names collide
#: with planning verbs elsewhere (none currently; extend deliberately).
ALLOWED_UNDER_LOCK: set[str] = set()

#: PC005: where the loop lane starts, and the packages it is followed in.
LOOP_LANE_ROOTS = (
    ("PreferenceService", "resolve"),
    ("PreferenceService", "answer_resident"),
)
LOOP_LANE_DIRS = ("src/repro/server", "src/repro/tenancy")

#: PC005 follows ``self.f()`` into the caller's own class, a bare ``f()``
#: into a module-level function, and ``<receiver>.f()`` into the classes
#: this table names for the receiver's last name (``self.tenancy.compose``
#: -> ``tenancy``).  Other receivers (``self.session``, a query object)
#: belong to layers below the server and are not followed.
LOOP_LANE_RECEIVERS: dict[str, tuple[str, ...]] = {
    "service": ("PreferenceService",),
    "tenancy": ("TenantManager",),
    "profiles": ("ProfileStore",),
    "shared": ("SharedViewIndex",),
    "views": ("ViewRegistry",),
    "view": ("ContinuousView",),
    "metrics": ("ServiceMetrics", "TenantMetrics"),
}

#: Calls that seed, plan or execute — work the event loop must not do.
LOOP_LANE_WORK = {"seed", "plan", "run", "execute"}

#: Lock attributes a loop-lane ``with`` block must not enter.
LOOP_LANE_LOCKS = {"_mutation_lock", "mutation_lock"}


@dataclass(frozen=True)
class Finding:
    """One lint finding: stable PC-code, location, message."""

    code: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _call_name(node: ast.Call) -> str | None:
    fn = node.func
    if isinstance(fn, ast.Attribute):
        return fn.attr
    if isinstance(fn, ast.Name):
        return fn.id
    return None


def _is_lock_context(item: ast.withitem) -> bool:
    expr = item.context_expr
    # `with self._lock:` / `with session.mutation_lock:` — also matched
    # when wrapped in a call, e.g. `with lock_of(x):` is NOT matched.
    return isinstance(expr, ast.Attribute) and expr.attr in LOCK_ATTRS


def _check_lock_scope(tree: ast.AST, path: str) -> list[Finding]:
    """PC001: no planning/materialization calls inside lock blocks."""
    findings: list[Finding] = []

    class Visitor(ast.NodeVisitor):
        def visit_With(self, node: ast.With) -> None:
            if any(_is_lock_context(item) for item in node.items):
                for inner in ast.walk(node):
                    if not isinstance(inner, ast.Call):
                        continue
                    name = _call_name(inner)
                    if name in PLANNING_CALLS and name not in ALLOWED_UNDER_LOCK:
                        findings.append(Finding(
                            "PC001", path, inner.lineno,
                            f"call to {name}() inside a lock block; plan "
                            "outside the lock, publish the result inside",
                        ))
            self.generic_visit(node)

    Visitor().visit(tree)
    return findings


def _check_frozen_plan_nodes(tree: ast.AST, path: str) -> list[Finding]:
    """PC002: every dataclass in query/plan.py is frozen."""
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            frozen = False
            is_dataclass = False
            if isinstance(decorator, ast.Name) and decorator.id == "dataclass":
                is_dataclass = True
            elif (isinstance(decorator, ast.Call)
                    and isinstance(decorator.func, ast.Name)
                    and decorator.func.id == "dataclass"):
                is_dataclass = True
                frozen = any(
                    kw.arg == "frozen"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in decorator.keywords
                )
            if is_dataclass and not frozen:
                findings.append(Finding(
                    "PC002", path, node.lineno,
                    f"plan-node dataclass {node.name} must be "
                    "@dataclass(frozen=True): plans are shared across "
                    "threads by the session plan cache",
                ))
    return findings


#: ``try`` and, from Python 3.11, ``try`` with ``except*`` clauses.
_TRY_NODES = tuple(
    getattr(ast, name) for name in ("Try", "TryStar") if hasattr(ast, name)
)


def _check_execute_has_no_try(tree: ast.AST, path: str) -> list[Finding]:
    """PC007: no ``try`` inside a plan node's ``execute``."""
    findings: list[Finding] = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for member in cls.body:
            if not (isinstance(member, ast.FunctionDef)
                    and member.name == "execute"):
                continue
            for node in ast.walk(member):
                if isinstance(node, _TRY_NODES):
                    findings.append(Finding(
                        "PC007", path, node.lineno,
                        f"try inside {cls.name}.execute(): a failing "
                        "evaluator must raise, not re-route to another one",
                    ))
    return findings


def _check_bare_except(tree: ast.AST, path: str) -> list[Finding]:
    """PC004: no bare ``except:`` clauses (anywhere in ``src/``)."""
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(Finding(
                "PC004", path, node.lineno,
                "bare except: swallows KeyboardInterrupt/SystemExit; "
                "catch Exception (or narrower)",
            ))
    return findings


def _string_annotation_names(tree: ast.AST) -> set[str]:
    """Names read inside string annotations (``"Session | None"``) and
    string type arguments (``Callable[["BMODelta"], None]``)."""
    holders: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            holders += [
                a.annotation for a in (
                    *args.posonlyargs, *args.args, *args.kwonlyargs,
                    args.vararg, args.kwarg,
                ) if a is not None and a.annotation is not None
            ]
            if node.returns is not None:
                holders.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            holders.append(node.annotation)
        elif isinstance(node, ast.Subscript):
            holders.append(node.slice)
    names: set[str] = set()
    for holder in holders:
        for node in ast.walk(holder):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(
                    n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                )
    return names


def _check_unused_imports(
    tree: ast.AST, path: str, lines: list[str]
) -> list[Finding]:
    """PC006: every imported name is read somewhere in the module."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or (
                alias.name.split(".")[0]
                if isinstance(node, ast.Import) else alias.name
            )
            imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _string_annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return [
        Finding(
            "PC006", path, line,
            f"{name!r} is imported but never used; delete the import",
        )
        for name, line in sorted(imported.items(), key=lambda i: i[1])
        if name not in used
    ]


def _receiver_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _loop_lane_callees(
    node: ast.Call, owner: str | None
) -> list[tuple[str | None, str]]:
    """The ``(class, function)`` names one call may land on (see
    :data:`LOOP_LANE_RECEIVERS`)."""
    fn = node.func
    if isinstance(fn, ast.Name):
        return [(None, fn.id)]
    if not isinstance(fn, ast.Attribute):
        return []
    receiver = _receiver_name(fn.value)
    if receiver == "self" and isinstance(fn.value, ast.Name):
        return [(owner, fn.attr)]
    return [(cls, fn.attr) for cls in LOOP_LANE_RECEIVERS.get(receiver or "", ())]


def _loop_lane_violations(fn: ast.AST) -> Iterable[tuple[int, str]]:
    for node in ast.walk(fn):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if _receiver_name(item.context_expr) in LOOP_LANE_LOCKS:
                    yield node.lineno, "enters the mutation lock"
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name is None:
            continue
        if name.startswith("_materialize") or (
            name in LOOP_LANE_WORK and isinstance(node.func, ast.Attribute)
        ):
            yield node.lineno, f"calls {name}() (seeds, plans or executes)"
        elif name == "acquire" and not any(
            kw.arg == "blocking"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in node.keywords
        ):
            yield node.lineno, "calls acquire() without blocking=False"


def check_loop_lane(
    sources: Mapping[str, str],
    roots: Iterable[tuple[str | None, str]] = LOOP_LANE_ROOTS,
) -> list[Finding]:
    """PC005 over ``sources`` (path -> text): nothing reachable from the
    loop-lane ``roots`` waits, seeds, plans or executes."""
    defs: dict[tuple[str | None, str], tuple[ast.AST, str]] = {}
    for path, source in sources.items():
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue  # PC000 reports it
        for top in tree.body:
            members = top.body if isinstance(top, ast.ClassDef) else [top]
            owner = top.name if isinstance(top, ast.ClassDef) else None
            for member in members:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs[(owner, member.name)] = (member, path)
    findings: list[Finding] = []
    pending = [key for key in roots if key in defs]
    lane = set(pending)
    while pending:
        owner, name = key = pending.pop()
        fn, path = defs[key]
        where = f"{owner}.{name}" if owner else name
        for line, what in _loop_lane_violations(fn):
            findings.append(Finding(
                "PC005", path, line,
                f"{where}() runs on the server's event loop but {what}; "
                "move the work to PreferenceService.answer (the pool lane)",
            ))
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                for callee in _loop_lane_callees(node, owner):
                    if callee in defs and callee not in lane:
                        lane.add(callee)
                        pending.append(callee)
    return sorted(findings, key=lambda f: (f.path, f.line))


def check_source(source: str, path: str = "<string>") -> list[Finding]:
    """All generic per-file checks over one source text.

    ``query/plan.py`` additionally gets the frozen-dataclass and the
    no-``try``-in-``execute`` checks, every file under ``src/`` the
    bare-except check and every module there but a package
    ``__init__.py`` the unused-import check; callers passing
    arbitrary snippets (doc blocks, examples) get the lock-scope check,
    which is sound anywhere.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding("PC000", path, exc.lineno or 0,
                        f"syntax error: {exc.msg}")]
    findings = _check_lock_scope(tree, path)
    normalized = path.replace("\\", "/")
    if normalized.endswith("query/plan.py"):
        findings += _check_frozen_plan_nodes(tree, path)
        findings += _check_execute_has_no_try(tree, path)
    if normalized.startswith("src/") or "/src/" in normalized:
        findings += _check_bare_except(tree, path)
        if not normalized.endswith("__init__.py"):
            findings += _check_unused_imports(tree, path, source.splitlines())
    return findings


def check_rule_coverage(
    repo: Path = REPO, tests_dir: Path | None = None
) -> list[Finding]:
    """PC003: every PLAN_RULES rule name appears in some test file."""
    rewrite_path = repo / "src" / "repro" / "query" / "rewrite.py"
    if not rewrite_path.exists():
        return []
    tree = ast.parse(rewrite_path.read_text(), filename=str(rewrite_path))
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if node.value is None or not any(
            isinstance(t, ast.Name) and t.id == "PLAN_RULES" for t in targets
        ):
            continue
        for entry in ast.walk(node.value):
            if (isinstance(entry, ast.Constant)
                    and isinstance(entry.value, str)
                    and entry.value.isidentifier()):
                names.setdefault(entry.value, entry.lineno)
    tests = tests_dir if tests_dir is not None else repo / "tests"
    corpus = "\n".join(
        p.read_text() for p in sorted(tests.rglob("*.py"))
    ) if tests.exists() else ""
    return [
        Finding(
            "PC003", str(rewrite_path.relative_to(repo)), line,
            f"rewrite rule {name!r} has no test referencing it by name; "
            "add one under tests/",
        )
        for name, line in sorted(names.items())
        if name not in corpus
    ]


def iter_python_files(paths: Iterable[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def check_repo(paths: Iterable[Path], repo: Path = REPO) -> list[Finding]:
    """Per-file checks over ``paths`` plus the repo-wide rule-coverage and
    loop-lane checks."""
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        try:
            rel = str(path.relative_to(repo))
        except ValueError:
            rel = str(path)
        findings += check_source(path.read_text(), rel)
    findings += check_rule_coverage(repo)
    findings += check_loop_lane({
        str(path.relative_to(repo)): path.read_text()
        for path in iter_python_files(repo / d for d in LOOP_LANE_DIRS)
    })
    return findings


def main(argv: list[str]) -> int:
    targets = [Path(a) for a in argv] or [REPO / "src"]
    findings = check_repo(targets)
    for finding in findings:
        print(finding)
    if findings:
        print(f"prefcheck: {len(findings)} finding(s)")
        return 1
    print("prefcheck: clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
