"""Documentation code blocks must run — in the tier-1 suite, not just CI.

Loads ``tools/check_docs.py`` (not a package; imported by path) and
executes every ```python block in README.md and docs/*.md.
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


def test_docs_exist():
    assert (REPO_ROOT / "README.md").exists()
    assert (REPO_ROOT / "docs" / "architecture.md").exists()
    assert (REPO_ROOT / "docs" / "api.md").exists()


def test_readme_has_runnable_examples():
    checker = _load_checker()
    blocks = checker.python_blocks((REPO_ROOT / "README.md").read_text())
    assert len(blocks) >= 2  # the 30-second example and the evaluator choice


def test_every_doc_block_runs():
    checker = _load_checker()
    errors = checker.check_all(REPO_ROOT)
    assert not errors, "\n".join(errors)
