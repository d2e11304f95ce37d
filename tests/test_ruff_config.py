"""ruff is the only enforcer of the generic hygiene codes.

`secz lint` no longer checks bare ``except``, mutable defaults,
``assert`` or unused imports; CI's ``ruff check src/`` does, under the
``[tool.ruff]`` table in pyproject.toml.  Dropping a code from that
table would silently stop the check, so the table is pinned here.
"""

from fnmatch import fnmatch
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture(scope="module")
def ruff_lint():
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["tool"]["ruff"]["lint"]


def _ignored(ruff_lint, path: str) -> set[str]:
    """The codes ruff's per-file-ignores waive for ``path``."""
    codes: set[str] = set()
    for pattern, ignored in ruff_lint["per-file-ignores"].items():
        if fnmatch(path, pattern):
            codes.update(ignored)
    return codes


def test_hygiene_codes_selected(ruff_lint):
    # E722 bare except, B006/B008 mutable and call defaults, F401
    # unused imports, S101 assert.
    assert {"E722", "B006", "B008", "F401", "S101"} <= set(ruff_lint["select"])


def test_package_init_reexports_exempt_from_f401(ruff_lint):
    assert "F401" in ruff_lint["per-file-ignores"]["**/__init__.py"]
    assert "F401" in _ignored(ruff_lint, "src/repro/archive/__init__.py")
    assert "F401" not in _ignored(ruff_lint, "src/repro/archive/store.py")


def test_assert_flagged_in_src_not_in_tests(ruff_lint):
    assert "S101" in _ignored(ruff_lint, "tests/test_archive.py")
    assert "S101" in _ignored(ruff_lint, "tests/lint/test_rules.py")
    assert "S101" not in _ignored(ruff_lint, "src/repro/core/pipeline.py")
    assert "S101" not in _ignored(ruff_lint, "src/repro/__init__.py")
