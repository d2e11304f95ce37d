"""``repro.lint`` — the repo's AST-based invariant linter.

Machine-checks the cross-file invariants the docs promise: counter
keys vs ``trace.KNOWN_COUNTERS`` vs docs/OBSERVABILITY.md, span names
vs the registry and the golden trace fixtures, wire-format constants
vs docs/FORMAT.md, CSPRNG-only randomness in ``repro.crypto``, dtype
discipline on hot allocations, exception contracts, secret taint and
lock discipline.  Generic Python hygiene (bare ``except``, mutable
defaults, ``assert``, unused imports) is ruff's (pyproject.toml).
Exposed as ``secz lint`` (see docs/LINTING.md) and run over the real
tree by ``tests/lint/``.

>>> from pathlib import Path
>>> from repro import lint
>>> report = lint.lint_paths([Path("src")], root=Path("."))
>>> report.exit_code
0
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.baseline import (
    BASELINE_FILENAME,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.callgraph import CallGraph, build_callgraph, get_callgraph
from repro.lint.dataflow import ForwardAnalysis
from repro.lint.rules import ALL_RULES, get_rules, rule_names
from repro.lint.sarif import format_sarif, to_sarif
from repro.lint.walker import (
    SCHEMA,
    FileContext,
    Finding,
    LintReport,
    LintRunner,
    RepoContext,
    Rule,
    find_repo_root,
)

__all__ = [
    "SCHEMA",
    "ALL_RULES",
    "BASELINE_FILENAME",
    "CallGraph",
    "FileContext",
    "Finding",
    "ForwardAnalysis",
    "LintReport",
    "LintRunner",
    "RepoContext",
    "Rule",
    "apply_baseline",
    "build_callgraph",
    "find_repo_root",
    "format_sarif",
    "get_callgraph",
    "get_rules",
    "lint_paths",
    "load_baseline",
    "rule_names",
    "to_sarif",
    "write_baseline",
]


def lint_paths(
    paths: list[Path],
    *,
    root: Path | None = None,
    enable: list[str] | None = None,
    disable: list[str] | None = None,
    baseline: Path | str | None = "auto",
) -> LintReport:
    """Lint ``paths`` with the selected rules; the one-call API.

    ``root`` defaults to the repo root found by walking up from the
    first path (the directory holding pyproject.toml) — that anchors
    the doc registries the spec-sync rules compare against.

    ``baseline="auto"`` (the default) applies ``.lint-baseline.json``
    at the repo root when it exists; pass an explicit path to use a
    different file, or ``None`` to skip baseline handling entirely.
    """
    if not paths:
        raise ValueError("no paths to lint")
    if root is None:
        root = find_repo_root(Path(paths[0]))
    repo = RepoContext(Path(root))
    runner = LintRunner(get_rules(enable, disable), repo)
    report = runner.run([Path(p) for p in paths])
    if baseline == "auto":
        candidate = Path(root) / BASELINE_FILENAME
        baseline = candidate if candidate.exists() else None
    if baseline is not None:
        report = apply_baseline(
            report, load_baseline(Path(baseline)), scanned=repo.scanned
        )
    return report
