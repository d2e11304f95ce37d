"""Span-name registry: traced span names must be documented.

Every span name opened under ``src/repro/{core,sz,crypto,parallel}``
(via ``tracer.span(...)`` or a literal ``trace.Span(name=...)``) must
appear in the docs/OBSERVABILITY.md span-name registry, and every name
pinned by the golden trace fixtures under ``tests/data/traces/`` must
be documented too.  A renamed span otherwise silently breaks ``secz
trace`` readers and the Fig. 7 / Tables III-V stage keys.
"""

from __future__ import annotations

import ast

from repro.lint.walker import FileContext, Finding, RepoContext, Rule

__all__ = ["SpanRegistryRule"]

#: Packages whose spans are part of the documented pipeline surface
#: (imagecodec/multilevel keep their own private stage keys).
SPAN_PACKAGES = (
    "src/repro/core/",
    "src/repro/sz/",
    "src/repro/crypto/",
    "src/repro/parallel/",
    "src/repro/service/",
)
FULL_SCAN_PROXY = "src/repro/core/trace.py"


def _span_names(tree: ast.AST):
    """Yield ``(name, lineno)`` for every literal span-name in the file."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "span":
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                yield node.args[0].value, node.lineno
        elif (isinstance(func, ast.Name) and func.id == "Span") or (
            isinstance(func, ast.Attribute) and func.attr == "Span"
        ):
            for kw in node.keywords:
                if kw.arg == "name" and isinstance(kw.value, ast.Constant) \
                        and isinstance(kw.value.value, str):
                    yield kw.value.value, node.lineno


class SpanRegistryRule(Rule):
    name = "span-registry"
    description = (
        "span names under src/repro/{core,sz,crypto,parallel} must be in "
        "the docs/OBSERVABILITY.md span registry, as must every name "
        "pinned by the golden trace fixtures"
    )

    def check(self, ctx: FileContext, repo: RepoContext) -> list[Finding]:
        if not ctx.relpath.startswith(SPAN_PACKAGES):
            return []
        findings = []
        for span_name, lineno in _span_names(ctx.tree):
            if span_name not in repo.documented_spans:
                findings.append(Finding(
                    path=ctx.relpath, line=lineno, rule=self.name,
                    message=(f"span {span_name!r} is not in the "
                             "docs/OBSERVABILITY.md span-name registry"),
                ))
        return findings

    def finalize(self, repo: RepoContext) -> list[Finding]:
        if FULL_SCAN_PROXY not in repo.scanned:
            return []
        return [
            Finding(
                path="docs/OBSERVABILITY.md", line=0, rule=self.name,
                message=(f"golden-fixture span {span_name!r} "
                         "(tests/data/traces/) is not in the span-name "
                         "registry"),
            )
            for span_name in sorted(repo.fixture_spans - repo.documented_spans)
        ]
