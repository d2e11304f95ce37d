"""Format-spec sync: wire-format constants must match docs/FORMAT.md.

The byte-level spec in docs/FORMAT.md is normative: readers in other
languages are written against it.  This rule cross-checks the two
artifacts that define each layout in code — four-byte magic constants
(``MAGIC = b"SECZ"`` and friends) and literal ``struct`` format
strings — against the strings quoted in the spec, in the modules the
spec documents.  Every format must also be explicit little-endian
(``<``): a bare format string would silently follow native alignment.
"""

from __future__ import annotations

import ast

from repro.lint.walker import FileContext, Finding, RepoContext, Rule

__all__ = ["FormatSpecRule"]

#: The modules docs/FORMAT.md documents.  Formats elsewhere (e.g. the
#: imagecodec experiments) are not part of the frozen wire surface.
FORMAT_MODULES = frozenset({
    "src/repro/core/container.py",
    "src/repro/core/integrity.py",
    "src/repro/sz/compressor.py",
    "src/repro/sz/bitstream.py",
    "src/repro/sz/huffman.py",
    "src/repro/sz/ieee754.py",
    "src/repro/sz/intcodec.py",
    "src/repro/sz/lz77.py",
    "src/repro/parallel/filestream.py",
    "src/repro/archive/store.py",
    "src/repro/service/protocol.py",
})
_STRUCT_FUNCS = (
    "Struct", "pack", "unpack", "pack_into", "unpack_from", "calcsize",
)


def _struct_literals(tree: ast.AST):
    """Yield ``(format_string, lineno)`` for literal struct formats.

    f-string formats (``f"<{ndim}Q"``) carry runtime-sized arrays and
    are out of scope — the spec documents them as patterns, not
    constants.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _STRUCT_FUNCS
                and isinstance(func.value, ast.Name)
                and func.value.id == "struct"):
            continue
        if node.args and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            yield node.args[0].value, node.lineno


def _magic_literals(tree: ast.AST):
    """Yield ``(ascii_magic, lineno)`` from ``*MAGIC* = b"...."``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(isinstance(t, ast.Name) and "MAGIC" in t.id
                   for t in node.targets):
            continue
        value = node.value
        if isinstance(value, ast.Constant) and isinstance(value.value, bytes) \
                and len(value.value) == 4:
            try:
                yield value.value.decode("ascii"), node.lineno
            except UnicodeDecodeError:
                yield repr(value.value), node.lineno


class FormatSpecRule(Rule):
    name = "format-spec"
    description = (
        "magic bytes and struct format strings in the wire-format "
        "modules must match the strings quoted in docs/FORMAT.md"
    )

    def check(self, ctx: FileContext, repo: RepoContext) -> list[Finding]:
        if ctx.relpath not in FORMAT_MODULES:
            return []
        findings = []
        seen_structs = repo.state.setdefault("formats-structs", set())
        seen_magics = repo.state.setdefault("formats-magics", set())
        for fmt, lineno in _struct_literals(ctx.tree):
            if not fmt.startswith("<"):
                findings.append(Finding(
                    path=ctx.relpath, line=lineno, rule=self.name,
                    message=(f"struct format {fmt!r} must be explicit "
                             "little-endian ('<...')"),
                ))
                continue
            body = fmt[1:]
            seen_structs.add(body)
            if body not in repo.documented_structs:
                findings.append(Finding(
                    path=ctx.relpath, line=lineno, rule=self.name,
                    message=(f"struct format {fmt!r} is not documented "
                             "in docs/FORMAT.md"),
                ))
        for magic, lineno in _magic_literals(ctx.tree):
            seen_magics.add(magic)
            if magic not in repo.documented_magics:
                findings.append(Finding(
                    path=ctx.relpath, line=lineno, rule=self.name,
                    message=(f"magic {magic!r} is not documented in "
                             "docs/FORMAT.md"),
                ))
        return findings

    def finalize(self, repo: RepoContext) -> list[Finding]:
        if not FORMAT_MODULES <= repo.scanned:
            return []
        findings = []
        seen_structs = repo.state.get("formats-structs", set())
        seen_magics = repo.state.get("formats-magics", set())
        for body in sorted(repo.documented_structs - seen_structs):
            findings.append(Finding(
                path="docs/FORMAT.md", line=0, rule=self.name,
                message=(f"documented struct format '<{body}' is not "
                         "defined by any wire-format module"),
            ))
        for magic in sorted(repo.documented_magics - seen_magics):
            findings.append(Finding(
                path="docs/FORMAT.md", line=0, rule=self.name,
                message=(f"documented magic {magic!r} is not defined by "
                         "any wire-format module"),
            ))
        return findings
