"""Lock-discipline rule: guarded module state stays guarded.

The codebase now has real concurrency — service workers and the
process-wide codec cache touch shared state from multiple threads —
and "every access holds the right lock" was a reviewed-by-hand
invariant until this rule.  Two checks:

1. **Declared state is dominated by its lock.**  The registry
   (``RepoContext.lock_registry``) maps a module relpath to
   ``{state_name: lock_name}``; every load or store of a declared
   name inside a function body must sit under a ``with <lock_name>:``
   ancestor in that function.  Module-level initialisation is exempt
   (it happens before threads exist), as is the guard expression
   itself.

2. **Undeclared module-level mutable state.**  A module-level
   ``dict``/``list``/``set``/``OrderedDict``/``defaultdict`` binding
   that any function in the module mutates (subscript-store, ``del``,
   or a mutating method call) without appearing in the registry is a
   finding — shared mutable state must either be declared with its
   guarding lock or rewritten to not be shared.

The default registry covers the two real guarded stores: the Huffman
codec cache and the trace counters.  ALL-CAPS names are treated as
constants and skipped.
"""

from __future__ import annotations

import ast

from repro.lint.callgraph import dotted_name
from repro.lint.walker import FileContext, Finding, RepoContext, Rule

__all__ = ["LockDisciplineRule", "DEFAULT_LOCKS"]

#: module relpath -> {module-level state name: guarding lock name}.
DEFAULT_LOCKS: dict[str, dict[str, str]] = {
    "src/repro/sz/huffman.py": {"_codec_cache": "_codec_cache_lock"},
    "src/repro/core/trace.py": {"_counters": "_counters_lock"},
}

_MUTABLE_CTORS = ("dict", "list", "set", "OrderedDict", "defaultdict",
                  "deque", "Counter")
_MUTATORS = frozenset((
    "append", "extend", "add", "update", "pop", "popitem", "clear",
    "remove", "discard", "insert", "setdefault", "move_to_end",
    "appendleft", "popleft",
))


def _is_mutable_init(value: ast.AST) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        dotted = dotted_name(value.func) or ""
        return dotted.rsplit(".", 1)[-1] in _MUTABLE_CTORS
    return False


def _module_level_names(tree: ast.Module):
    """Yield ``(name, value-node, lineno)`` for module-level bindings."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.value, node.lineno
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                yield node.target.id, node.value, node.lineno


class _AccessWalker:
    """Walk a function body tracking the stack of held ``with`` locks."""

    def __init__(self, guarded: dict[str, str]) -> None:
        self.guarded = guarded
        #: (state name, lineno, lock name) for unguarded accesses.
        self.violations: list[tuple[str, int, str]] = []
        #: state names mutated anywhere in the function.
        self.mutated: set[str] = set()

    def walk(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._walk_body(fn.body, set())

    def _locks_in(self, stmt: ast.With | ast.AsyncWith) -> set[str]:
        names = set()
        for item in stmt.items:
            dotted = dotted_name(item.context_expr)
            if dotted:
                names.add(dotted)
        return names

    def _walk_body(self, body: list[ast.stmt], held: set[str]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = held | self._locks_in(stmt)
                for item in stmt.items:
                    self._scan_expr(item.context_expr, held)
                self._walk_body(stmt.body, inner)
                continue
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._scan_expr(child, held)
            if isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    root = target
                    while isinstance(root, (ast.Subscript, ast.Attribute)):
                        root = root.value
                    if isinstance(root, ast.Name):
                        self.mutated.add(root.id)
                        self._check(root.id, stmt.lineno, held)
            for attr in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, attr, None)
                if isinstance(sub, list):
                    self._walk_body(sub, held)
            if isinstance(stmt, ast.Try):
                for handler in stmt.handlers:
                    self._walk_body(handler.body, held)

    def _scan_expr(self, expr: ast.AST, held: set[str]) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                self._check(node.id, node.lineno, held)
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    self.mutated.add(node.id)
        # Mutating method calls and subscript stores count as writes.
        for node in ast.walk(expr):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS
                    and isinstance(node.func.value, ast.Name)):
                self.mutated.add(node.func.value.id)
            elif (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(node.value, ast.Name)):
                self.mutated.add(node.value.id)

    def _check(self, name: str, lineno: int, held: set[str]) -> None:
        lock = self.guarded.get(name)
        if lock is not None and lock not in held:
            self.violations.append((name, lineno, lock))


class LockDisciplineRule(Rule):
    name = "lock-discipline"
    description = (
        "module-level mutable state must be declared with its "
        "guarding lock, and every access must sit under that lock's "
        "with-block"
    )

    def check(self, ctx: FileContext, repo: RepoContext) -> list[Finding]:
        if not ctx.relpath.startswith("src/"):
            return []
        registry = repo.lock_registry or DEFAULT_LOCKS
        guarded = registry.get(ctx.relpath, {})
        module_names = {
            name: (value, lineno)
            for name, value, lineno in _module_level_names(ctx.tree)
        }
        findings: list[Finding] = []
        for state_name, lock_name in sorted(guarded.items()):
            if state_name not in module_names:
                findings.append(Finding(
                    path=ctx.relpath, line=0, rule=self.name,
                    message=(f"registry declares guarded state "
                             f"{state_name!r} but the module does not "
                             "define it"),
                ))
            if lock_name not in module_names:
                findings.append(Finding(
                    path=ctx.relpath, line=0, rule=self.name,
                    message=(f"registry declares lock {lock_name!r} for "
                             f"{state_name!r} but the module does not "
                             "define it"),
                ))
        mutated: set[str] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            walker = _AccessWalker(guarded)
            walker.walk(node)
            mutated |= walker.mutated
            for state_name, lineno, lock_name in walker.violations:
                findings.append(Finding(
                    path=ctx.relpath, line=lineno, rule=self.name,
                    message=(f"access to {state_name!r} is not under "
                             f"'with {lock_name}:'"),
                ))
        # Undeclared module-level mutable state mutated from functions.
        for name, (value, lineno) in sorted(module_names.items()):
            if name in guarded or name.isupper() or not _is_mutable_init(
                value
            ):
                continue
            if name in mutated:
                findings.append(Finding(
                    path=ctx.relpath, line=lineno, rule=self.name,
                    message=(f"module-level mutable state {name!r} is "
                             "mutated by functions but has no declared "
                             "guarding lock in the lock registry"),
                ))
        return findings
