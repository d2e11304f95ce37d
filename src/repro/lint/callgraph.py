"""Module-qualified call graph over the scanned tree.

PR 5's rules were per-file AST walks; the interprocedural rules
(exception-contract, secret-taint) need to know *who calls whom* so a
``struct.error`` raised three frames below ``parse_container`` is
still attributed to the entry point.  This module builds that graph
from the :class:`~repro.lint.walker.FileContext` objects of one lint
run — no imports are executed; resolution is purely syntactic:

* every ``def`` (module-level or method) becomes a
  :class:`FunctionInfo` keyed by its dotted qualname
  (``repro.sz.huffman.deserialize_tree``,
  ``repro.core.schemes.Scheme.unprotect``);
* calls are resolved through the file's import aliases
  (``from repro.sz import huffman as h; h.decode`` →
  ``repro.sz.huffman.decode``), module-level names, ``self.``/``cls.``
  dispatch (walking in-graph base classes), and bare class
  constructors (``AES128(...)`` → ``...AES128.__init__``);
* unresolvable calls (numpy, stdlib, dynamic dispatch) stay recorded
  with ``callee=None`` so analyses can decide how pessimistic to be.

The graph itself carries no analysis results; rules derive their own
per-function summaries (escaping exception types, taint flows) and
use :meth:`CallGraph.callees` to propagate them to a fixed point.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "CallGraph",
    "build_callgraph",
    "get_callgraph",
    "module_name",
    "dotted_name",
]


def module_name(relpath: str) -> str | None:
    """Dotted module name for a ``src/``-rooted relpath.

    ``src/repro/sz/huffman.py`` → ``repro.sz.huffman``;
    ``src/repro/lint/__init__.py`` → ``repro.lint``.  Paths outside a
    ``src/`` root return ``None`` (the graph ignores them).
    """
    if not relpath.startswith("src/") or not relpath.endswith(".py"):
        return None
    parts = relpath[len("src/") : -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else None


def dotted_name(node: ast.AST) -> str | None:
    """The dotted text of a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    #: Resolved callee qualname, or ``None`` for out-of-graph calls.
    callee: str | None
    #: The dotted source text of the call target (for diagnostics).
    raw: str
    node: ast.Call
    line: int


@dataclass
class FunctionInfo:
    """One function or method plus everything analyses need."""

    qualname: str
    module: str
    relpath: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Owning class qualname for methods, ``None`` at module level.
    owner: str | None
    #: Positional parameter names, ``self``/``cls`` already stripped
    #: for ordinary methods (kept for staticmethods).
    params: list[str] = field(default_factory=list)
    decorators: list[str] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    qualname: str
    module: str
    node: ast.ClassDef
    #: Dotted base-class names as written (resolved through imports).
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)


class _ModuleIndex:
    """Per-module name tables used during resolution."""

    def __init__(self, module: str) -> None:
        self.module = module
        #: local alias -> dotted target ("h" -> "repro.sz.huffman").
        self.aliases: dict[str, str] = {}
        #: module-level def name -> qualname.
        self.functions: dict[str, str] = {}
        #: class name -> ClassInfo.
        self.classes: dict[str, ClassInfo] = {}


class CallGraph:
    """The resolved whole-program graph for one lint run."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._modules: dict[str, _ModuleIndex] = {}

    # -- queries -------------------------------------------------------

    def callees(self, qualname: str) -> list[CallSite]:
        info = self.functions.get(qualname)
        return list(info.calls) if info else []

    def callers(self, qualname: str) -> list[str]:
        return [
            caller for caller, info in self.functions.items()
            if any(site.callee == qualname for site in info.calls)
        ]

    def subclasses_of(self, base: str) -> set[str]:
        """Transitive in-graph subclasses of a (possibly builtin) base.

        ``base`` may be a bare builtin name (``ValueError``) or an
        in-graph class qualname; matching follows resolved base names
        and bare tails so ``class ArchiveCorrupt(ValueError)`` counts.
        """
        out: set[str] = set()
        changed = True
        while changed:
            changed = False
            for cls in self.classes.values():
                if cls.qualname in out:
                    continue
                for parent in cls.bases:
                    tail = parent.rsplit(".", 1)[-1]
                    if (
                        parent == base
                        or tail == base.rsplit(".", 1)[-1]
                        or parent in out
                        or any(o.endswith("." + tail) for o in out)
                    ):
                        out.add(cls.qualname)
                        changed = True
                        break
        return out

    def method_resolution(self, cls_qualname: str, attr: str) -> str | None:
        """Find ``attr`` on a class or its in-graph ancestors."""
        seen: set[str] = set()
        stack = [cls_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if attr in cls.methods:
                return cls.methods[attr]
            for parent in cls.bases:
                resolved = self._resolve_class(cls.module, parent)
                if resolved is not None:
                    stack.append(resolved)
        return None

    # -- resolution internals -----------------------------------------

    def _resolve_class(self, module: str, dotted: str) -> str | None:
        """A dotted class reference as written → class qualname."""
        if dotted in self.classes:
            return dotted
        index = self._modules.get(module)
        if index is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in index.classes and not rest:
            return index.classes[head].qualname
        target = index.aliases.get(head)
        if target is not None:
            candidate = f"{target}.{rest}" if rest else target
            if candidate in self.classes:
                return candidate
        return None

    def resolve(self, module: str, owner: str | None,
                func: ast.AST) -> str | None:
        """Resolve a call target expression to an in-graph qualname."""
        dotted = dotted_name(func)
        if dotted is None:
            return None
        index = self._modules.get(module)
        if index is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in ("self", "cls") and owner is not None:
            return self.method_resolution(owner, rest) if rest else None
        if not rest:
            if head in index.functions:
                return index.functions[head]
            if head in index.classes:
                cls = index.classes[head]
                return cls.methods.get("__init__")
            target = index.aliases.get(head)
            if target is not None:
                if target in self.functions:
                    return target
                if target in self.classes:
                    return self.classes[target].methods.get("__init__")
            return None
        # Dotted: walk the alias table, then in-graph modules/classes.
        target = index.aliases.get(head)
        base = target if target is not None else head
        candidate = f"{base}.{rest}"
        if candidate in self.functions:
            return candidate
        if candidate in self.classes:
            return self.classes[candidate].methods.get("__init__")
        # One more hop: "mod.Class.method" written through an alias of
        # the *package* ("schemes.Scheme.unprotect").
        resolved_cls = self._resolve_class(module, candidate.rsplit(".", 1)[0])
        if resolved_cls is not None:
            return self.method_resolution(
                resolved_cls, candidate.rsplit(".", 1)[1]
            )
        return None


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    names = []
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        dotted = dotted_name(target)
        if dotted:
            names.append(dotted)
    return names


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef,
                 *, method: bool) -> list[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    decorators = _decorator_names(node)
    if method and "staticmethod" not in decorators and names:
        names = names[1:]  # drop self/cls
    names += [a.arg for a in args.kwonlyargs]
    return names


def build_callgraph(contexts) -> CallGraph:
    """Build the graph from an iterable of FileContext objects.

    Two passes: declarations (so forward references between modules
    resolve), then call-site resolution.
    """
    graph = CallGraph()
    parsed: list[tuple[str, object]] = []
    for ctx in contexts:
        module = module_name(ctx.relpath)
        if module is None:
            continue
        parsed.append((module, ctx))
        index = _ModuleIndex(module)
        graph._modules[module] = index
        _declare(graph, index, ctx, module)
    for module, ctx in parsed:
        _resolve_calls(graph, ctx, module)
    return graph


def get_callgraph(repo) -> CallGraph:
    """The (cached) call graph for one lint run's scanned contexts.

    Interprocedural rules share a single graph per run; the runner
    stores every parsed :class:`FileContext` on the repo, and the
    first rule to ask pays the build cost.
    """
    graph = repo.state.get("callgraph")
    if graph is None:
        graph = build_callgraph(repo.contexts.values())
        repo.state["callgraph"] = graph
    return graph


def _declare(graph: CallGraph, index: _ModuleIndex, ctx, module: str) -> None:
    for node in ctx.tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                index.aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    index.aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = _absolute_module(module, node)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                index.aliases[alias.asname or alias.name] = (
                    f"{base}.{alias.name}"
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{module}.{node.name}"
            index.functions[node.name] = qualname
            graph.functions[qualname] = FunctionInfo(
                qualname=qualname, module=module, relpath=ctx.relpath,
                node=node, owner=None,
                params=_param_names(node, method=False),
                decorators=_decorator_names(node),
            )
        elif isinstance(node, ast.ClassDef):
            cls_qualname = f"{module}.{node.name}"
            cls = ClassInfo(
                qualname=cls_qualname, module=module, node=node,
                bases=[d for b in node.bases if (d := dotted_name(b))],
            )
            index.classes[node.name] = cls
            graph.classes[cls_qualname] = cls
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{cls_qualname}.{item.name}"
                    cls.methods[item.name] = qualname
                    graph.functions[qualname] = FunctionInfo(
                        qualname=qualname, module=module,
                        relpath=ctx.relpath, node=item, owner=cls_qualname,
                        params=_param_names(item, method=True),
                        decorators=_decorator_names(item),
                    )


def _absolute_module(module: str, node: ast.ImportFrom) -> str | None:
    if node.level == 0:
        return node.module
    # Relative import: resolve against the importing module's package.
    parts = module.split(".")
    if node.level > len(parts):
        return None
    base = parts[: len(parts) - (node.level - 1)]
    if node.module:
        base.append(node.module)
    return ".".join(base)


def _resolve_calls(graph: CallGraph, ctx, module: str) -> None:
    for info in graph.functions.values():
        if info.module != module or info.relpath != ctx.relpath:
            continue
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            raw = dotted_name(node.func) or "<dynamic>"
            callee = graph.resolve(module, info.owner, node.func)
            info.calls.append(CallSite(
                callee=callee, raw=raw, node=node, line=node.lineno,
            ))
