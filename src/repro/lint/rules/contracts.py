"""Exception-contract rule: parse paths may only raise contract types.

PR 9's fuzzers found two parser holes *dynamically* — an ``IndexError``
from a Kraft-oversubscribed Huffman table and a ``KeyError`` from a
section-renaming flip — both violations of the documented contract
that untrusted-bytes entry points raise only ``ValueError`` subclasses
(``ArchiveCorrupt``, ``ProtocolError``, ``AuthenticationError``).
That bug class is statically decidable from raise/except structure, so
this rule decides it: for every function reachable from a registered
entry point it computes the set of *raw* exception types that may
escape and propagates them over the call graph to a fixed point.

Modelled raw raisers (beyond explicit ``raise`` statements):

* ``struct.Struct.unpack`` / ``struct.unpack`` on untrusted bytes →
  ``struct.error`` (short-buffer);
* ``.decode(...)`` on untrusted bytes → ``UnicodeDecodeError``;
* subscripting an untrusted value with a string key → ``KeyError``
  (the section-rename shape);
* subscripting an untrusted value with an untrusted, non-constant
  index → ``IndexError`` (the Kraft-table shape).

"Untrusted" is forward dataflow seeded from every parameter of every
reachable function — entry points receive attacker bytes and hand
derived values down the graph.  Guard heuristics keep the model
honest: a raiser enclosed in a ``try`` whose handler catches the type
(directly or via a base class) does not escape, a string-key subscript
is waived when the function membership-tests the same container, and
an index subscript is waived when the function length-checks the same
container.  Residual false positives are what ``.lint-baseline.json``
is for — triaged, not silenced.

The contract itself lives in an injectable registry
(``RepoContext.exception_contracts``) so tests run against synthetic
packages; see :data:`DEFAULT_CONTRACTS` for the real tree's entry
points, including the documented ``RuntimeError`` split for
``service.jobs``/``service.client`` (docs/SERVICE.md §error model).
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch

from repro.lint.callgraph import CallGraph, dotted_name, get_callgraph
from repro.lint.dataflow import ForwardAnalysis, Tags
from repro.lint.walker import Finding, RepoContext, Rule

__all__ = ["ExceptionContractRule", "DEFAULT_CONTRACTS"]

#: The real tree's contract.  ``entry_points`` are qualname globs;
#: ``allowed`` are the contractual escape types (plus their in-graph
#: subclasses, discovered through the call graph); ``raw`` are the
#: leak types the rule hunts.  ``service.jobs.TransitionError`` and
#: ``service.client.ServiceError`` intentionally derive from
#: ``RuntimeError`` — they signal *caller programming errors* and
#: *transport failures*, never untrusted-input shape — so they are
#: contractual for the service layer but must not surface from parse
#: entry points; the registry encodes that by listing them under
#: ``internal`` (allowed to exist, flagged if reachable from an
#: untrusted-bytes entry point's parse path is not required).
DEFAULT_CONTRACTS: dict = {
    "entry_points": [
        "repro.sz.huffman.deserialize_tree",
        "repro.sz.huffman.deserialize_lane_tree",
        "repro.sz.lz77.decompress",
        "repro.sz.compressor.SZCompressor.parse_meta",
        "repro.sz.lossless.decompress",
        "repro.core.container.parse_container",
        "repro.core.container.unpack_sections",
        "repro.core.integrity.verify_and_strip",
        "repro.core.integrity.read_header",
        "repro.core.protect.Sealer.open",
        "repro.core.schemes.*.unprotect",
        "repro.archive.store.ArchiveStore._load",
        "repro.archive.store.ArchiveStore._parse_index",
        "repro.archive.store._decode",
        "repro.archive.store._split_secb_v1",
        "repro.parallel.filestream.read_secm",
        "repro.service.protocol.unpack_header",
        "repro.service.protocol.unpack_submit",
    ],
    "allowed": [
        "ValueError",
        "ArchiveCorrupt",
        "ProtocolError",
        "AuthenticationError",
    ],
    # RuntimeError family: contractual for the service layer only
    # (documented in docs/SERVICE.md), never for parse entry points.
    "internal": ["ServiceError", "TransitionError", "JobPending"],
    "raw": ["KeyError", "IndexError", "struct.error", "UnicodeDecodeError"],
}

#: Handler types that catch each raw type (Python's own MRO).
_CATCHERS: dict[str, frozenset[str]] = {
    "KeyError": frozenset(
        ("KeyError", "LookupError", "Exception", "BaseException")
    ),
    "IndexError": frozenset(
        ("IndexError", "LookupError", "Exception", "BaseException")
    ),
    "struct.error": frozenset(
        ("struct.error", "error", "Exception", "BaseException")
    ),
    "UnicodeDecodeError": frozenset(
        ("UnicodeDecodeError", "UnicodeError", "ValueError",
         "Exception", "BaseException")
    ),
}

_UNTRUSTED = "untrusted"


def _matches(qualname: str, patterns: list[str]) -> bool:
    return any(
        fnmatch(qualname, pattern) or qualname.endswith("." + pattern)
        for pattern in patterns
    )


class _TaintMap(ForwardAnalysis):
    """Dataflow pass that records, per AST node, whether the values a
    raiser depends on were untrusted at that program point."""

    def __init__(self, fn, seed):
        super().__init__(fn, seed)
        #: id(node) -> True for Subscript/Call/Attribute nodes whose
        #: relevant operand carried the untrusted tag when reached.
        self.tainted_nodes: dict[int, bool] = {}

    def call_tags(self, call: ast.Call, state) -> Tags:
        # A call over untrusted arguments — or a method call on an
        # untrusted receiver (``blob.split``, ``buf.read``) — yields
        # untrusted data: the parse helpers all transform attacker
        # bytes into attacker structure.  Record the taint for the
        # raiser model too.
        tags: Tags = frozenset()
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            tags |= self.expr_tags(arg, state)
        if isinstance(call.func, ast.Attribute):
            tags |= self.expr_tags(call.func.value, state)
        self.tainted_nodes[id(call)] = _UNTRUSTED in tags
        return tags

    def visit_expr(self, expr: ast.AST, state) -> None:
        if isinstance(expr, ast.Subscript):
            value_tags = self.expr_tags(expr.value, state)
            slice_tags = self.expr_tags(expr.slice, state)
            self.tainted_nodes[id(expr)] = (
                _UNTRUSTED in value_tags or _UNTRUSTED in slice_tags
            )
        elif isinstance(expr, ast.Call):
            tags: Tags = frozenset()
            for arg in list(expr.args) + [kw.value for kw in expr.keywords]:
                tags |= self.expr_tags(arg, state)
            if isinstance(expr.func, ast.Attribute):
                tags |= self.expr_tags(expr.func.value, state)
            self.tainted_nodes.setdefault(id(expr), _UNTRUSTED in tags)


def _guard_roots(fn: ast.AST) -> tuple[set[str], set[str]]:
    """(membership-tested roots, length-checked roots) in ``fn``.

    A container that the function membership-tests (``if k in d`` /
    ``k not in d``) is treated as KeyError-guarded; one whose length
    feeds a comparison (``if len(buf) < 9``) as IndexError-guarded.
    """
    membership: set[str] = set()
    length: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Compare):
            for op, comparator in zip(node.ops, node.comparators):
                if isinstance(op, (ast.In, ast.NotIn)):
                    root = _root_name(comparator)
                    if root:
                        membership.add(root)
            for side in [node.left, *node.comparators]:
                root = _len_arg_root(side)
                if root:
                    length.add(root)
        elif isinstance(node, ast.Call):
            # d.get(k) is the sanctioned KeyError-free access.
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"):
                root = _root_name(node.func.value)
                if root:
                    membership.add(root)
    return membership, length


def _root_name(node: ast.AST) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _unpack_buffer_root(call: ast.Call) -> str | None:
    """The buffer argument's root name for an unpack call.

    ``S.unpack(buf)`` / ``S.unpack_from(buf, off)`` take the buffer
    first; module-level ``struct.unpack(fmt, buf)`` takes the format
    string first — a literal/f-string first argument marks that form.
    """
    args = call.args
    if not args:
        return None
    first_is_format = isinstance(args[0], ast.JoinedStr) or (
        isinstance(args[0], ast.Constant) and isinstance(args[0].value, str)
    )
    index = 1 if first_is_format else 0
    return _root_name(args[index]) if len(args) > index else None


def _len_arg_root(node: ast.AST) -> str | None:
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "len" and node.args):
        return _root_name(node.args[0])
    return None


def _handler_names(handler: ast.ExceptHandler) -> set[str]:
    if handler.type is None:
        return {"BaseException"}
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names: set[str] = set()
    for node in types:
        dotted = dotted_name(node)
        if dotted:
            names.add(dotted)
            names.add(dotted.rsplit(".", 1)[-1])
    return names


_LOOKUP_CATCHERS = frozenset(
    ("KeyError", "IndexError", "LookupError", "Exception", "BaseException")
)


def _is_caught(raw_type: str, handler_stack: list[set[str]]) -> bool:
    catchers = _CATCHERS.get(raw_type, frozenset((raw_type, "Exception",
                                                  "BaseException")))
    return any(names & catchers for names in handler_stack)


class _RaiseCollector:
    """Walk one function body tracking enclosing ``try`` handlers and
    collect uncaught raw raises plus uncaught call sites."""

    def __init__(self, rule: "ExceptionContractRule", info,
                 taint: _TaintMap, raw_types: list[str]) -> None:
        self.rule = rule
        self.info = info
        self.taint = taint
        self.raw_types = raw_types
        self.membership, self.length = _guard_roots(info.node)
        #: Call nodes resolved to in-graph functions: their bodies are
        #: analyzed directly, so the implicit-raiser name heuristics
        #: (``.decode`` → UnicodeDecodeError, ``unpack`` →
        #: struct.error) must not fire on them — ``huffman.decode`` is
        #: a Huffman decoder, not ``bytes.decode``.
        self.resolved_calls = {
            id(site.node) for site in info.calls if site.callee is not None
        }
        #: (raw type, line) locally raised and not caught.
        self.raises: set[tuple[str, int]] = set()
        #: (CallSite line, frozenset of handler-name sets) for
        #: propagation — a callee escape is filtered by the handlers
        #: active at its call site.
        self.call_guards: dict[int, list[set[str]]] = {}

    def collect(self) -> None:
        self._walk(self.info.node.body, [])

    def _record(self, raw_type: str, line: int,
                handler_stack: list[set[str]], *,
                lookup: bool = False) -> None:
        if raw_type not in self.raw_types:
            return
        if lookup:
            # Synthesized subscript risks: the model cannot tell a
            # dict from a sequence, so a handler for either lookup
            # error counts as having considered the failure.
            caught = any(
                names & _LOOKUP_CATCHERS for names in handler_stack
            )
        else:
            caught = _is_caught(raw_type, handler_stack)
        if not caught:
            self.raises.add((raw_type, line))

    def _walk(self, body: list[ast.stmt],
              handler_stack: list[set[str]]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Try):
                caught = set()
                for handler in stmt.handlers:
                    caught |= _handler_names(handler)
                self._walk(stmt.body, handler_stack + [caught])
                for handler in stmt.handlers:
                    self._walk(handler.body, handler_stack)
                self._walk(stmt.orelse, handler_stack)
                self._walk(stmt.finalbody, handler_stack)
                continue
            if isinstance(stmt, ast.Raise) and stmt.exc is not None:
                target = stmt.exc
                if isinstance(target, ast.Call):
                    target = target.func
                dotted = dotted_name(target)
                if dotted:
                    self._record(dotted, stmt.lineno, handler_stack)
            # Expressions attached directly to this statement (the
            # nested statement lists recurse below, so nothing is
            # scanned twice or under the wrong handler stack).
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._scan_expr(child, handler_stack)
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._scan_expr(item.context_expr, handler_stack)
            for attr in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, attr, None)
                if isinstance(sub, list):
                    self._walk(sub, handler_stack)

    def _scan_expr(self, expr: ast.AST,
                   handler_stack: list[set[str]]) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._visit_call(node, handler_stack)
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Load
            ):
                self._visit_subscript(node, handler_stack)

    def _visit_call(self, node: ast.Call,
                    handler_stack: list[set[str]]) -> None:
        dotted = dotted_name(node.func) or ""
        tail = dotted.rsplit(".", 1)[-1]
        tainted = (
            self.taint.tainted_nodes.get(id(node), False)
            and id(node) not in self.resolved_calls
        )
        if tail in ("unpack", "unpack_from") and tainted:
            # A function that length-checks the buffer it unpacks has
            # done its contract homework; one that doesn't is exactly
            # the short-read hole this rule exists for.
            buffer_root = _unpack_buffer_root(node)
            if buffer_root is None or buffer_root not in self.length:
                self._record("struct.error", node.lineno, handler_stack)
        elif tail == "decode" and tainted and isinstance(
            node.func, ast.Attribute
        ):
            self._record("UnicodeDecodeError", node.lineno, handler_stack)
        # Record handler context for summary propagation.
        self.call_guards.setdefault(node.lineno, []).extend(
            set(s) for s in handler_stack
        )

    def _visit_subscript(self, node: ast.Subscript,
                         handler_stack: list[set[str]]) -> None:
        if not self.taint.tainted_nodes.get(id(node), False):
            return
        root = _root_name(node.value)
        guarded = root in self.membership or root in self.length
        key = node.slice
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            if not guarded:
                self._record("KeyError", node.lineno, handler_stack,
                             lookup=True)
        elif not isinstance(key, (ast.Constant, ast.Slice)):
            if not guarded:
                self._record("IndexError", node.lineno, handler_stack,
                             lookup=True)


class ExceptionContractRule(Rule):
    name = "exception-contract"
    description = (
        "untrusted-bytes parse entry points may only let contractual "
        "error types escape (ValueError subclasses: ArchiveCorrupt, "
        "ProtocolError, AuthenticationError); reachable raw KeyError/"
        "IndexError/struct.error/UnicodeDecodeError are findings"
    )

    def finalize(self, repo: RepoContext) -> list[Finding]:
        contracts = repo.exception_contracts or DEFAULT_CONTRACTS
        graph = get_callgraph(repo)
        entries = [
            qualname for qualname in graph.functions
            if _matches(qualname, contracts["entry_points"])
        ]
        if not entries:
            return []
        reachable = self._reachable(graph, entries)
        raw_types = list(contracts["raw"])
        local: dict[str, _RaiseCollector] = {}
        for qualname in reachable:
            info = graph.functions[qualname]
            taint = _TaintMap(
                info.node,
                {param: frozenset((_UNTRUSTED,)) for param in info.params},
            )
            taint.run()
            collector = _RaiseCollector(self, info, taint, raw_types)
            collector.collect()
            local[qualname] = collector
        escapes = self._fixed_point(graph, reachable, local)
        return self._report(graph, entries, escapes, contracts)

    # -- analysis ------------------------------------------------------

    def _reachable(self, graph: CallGraph, entries: list[str]) -> set[str]:
        seen: set[str] = set()
        stack = list(entries)
        while stack:
            qualname = stack.pop()
            if qualname in seen or qualname not in graph.functions:
                continue
            seen.add(qualname)
            for site in graph.functions[qualname].calls:
                if site.callee is not None:
                    stack.append(site.callee)
        return seen

    def _fixed_point(
        self, graph: CallGraph, reachable: set[str],
        local: dict[str, _RaiseCollector],
    ) -> dict[str, set[tuple[str, str, int]]]:
        """qualname -> {(raw type, origin relpath, origin line)}."""
        escapes: dict[str, set[tuple[str, str, int]]] = {
            qualname: {
                (raw, graph.functions[qualname].relpath, line)
                for raw, line in collector.raises
            }
            for qualname, collector in local.items()
        }
        changed = True
        while changed:
            changed = False
            for qualname in reachable:
                info = graph.functions[qualname]
                collector = local[qualname]
                for site in info.calls:
                    if site.callee is None or site.callee not in escapes:
                        continue
                    guards = collector.call_guards.get(site.line, [])
                    for escape in escapes[site.callee]:
                        raw = escape[0]
                        if _is_caught(raw, guards):
                            continue
                        if escape not in escapes[qualname]:
                            escapes[qualname].add(escape)
                            changed = True
        return escapes

    def _report(
        self, graph: CallGraph, entries: list[str],
        escapes: dict[str, set[tuple[str, str, int]]], contracts: dict,
    ) -> list[Finding]:
        findings: list[Finding] = []
        seen: set[tuple[str, int, str]] = set()
        for entry in sorted(entries):
            for raw, relpath, line in sorted(escapes.get(entry, ())):
                key = (relpath, line, raw)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(Finding(
                    path=relpath, line=line, rule=self.name,
                    message=(
                        f"raw {raw} can escape untrusted-bytes entry "
                        f"point {entry}; contract allows only "
                        + "/".join(contracts["allowed"])
                    ),
                ))
        return findings
