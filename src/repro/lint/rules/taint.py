"""Secret-taint rule: key material may not flow to observable sinks.

The paper's security argument (and docs/SECURITY.md's) rests on key,
nonce, keystream and round-key material never leaving the cipher
core.  This rule checks that statically: values originating from
secret-named parameters (``key``, ``nonce``, ``iv``, ``keystream``,
``round_keys``...) or from :mod:`repro.crypto.rng` generator calls may
not reach

* exception messages (``raise X(f"bad key {key!r}")``),
* ``print``/``logging`` calls,
* trace span attributes and counters (``tracer.span(..., key=key)``,
  ``span.annotate``),
* ``repr``/``str`` conversions that feed any of the above,
* file/socket writes outside the sanctioned seal paths.

Sanitizers break the flow: ``len``/``bool``/``type`` results are
clean, and so are the ``encrypt*``/``seal``/``protect`` families —
ciphertext is public by design.  Sources, sinks, and sanitizers live
in an injectable registry (``RepoContext.taint_registry``) so tests
run against synthetic ones.

Propagation is the engine's standard two-level scheme: one dataflow
pass per function computes a summary (which parameters flow to the
return value, whether the function's own result is secret), then a
fixed point over the call graph lets ``derive_round_keys(key)``'s
secret result taint its callers.  Sink checks run in a second pass
with the converged summaries plugged into :meth:`call_tags`.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch

from repro.lint.callgraph import dotted_name, get_callgraph
from repro.lint.dataflow import ForwardAnalysis, Tags
from repro.lint.walker import Finding, RepoContext, Rule

__all__ = ["SecretTaintRule", "DEFAULT_TAINT"]

_SECRET = "secret"

DEFAULT_TAINT: dict = {
    # Parameter names (exact, after self/cls stripping) treated as
    # secret sources wherever they appear in src/repro.
    "source_params": [
        "key", "nonce", "iv", "keystream", "round_key", "round_keys",
        "master_key", "session_key", "passphrase", "secret",
    ],
    # Call targets whose *result* is secret (dotted-name globs).
    "source_calls": [
        "*.generate_iv", "*.generate_nonce", "*.ctr_keystream",
        "*.derive_round_keys", "*.expand_key", "*.key_schedule",
        "secrets.token_bytes", "os.urandom",
    ],
    # Call targets whose result is clean even over secret arguments.
    "sanitizers": [
        "len", "bool", "type", "id", "isinstance", "range",
        "*.encrypt", "*.encrypt_cbc", "*.encrypt_ctr", "*.cbc_encrypt",
        "*.ctr_xcrypt", "*.seal", "*.protect", "*.hex_digest",
        "*.sha256_digest",
    ],
    # Logging/diagnostic call targets: any secret positional or
    # keyword argument is a finding.
    "log_sinks": [
        "print", "logging.*", "*.logger.*", "log.*", "*.log",
        "warnings.warn",
    ],
    # Span/annotation calls: secret *keyword* values leak into trace
    # exports (the repo convention passes attrs as **kwargs).
    "span_sinks": [
        "*.span", "*.annotate", "*.count", "*.count_many",
    ],
    # Write-method tails flagged outside the allowed paths.
    "write_sinks": ["write", "write_bytes", "write_text", "sendall"],
    # Seal paths: modules allowed to write secret-derived bytes (the
    # container/integrity writers emit sealed material by design).
    "write_allowed": [
        "src/repro/core/container.py",
        "src/repro/core/integrity.py",
        "src/repro/crypto/*",
    ],
}


def _glob_any(name: str, patterns: list[str]) -> bool:
    return any(fnmatch(name, pattern) for pattern in patterns)


class _SummaryPass(ForwardAnalysis):
    """Per-function pass: seed every parameter with ``param:<name>``
    and secret sources with ``secret``; ``return_tags`` afterwards is
    the function's flow summary."""

    def __init__(self, fn, params, registry, summaries, resolve,
                 functions):
        seed = {}
        for param in params:
            tags = {f"param:{param}"}
            if param in registry["source_params"]:
                tags.add(_SECRET)
            seed[param] = frozenset(tags)
        super().__init__(fn, seed)
        self.registry = registry
        self.summaries = summaries
        self.resolve = resolve
        self.functions = functions

    def sanitizes(self, call: ast.Call) -> bool:
        dotted = dotted_name(call.func) or ""
        return _glob_any(dotted, self.registry["sanitizers"]) or _glob_any(
            dotted.rsplit(".", 1)[-1], self.registry["sanitizers"]
        )

    def call_tags(self, call: ast.Call, state) -> Tags:
        dotted = dotted_name(call.func) or ""
        if _glob_any(dotted, self.registry["source_calls"]):
            return frozenset((_SECRET,))
        callee = self.resolve(call.func)
        arg_tags: Tags = frozenset()
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            arg_tags |= self.expr_tags(arg, state)
        if callee is None:
            # Unknown callee: assume it passes taint through (a str
            # join, a numpy reshape... all preserve the bytes).
            return arg_tags
        summary = self.summaries.get(callee, frozenset())
        out: set[str] = set()
        if _SECRET in summary:
            out.add(_SECRET)
        # Map "param:<name>" entries in the callee summary back to the
        # argument tags at this call site.
        params = self.callee_params(callee)
        for index, arg in enumerate(call.args):
            if index < len(params) and f"param:{params[index]}" in summary:
                out |= self.expr_tags(arg, state)
        for kw in call.keywords:
            if kw.arg and f"param:{kw.arg}" in summary:
                out |= self.expr_tags(kw.value, state)
        return frozenset(out)

    def callee_params(self, callee: str) -> list[str]:
        info = self.functions.get(callee)
        return info.params if info else []


class _SinkPass(_SummaryPass):
    """Second pass: same transfer, plus sink checks per statement."""

    def __init__(self, fn, params, registry, summaries, resolve,
                 functions, relpath, rule_name):
        super().__init__(fn, params, registry, summaries, resolve,
                         functions)
        self.relpath = relpath
        self.rule_name = rule_name
        self.findings: list[Finding] = []
        self._reported: set[tuple[int, str]] = set()

    def _flag(self, line: int, what: str) -> None:
        if (line, what) in self._reported:
            return
        self._reported.add((line, what))
        self.findings.append(Finding(
            path=self.relpath, line=line, rule=self.rule_name,
            message=f"secret-derived value reaches {what}",
        ))

    def visit_stmt(self, stmt: ast.stmt, state) -> None:
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            if isinstance(stmt.exc, ast.Call):
                for arg in list(stmt.exc.args) + [
                    kw.value for kw in stmt.exc.keywords
                ]:
                    if _SECRET in self.expr_tags(arg, state):
                        self._flag(stmt.lineno, "an exception message")

    def visit_expr(self, expr: ast.AST, state) -> None:
        if not isinstance(expr, ast.Call):
            return
        dotted = dotted_name(expr.func) or ""
        tail = dotted.rsplit(".", 1)[-1]
        all_args = list(expr.args) + [kw.value for kw in expr.keywords]
        if _glob_any(dotted, self.registry["log_sinks"]):
            if any(_SECRET in self.expr_tags(a, state) for a in all_args):
                self._flag(expr.lineno, f"a log call ({dotted})")
        if _glob_any(dotted, self.registry["span_sinks"]):
            for kw in expr.keywords:
                if _SECRET in self.expr_tags(kw.value, state):
                    self._flag(
                        expr.lineno,
                        f"a trace span attribute ({dotted}({kw.arg}=...))",
                    )
        if tail == "repr" or dotted == "repr":
            if any(_SECRET in self.expr_tags(a, state) for a in expr.args):
                self._flag(expr.lineno, "repr()")
        if tail in self.registry["write_sinks"] and not _glob_any(
            self.relpath, self.registry["write_allowed"]
        ):
            if any(_SECRET in self.expr_tags(a, state) for a in all_args):
                self._flag(
                    expr.lineno,
                    f"a file/socket write (.{tail}) outside the seal paths",
                )


class SecretTaintRule(Rule):
    name = "secret-taint"
    description = (
        "key/nonce/keystream material must not flow into logs, "
        "exception messages, trace span attrs, repr, or writes "
        "outside the seal paths"
    )

    def finalize(self, repo: RepoContext) -> list[Finding]:
        registry = repo.taint_registry or DEFAULT_TAINT
        graph = get_callgraph(repo)
        if not graph.functions:
            return []
        summaries = self._converge_summaries(graph, registry)
        findings: list[Finding] = []
        for qualname, info in sorted(graph.functions.items()):
            sink_pass = _SinkPass(
                info.node, info.params, registry, summaries,
                lambda func, _m=info.module, _o=info.owner: graph.resolve(
                    _m, _o, func
                ),
                graph.functions, info.relpath, self.name,
            )
            sink_pass.run()
            findings.extend(sink_pass.findings)
        return findings

    def _converge_summaries(self, graph, registry) -> dict[str, Tags]:
        summaries: dict[str, Tags] = {
            qualname: frozenset() for qualname in graph.functions
        }
        for _ in range(10):  # graphs this size converge in 2-3 rounds
            changed = False
            for qualname, info in graph.functions.items():
                summary_pass = _SummaryPass(
                    info.node, info.params, registry, summaries,
                    lambda func, _m=info.module, _o=info.owner:
                        graph.resolve(_m, _o, func),
                    graph.functions,
                )
                summary_pass.run()
                new = summary_pass.return_tags
                if new != summaries[qualname]:
                    summaries[qualname] = new
                    changed = True
            if not changed:
                break
        return summaries
