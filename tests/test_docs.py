"""Keep the markdown honest: links must resolve, examples must run.

Two checks over README.md and every ``*.md`` under ``docs/`` (plus the
top-level DESIGN/EXPERIMENTS/ROADMAP files):

* every relative link target exists in the repo;
* every fenced ```` ```python ```` block executes.  Blocks that are
  deliberately illustrative opt out with the ``python no-run`` info
  string (same for ``json no-run`` etc., which are never executed).
"""

import os
import re
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOC_FILES = sorted(
    [
        p
        for p in (
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "ROADMAP.md",
            "PAPER.md",
            "CHANGES.md",
        )
        if os.path.exists(os.path.join(REPO, p))
    ]
    + [
        os.path.join("docs", name)
        for name in os.listdir(os.path.join(REPO, "docs"))
        if name.endswith(".md")
    ]
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^```(.*)$")


def iter_links(text):
    """Relative link targets, with #fragments and ``<>`` stripped."""
    fenced = False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
            continue
        if fenced:
            continue
        for target in _LINK.findall(line):
            target = target.strip("<>")
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            yield target.split("#", 1)[0]


def iter_python_blocks(text):
    """(info_string, source) for every fenced code block."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        m = _FENCE.match(lines[i])
        if m and lines[i].startswith("```") and lines[i] != "```":
            info = m.group(1).strip()
            body = []
            i += 1
            while i < len(lines) and not lines[i].startswith("```"):
                body.append(lines[i])
                i += 1
            yield info, "\n".join(body)
        i += 1


@pytest.mark.parametrize("doc", DOC_FILES)
def test_relative_links_resolve(doc):
    with open(os.path.join(REPO, doc), encoding="utf-8") as fh:
        text = fh.read()
    base = os.path.dirname(os.path.join(REPO, doc))
    broken = [
        target
        for target in iter_links(text)
        if target and not os.path.exists(os.path.join(base, target))
    ]
    assert not broken, f"{doc}: broken relative links: {broken}"


def collect_runnable_blocks():
    found = []
    for doc in DOC_FILES:
        with open(os.path.join(REPO, doc), encoding="utf-8") as fh:
            text = fh.read()
        for idx, (info, source) in enumerate(iter_python_blocks(text)):
            if info.split() and info.split()[0] == "python" and (
                "no-run" not in info
            ):
                found.append(pytest.param(doc, source, id=f"{doc}#{idx}"))
    return found


@pytest.mark.parametrize("doc,source", collect_runnable_blocks())
def test_fenced_python_blocks_execute(doc, source, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"{doc}: fenced python block failed:\n{proc.stderr}"
    )


def test_readme_has_a_runnable_block():
    """The opt-out must not quietly swallow everything."""
    assert any(doc == "README.md" for doc, _ in
               (p.values for p in collect_runnable_blocks()))


# ----------------------------------------------------------------------
# CLI flag drift: every documented `secz` flag must exist in the parser
# ----------------------------------------------------------------------

_SECZ_INVOCATION = re.compile(r"^\s*secz\s+([a-z-]+)\s+(.*)$")
_FLAG = re.compile(r"(--[a-z][a-z0-9-]*)")


def _collect_parser_flags(prefix, parser, flags):
    """Walk ``parser`` (and any nested subparsers, e.g. ``secz archive
    add``) into ``{command words: set of option strings}``."""
    if prefix:
        flags[prefix] = {
            opt for action in parser._actions
            for opt in action.option_strings
        }
    for action in parser._actions:
        if action.__class__.__name__ == "_SubParsersAction":
            for name, sub in action.choices.items():
                _collect_parser_flags(
                    f"{prefix} {name}".strip(), sub, flags
                )


def _parser_flags():
    """{subcommand: set of option strings} from the real parser."""
    sys.path.insert(0, os.path.join(REPO, "src"))
    try:
        from repro.cli import build_parser
    finally:
        sys.path.pop(0)
    flags = {}
    _collect_parser_flags("", build_parser(), flags)
    return flags


def collect_documented_invocations():
    """(doc, subcommand, flags) for every ``secz`` call in the docs and
    the ``secz --help`` epilog, scanning fenced blocks and continuation
    lines (trailing ``\\``)."""
    sources = list(DOC_FILES) + [os.path.join("src", "repro", "cli.py")]
    found = []
    for doc in sources:
        with open(os.path.join(REPO, doc), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        i = 0
        while i < len(lines):
            m = _SECZ_INVOCATION.match(lines[i])
            i += 1
            if m is None:
                continue
            command = m.group(1)
            rest = m.group(2)
            while rest.rstrip().endswith("\\") and i < len(lines):
                rest = rest.rstrip()[:-1] + " " + lines[i].strip()
                i += 1
            # Strip inline comments so `# --flag in prose` is not parsed.
            rest = rest.split("#", 1)[0]
            # Nested subcommands ("secz archive add ...") document the
            # verb as the first bare word after the command; whether it
            # really is a verb is resolved against the parser later.
            words = rest.split()
            subword = (
                words[0]
                if words and re.fullmatch(r"[a-z][a-z-]*", words[0])
                else None
            )
            found.append((doc, command, subword,
                          frozenset(_FLAG.findall(rest))))
    return found


def test_documented_secz_flags_exist_in_parser():
    parser_flags = _parser_flags()
    problems = []
    for doc, command, subword, flags in collect_documented_invocations():
        if subword and f"{command} {subword}" in parser_flags:
            command = f"{command} {subword}"
        if command not in parser_flags:
            problems.append(f"{doc}: unknown subcommand 'secz {command}'")
            continue
        for flag in sorted(flags - parser_flags[command]):
            problems.append(
                f"{doc}: 'secz {command}' has no flag {flag}"
            )
    assert not problems, "documented CLI drifted from the parser:\n" + \
        "\n".join(problems)


def test_docs_actually_document_secz_invocations():
    """The drift check must not pass vacuously."""
    invocations = collect_documented_invocations()
    assert len(invocations) >= 5
    assert any(flags for _, _, _, flags in invocations)


_CODE_SPAN = re.compile(r"`([^`]+)`")
_OTHER_SECZ_COMMAND = re.compile(r"\bsecz\s+(?!serve\b)[a-z]")


def collect_service_prose_flags():
    """Every backticked ``--flag`` in docs/SERVICE.md outside fenced
    blocks (the invocation audit reads those), except in spans that
    name another subcommand, such as `secz compress --seed N`."""
    with open(os.path.join(REPO, "docs", "SERVICE.md"),
              encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    prose, fenced = [], False
    for line in lines:
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced:
            prose.append(line)
    return {
        flag
        for span in _CODE_SPAN.findall("\n".join(prose))
        if not _OTHER_SECZ_COMMAND.search(span)
        for flag in _FLAG.findall(span)
    }


def test_service_prose_flags_are_serve_options():
    """Every flag SERVICE.md names in prose is an option of ``secz
    serve``, so a removed flag cannot outlive its description."""
    documented = collect_service_prose_flags()
    assert {"--workers", "--job-timeout", "--queue-limit"} <= documented
    unknown = sorted(documented - _parser_flags()["serve"])
    assert not unknown, f"docs/SERVICE.md names no-such serve flags: {unknown}"


def test_flag_audit_sees_nested_archive_verbs():
    """The walker must cover ``secz archive <verb>`` subparsers."""
    parser_flags = _parser_flags()
    assert "archive add" in parser_flags
    assert "--codec" in parser_flags["archive add"]
    assert "--deep" in parser_flags["archive verify"]
