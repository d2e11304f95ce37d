"""The tier-1 bridge: the linter must pass over the real ``src/`` tree,
and the doc/fixture registry parsers must see the real ground truth.

This is the test that makes a broken invariant — an unregistered
counter key, an edited magic byte, an undocumented span — fail the
ordinary test suite, not just ``secz lint``.
"""

from pathlib import Path

from repro import lint
from repro.core import trace

REPO = Path(__file__).resolve().parents[2]


def test_repo_root_detected():
    assert lint.find_repo_root(Path(__file__)) == REPO
    assert (REPO / "pyproject.toml").exists()


def test_src_tree_is_lint_clean():
    """Clean modulo the checked-in baseline: zero live findings, and
    every baseline entry still matches (none stale)."""
    report = lint.lint_paths([REPO / "src"], root=REPO)
    assert report.findings == [], "\n" + report.format_text()
    assert report.files_checked > 50
    assert len(report.rules_run) >= 6


def test_baseline_only_holds_triaged_exception_contract_rows():
    """The baseline is a triage record, not a mute button: any entry
    is an exception-contract row on the numpy-heavy decode internals,
    and the live run really is suppressing each one."""
    entries = lint.load_baseline(REPO / lint.BASELINE_FILENAME)
    assert {rule for rule, _, _ in entries} <= {"exception-contract"}
    assert all(path.startswith("src/repro/sz/") for _, path, _ in entries)
    report = lint.lint_paths([REPO / "src"], root=REPO)
    assert report.baseline_suppressed >= len(entries)


#: Triaged entries left in ``.lint-baseline.json``.  The ratchet only
#: turns down: fixing an escape deletes its entry and lowers this
#: number; a new triaged exception fails here until review raises it.
BASELINE_CEILING = 0


def test_baseline_only_shrinks():
    entries = lint.load_baseline(REPO / lint.BASELINE_FILENAME)
    assert len(entries) <= BASELINE_CEILING, (
        f"{len(entries)} baseline entries; fix the new finding instead "
        f"of triaging it (ceiling {BASELINE_CEILING})"
    )


def test_every_contract_entry_point_resolves():
    """Each exception-contract entry point names a function of the real
    tree: a renamed or deleted one fails here instead of silently
    dropping out of the analysis."""
    from repro.lint.callgraph import build_callgraph
    from repro.lint.rules.contracts import DEFAULT_CONTRACTS, _matches
    from repro.lint.walker import FileContext

    contexts = [
        FileContext(path, path.relative_to(REPO).as_posix(),
                    path.read_text(encoding="utf-8"))
        for path in sorted((REPO / "src").rglob("*.py"))
    ]
    functions = build_callgraph(contexts).functions
    unmatched = [
        pattern for pattern in DEFAULT_CONTRACTS["entry_points"]
        if not any(_matches(name, [pattern]) for name in functions)
    ]
    assert unmatched == []
    # The one parser of untrusted SECM bytes is held to the contract.
    assert "repro.parallel.filestream.read_secm" in DEFAULT_CONTRACTS[
        "entry_points"]


def test_lz77_entry_point_reaches_the_scalar_huffman_loop():
    """LZ7H's token and distance streams decode through the scalar
    Huffman loop, so the loop must stay inside the analysis of the
    ``lz77.decompress`` entry point, not behind a call the graph cannot
    resolve."""
    from repro.lint.callgraph import build_callgraph
    from repro.lint.rules.contracts import DEFAULT_CONTRACTS
    from repro.lint.walker import FileContext

    graph = build_callgraph(
        FileContext(path, path.relative_to(REPO).as_posix(),
                    path.read_text(encoding="utf-8"))
        for path in sorted((REPO / "src").rglob("*.py"))
    )
    entry = "repro.sz.lz77.decompress"
    assert entry in DEFAULT_CONTRACTS["entry_points"]
    reached, todo = set(), [entry]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [site.callee for site in graph.callees(name)
                     if site.callee]
    assert "repro.sz.huffman._scan_ranks" in reached


def test_full_repo_analysis_fits_time_budget():
    """Acceptance: whole-program analysis over src/ stays under the
    30 s CI budget, and the profile accounts for every rule."""
    import time

    start = time.monotonic()
    report = lint.lint_paths([REPO / "src"], root=REPO)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"full-repo lint took {elapsed:.1f}s"
    assert set(report.profile) >= set(report.rules_run)
    assert all(seconds >= 0.0 for seconds in report.profile.values())


def test_documented_counters_match_registry():
    repo = lint.RepoContext(REPO)
    assert repo.documented_counters == frozenset(trace.KNOWN_COUNTERS)
    assert "predict.sample_points" in repo.documented_counters
    assert "quantize.repair_passes" in repo.documented_counters


def test_documented_spans_cover_fixture_spans():
    repo = lint.RepoContext(REPO)
    assert {"compress", "sz.compress", "quantize", "huffman_decode",
            "reconstruct"} <= repo.documented_spans
    assert repo.fixture_spans <= repo.documented_spans
    assert "compress" in repo.fixture_spans


def test_documented_formats_parsed():
    repo = lint.RepoContext(REPO)
    assert {"4sBBBB16sB", "BQ", "4sBBBBBBIdqQQ", "IB", "4sHII", "4sI",
            "QB", "B", "H", "Q", "4sBBH8sI", "BBBBdB",
            "4sBBH", "II", "32s32sQQQIBB16s", "BBBdQ32sI", "QQ32s4s",
            "4sBBIIQQQQQQ"} <= repo.documented_structs
    assert repo.documented_magics == {
        "SECZ", "SECA", "SECB", "SECM", "SECP", "SZfr", "HLT1",
        "SEB2", "LZ7H",
    }


def test_breaking_an_invariant_is_caught(tmp_path):
    """An unregistered counter key in src/ must produce findings."""
    root = tmp_path / "repo"
    offender = root / "src" / "repro" / "offender.py"
    offender.parent.mkdir(parents=True)
    (root / "pyproject.toml").write_text("")
    offender.write_text(
        "from repro.core import trace\n"
        "trace.count('rogue.counter', 1)\n"
    )
    repo = lint.RepoContext(
        root,
        known_counters=frozenset(trace.KNOWN_COUNTERS),
        documented_counters=lint.RepoContext(REPO).documented_counters,
    )
    runner = lint.LintRunner(lint.get_rules(enable=["counter-registry"]), repo)
    report = runner.run([root / "src"])
    assert report.exit_code == 1
    assert any("rogue.counter" in f.message for f in report.findings)
