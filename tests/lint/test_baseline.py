"""Baseline semantics: suppression, stale-entry detection, partial
runs, pragma interplay, and file-format validation."""

import json
from pathlib import Path

import pytest

from repro import lint
from repro.lint.baseline import (
    BASELINE_FILENAME,
    BASELINE_SCHEMA,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.walker import Finding, LintReport


def _finding(rule="crypto-hygiene", path="src/repro/io.py", line=3,
             message="literal IV/nonce passed to encrypt_cbc()"):
    return Finding(path=path, line=line, rule=rule, message=message)


def _report(findings):
    return LintReport(findings=findings, files_checked=1,
                      rules_run=["crypto-hygiene"])


class TestFileFormat:
    def test_write_then_load_roundtrip(self, tmp_path):
        target = tmp_path / BASELINE_FILENAME
        write_baseline(target, [_finding(), _finding(line=9)])
        entries = load_baseline(target)
        # Line numbers are dropped; identical (rule, path, message)
        # rows collapse to one entry.
        assert entries == [(
            "crypto-hygiene", "src/repro/io.py",
            "literal IV/nonce passed to encrypt_cbc()",
        )]
        assert json.loads(target.read_text())["schema"] == BASELINE_SCHEMA

    def test_load_rejects_bad_json(self, tmp_path):
        target = tmp_path / BASELINE_FILENAME
        target.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_baseline(target)

    def test_load_rejects_wrong_schema(self, tmp_path):
        target = tmp_path / BASELINE_FILENAME
        target.write_text(json.dumps({"schema": "other/9", "findings": []}))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(target)

    def test_load_rejects_malformed_entry(self, tmp_path):
        target = tmp_path / BASELINE_FILENAME
        target.write_text(json.dumps({
            "schema": BASELINE_SCHEMA,
            "findings": [{"rule": "x", "path": "y"}],
        }))
        with pytest.raises(ValueError, match="entry 0"):
            load_baseline(target)


class TestApply:
    def test_matching_finding_suppressed(self):
        finding = _finding()
        entries = [(finding.rule, finding.path, finding.message)]
        out = apply_baseline(_report([finding]), entries)
        assert out.findings == []
        assert out.exit_code == 0
        assert out.baseline_suppressed == 1

    def test_match_ignores_line_numbers(self):
        finding = _finding(line=99)
        entries = [(finding.rule, finding.path, finding.message)]
        out = apply_baseline(_report([finding]), entries)
        assert out.findings == []

    def test_unmatched_finding_kept(self):
        finding = _finding()
        out = apply_baseline(_report([finding]), [("other-rule", "a", "b")])
        assert finding in out.findings
        assert out.exit_code == 1

    def test_stale_entry_flagged(self):
        out = apply_baseline(
            _report([]),
            [("crypto-hygiene", "src/repro/io.py", "gone finding")],
        )
        assert [f.rule for f in out.findings] == ["stale-baseline"]
        assert "gone finding" in out.findings[0].message
        assert out.exit_code == 1

    def test_unscanned_path_is_not_stale(self):
        """A partial-tree run can't judge entries for files it never
        parsed — they are neither matched nor stale."""
        out = apply_baseline(
            _report([]),
            [("crypto-hygiene", "src/repro/other.py", "elsewhere")],
            scanned={"src/repro/io.py"},
        )
        assert out.findings == []

    def test_scanned_path_still_goes_stale(self):
        out = apply_baseline(
            _report([]),
            [("crypto-hygiene", "src/repro/io.py", "fixed finding")],
            scanned={"src/repro/io.py"},
        )
        assert [f.rule for f in out.findings] == ["stale-baseline"]


class TestEndToEnd:
    def _repo(self, tmp_path, source):
        root = tmp_path / "repo"
        target = root / "src" / "repro" / "io.py"
        target.parent.mkdir(parents=True)
        (root / "pyproject.toml").write_text("")
        target.write_text(source)
        return root

    BAD = (
        "def f(cipher, data):\n"
        "    return cipher.encrypt_cbc(data, iv=bytes(16))\n"
    )

    def test_auto_baseline_applied_from_root(self, tmp_path):
        root = self._repo(tmp_path, self.BAD)
        dirty = lint.lint_paths([root / "src"], root=root, baseline=None)
        assert dirty.exit_code == 1
        write_baseline(root / BASELINE_FILENAME, dirty.findings)
        clean = lint.lint_paths([root / "src"], root=root)
        assert clean.exit_code == 0
        assert clean.baseline_suppressed == len(dirty.findings)

    def test_fixed_finding_flags_stale_entry(self, tmp_path):
        """Acceptance: a baselined finding that disappears must turn
        into a stale-baseline finding, not silent success."""
        root = self._repo(tmp_path, self.BAD)
        dirty = lint.lint_paths([root / "src"], root=root, baseline=None)
        write_baseline(root / BASELINE_FILENAME, dirty.findings)
        (root / "src" / "repro" / "io.py").write_text(
            "def f():\n    pass\n"
        )
        report = lint.lint_paths([root / "src"], root=root)
        assert [f.rule for f in report.findings] == ["stale-baseline"]
        assert report.exit_code == 1

    def test_pragma_suppression_also_goes_stale(self, tmp_path):
        """Suppressing a baselined finding with a pragma removes it
        from the report, so the baseline entry must go stale — the two
        mechanisms never silently stack."""
        root = self._repo(tmp_path, self.BAD)
        dirty = lint.lint_paths([root / "src"], root=root, baseline=None)
        write_baseline(root / BASELINE_FILENAME, dirty.findings)
        (root / "src" / "repro" / "io.py").write_text(self.BAD.replace(
            "bytes(16))", "bytes(16))  # lint: disable=crypto-hygiene"
        ))
        report = lint.lint_paths([root / "src"], root=root)
        assert [f.rule for f in report.findings] == ["stale-baseline"]

    def test_explicit_baseline_path(self, tmp_path):
        root = self._repo(tmp_path, self.BAD)
        dirty = lint.lint_paths([root / "src"], root=root, baseline=None)
        custom = tmp_path / "custom-baseline.json"
        write_baseline(custom, dirty.findings)
        report = lint.lint_paths([root / "src"], root=root, baseline=custom)
        assert report.exit_code == 0

    def test_baseline_none_skips_existing_file(self, tmp_path):
        root = self._repo(tmp_path, self.BAD)
        dirty = lint.lint_paths([root / "src"], root=root, baseline=None)
        write_baseline(root / BASELINE_FILENAME, dirty.findings)
        report = lint.lint_paths([root / "src"], root=root, baseline=None)
        assert report.exit_code == 1
