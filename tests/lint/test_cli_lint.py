"""``secz lint`` CLI: exit codes, JSON stability, rule selection."""

import json
from pathlib import Path

import pytest

from repro import cli
from repro.lint.rules import rule_names
from repro.lint.walker import SCHEMA

FIXTURES = Path(__file__).parent / "fixtures"


#: Where each fixture lands: crypto-hygiene's IV checks cover all of
#: src/, dtype-discipline only the hot SZ modules.
DEST = {
    "crypto_hygiene_good.py": "src/repro/seal.py",
    "crypto_hygiene_bad.py": "src/repro/seal.py",
    "dtype_discipline_bad.py": "src/repro/sz/bitstream.py",
}


def make_repo(tmp_path: Path, *fixtures: str) -> Path:
    """A tiny repo whose src/ holds the named fixtures."""
    root = tmp_path / "repo"
    root.mkdir(parents=True)
    (root / "pyproject.toml").write_text("[project]\nname = 'fixture'\n")
    for fixture in fixtures:
        dest = root / DEST[fixture]
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text((FIXTURES / fixture).read_text())
    return root


def lint_argv(root: Path, *extra: str) -> list[str]:
    return ["lint", str(root / "src"), "--root", str(root), *extra]


def test_clean_tree_exits_zero(tmp_path, capsys):
    root = make_repo(tmp_path, "crypto_hygiene_good.py")
    assert cli.main(lint_argv(root)) == 0
    assert "0 findings" in capsys.readouterr().out


def test_findings_exit_one_with_locations(tmp_path, capsys):
    root = make_repo(tmp_path, "crypto_hygiene_bad.py",
                     "dtype_discipline_bad.py")
    assert cli.main(lint_argv(root)) == 1
    out = capsys.readouterr().out
    assert "[crypto-hygiene]" in out
    assert "[dtype-discipline]" in out
    assert "src/repro/seal.py:18:" in out


def test_json_output_is_stable_and_parseable(tmp_path, capsys):
    root = make_repo(tmp_path, "crypto_hygiene_bad.py",
                     "dtype_discipline_bad.py")
    assert cli.main(lint_argv(root, "--format", "json")) == 1
    first = capsys.readouterr().out
    assert cli.main(lint_argv(root, "--format", "json")) == 1
    second = capsys.readouterr().out
    assert first == second, "json report must be deterministic"
    doc = json.loads(first)
    assert doc["schema"] == SCHEMA
    assert doc["files_checked"] == 2
    assert doc["counts"] == {"crypto-hygiene": 3, "dtype-discipline": 2}
    assert [set(f) for f in doc["findings"]] == [
        {"path", "line", "rule", "message"}
    ] * 5
    assert doc["findings"] == sorted(
        doc["findings"], key=lambda f: (f["path"], f["line"], f["rule"])
    )


def test_disable_skips_a_rule(tmp_path):
    root = make_repo(tmp_path, "crypto_hygiene_bad.py")
    assert cli.main(lint_argv(root, "--disable", "crypto-hygiene")) == 0


def test_enable_restricts_to_named_rules(tmp_path, capsys):
    root = make_repo(tmp_path, "crypto_hygiene_bad.py",
                     "dtype_discipline_bad.py")
    assert cli.main(lint_argv(root, "--enable", "dtype-discipline")) == 1
    out = capsys.readouterr().out
    assert "[dtype-discipline]" in out
    assert "[crypto-hygiene]" not in out
    root = make_repo(tmp_path / "clean", "crypto_hygiene_bad.py")
    assert cli.main(
        lint_argv(root, "--enable", "dtype-discipline")
    ) == 0


def test_unknown_rule_fails_loudly(tmp_path):
    root = make_repo(tmp_path, "crypto_hygiene_good.py")
    with pytest.raises(SystemExit, match="unknown rule"):
        cli.main(lint_argv(root, "--disable", "no-such-rule"))


def test_list_rules(capsys):
    assert cli.main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in rule_names():
        assert name in out


def test_nonexistent_path_fails_loudly(tmp_path):
    root = make_repo(tmp_path, "crypto_hygiene_good.py")
    with pytest.raises(SystemExit):
        cli.main(["lint", str(root / "README.md"), "--root", str(root)])


def test_sarif_output_parses_and_names_driver(tmp_path, capsys):
    root = make_repo(tmp_path, "crypto_hygiene_bad.py")
    assert cli.main(lint_argv(root, "--format", "sarif")) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-lint"
    assert doc["runs"][0]["results"][0]["ruleId"] == "crypto-hygiene"


def test_write_baseline_then_clean_run(tmp_path, capsys):
    root = make_repo(tmp_path, "crypto_hygiene_bad.py")
    assert cli.main(lint_argv(root, "--write-baseline")) == 0
    assert "wrote" in capsys.readouterr().out
    assert (root / ".lint-baseline.json").exists()
    # The baseline is picked up automatically on the next run...
    assert cli.main(lint_argv(root)) == 0
    assert "[3 baselined]" in capsys.readouterr().out
    # ...unless explicitly ignored.
    assert cli.main(lint_argv(root, "--no-baseline")) == 1


def test_baseline_and_no_baseline_are_exclusive(tmp_path):
    root = make_repo(tmp_path, "crypto_hygiene_good.py")
    with pytest.raises(SystemExit, match="exclusive"):
        cli.main(lint_argv(root, "--baseline", "x.json", "--no-baseline"))


def test_profile_prints_per_rule_timings(tmp_path, capsys):
    root = make_repo(tmp_path, "crypto_hygiene_good.py")
    assert cli.main(lint_argv(root, "--profile")) == 0
    captured = capsys.readouterr()
    assert "seconds" in captured.err
    assert "crypto-hygiene" in captured.err
    # Timings never contaminate the deterministic report stream.
    assert "seconds" not in captured.out


def test_profile_json_stays_deterministic(tmp_path, capsys):
    root = make_repo(tmp_path, "crypto_hygiene_bad.py")
    assert cli.main(lint_argv(root, "--format", "json", "--profile")) == 1
    first = capsys.readouterr()
    assert cli.main(lint_argv(root, "--format", "json", "--profile")) == 1
    second = capsys.readouterr()
    assert first.out == second.out
    assert first.err != ""
