"""SARIF output: structural validity (via jsonschema against a
trimmed SARIF 2.1.0 schema), determinism, and rule metadata joins."""

import json
from pathlib import Path

import jsonschema
import pytest

from repro import lint
from repro.lint.sarif import SARIF_VERSION, format_sarif, to_sarif
from repro.lint.walker import Finding, LintReport

#: The subset of the OASIS SARIF 2.1.0 schema that GitHub code
#: scanning actually validates: top-level shape, tool driver with rule
#: metadata, results with physical locations.  Trimmed from the full
#: schema so the test has no network dependency.
SARIF_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {
                                    "type": "integer", "minimum": 0,
                                },
                                "level": {
                                    "enum": ["none", "note", "warning",
                                             "error"],
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "required": ["uri"],
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def _report(findings):
    return LintReport(
        findings=findings, files_checked=3,
        rules_run=["crypto-hygiene", "exception-contract"],
    )


FINDINGS = [
    Finding(path="src/repro/io.py", line=4, rule="crypto-hygiene",
            message="literal IV/nonce passed to encrypt_cbc()"),
    Finding(path="src/repro/sz/mod.py", line=17, rule="exception-contract",
            message="raw KeyError can escape entry point parse"),
    Finding(path="src/repro/gone.py", line=0, rule="stale-baseline",
            message="baseline entry no longer matches"),
]


def test_document_validates_against_schema():
    doc = to_sarif(_report(FINDINGS))
    jsonschema.validate(doc, SARIF_SCHEMA)


def test_empty_report_validates():
    jsonschema.validate(to_sarif(_report([])), SARIF_SCHEMA)


def test_version_and_driver():
    doc = to_sarif(_report(FINDINGS))
    assert doc["version"] == SARIF_VERSION == "2.1.0"
    assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-lint"


def test_rule_index_joins_back_to_rules_array():
    doc = to_sarif(_report(FINDINGS))
    run = doc["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    for result in run["results"]:
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]


def test_synthetic_rules_have_metadata():
    doc = to_sarif(_report(FINDINGS))
    ids = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
    assert "stale-baseline" in ids


def test_line_zero_clamped_to_one():
    doc = to_sarif(_report(FINDINGS))
    lines = [
        r["locations"][0]["physicalLocation"]["region"]["startLine"]
        for r in doc["runs"][0]["results"]
    ]
    assert min(lines) >= 1


def test_output_is_deterministic():
    assert format_sarif(_report(FINDINGS)) == format_sarif(_report(FINDINGS))


def test_real_tree_sarif_validates():
    """Acceptance: `secz lint src/` emits schema-valid SARIF for the
    actual repository (baseline applied, so zero results)."""
    repo_root = Path(__file__).resolve().parents[2]
    report = lint.lint_paths([repo_root / "src"], root=repo_root)
    doc = json.loads(lint.format_sarif(report))
    jsonschema.validate(doc, SARIF_SCHEMA)
    assert doc["runs"][0]["results"] == []
    rule_ids = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
    assert {"exception-contract", "secret-taint", "lock-discipline"} <= \
        rule_ids
