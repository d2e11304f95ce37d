"""Per-rule fixture tests: every rule passes its good snippet and
fires on its bad one.

Each case copies a fixture from ``tests/lint/fixtures/`` into a tiny
synthetic repo at the relpath the rule scopes to, injects synthetic
doc/fixture registries into :class:`RepoContext`, and runs just that
rule.
"""

from pathlib import Path

import pytest

from repro.lint.rules import ALL_RULES
from repro.lint.rules.contracts import ExceptionContractRule
from repro.lint.rules.counters import CounterRegistryRule
from repro.lint.rules.crypto import CryptoHygieneRule
from repro.lint.rules.dtype import DtypeDisciplineRule
from repro.lint.rules.formats import FormatSpecRule
from repro.lint.rules.locks import LockDisciplineRule
from repro.lint.rules.spans import SpanRegistryRule
from repro.lint.rules.taint import SecretTaintRule
from repro.lint.walker import LintRunner, RepoContext

#: Synthetic registries for the interprocedural rules, mirroring the
#: DEFAULT_* shapes with fixture-sized ground truth.
CONTRACTS = dict(
    entry_points=["repro.sz.mod.parse"],
    allowed=["ValueError", "ArchiveCorrupt", "ProtocolError",
             "AuthenticationError"],
    internal=[],
    raw=["KeyError", "IndexError", "struct.error", "UnicodeDecodeError"],
)
TAINT = dict(
    source_params=["key"],
    source_calls=["*.generate_iv"],
    sanitizers=["len", "bool", "seal", "*.seal"],
    log_sinks=["print", "log.*"],
    span_sinks=["*.annotate"],
    write_sinks=["write"],
    write_allowed=[],
)
LOCKS = {"src/repro/core/mod.py": {"_cache": "_cache_lock"}}

FIXTURES = Path(__file__).parent / "fixtures"

#: rule class, fixture stem, relpath the snippet lands at, and the
#: RepoContext injections the rule's ground truth comes from.
CASES = [
    (
        CounterRegistryRule, "counter_registry", "src/repro/sz/mod.py",
        dict(
            known_counters=frozenset({"test.known"}),
            documented_counters=frozenset({"test.known"}),
        ),
    ),
    (
        SpanRegistryRule, "span_registry", "src/repro/core/mod.py",
        dict(
            documented_spans=frozenset({"compress", "quantize"}),
            fixture_spans=frozenset({"compress"}),
        ),
    ),
    (
        FormatSpecRule, "format_spec", "src/repro/core/container.py",
        dict(
            documented_structs=frozenset({"IB"}),
            documented_magics=frozenset({"SECZ"}),
        ),
    ),
    (CryptoHygieneRule, "crypto_hygiene", "src/repro/crypto/mod.py", {}),
    (
        ExceptionContractRule, "exception_contract", "src/repro/sz/mod.py",
        dict(exception_contracts=CONTRACTS),
    ),
    (
        SecretTaintRule, "secret_taint", "src/repro/crypto/mod.py",
        dict(taint_registry=TAINT),
    ),
    (
        LockDisciplineRule, "lock_discipline", "src/repro/core/mod.py",
        dict(lock_registry=LOCKS),
    ),
    (DtypeDisciplineRule, "dtype_discipline", "src/repro/sz/huffman.py", {}),
]


def make_repo(tmp_path: Path, relpath: str, fixture: str,
              **registries) -> tuple[RepoContext, Path]:
    root = tmp_path / "repo"
    (root / "docs").mkdir(parents=True, exist_ok=True)
    (root / "pyproject.toml").write_text("[project]\nname = 'fixture'\n")
    dest = root / relpath
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text((FIXTURES / fixture).read_text())
    return RepoContext(root, **registries), dest


def run_rule(rule_cls, repo: RepoContext, target: Path):
    return LintRunner([rule_cls()], repo).run([target])


def test_cases_cover_every_shipped_rule():
    assert {cls for cls, *_ in CASES} == set(ALL_RULES)


@pytest.mark.parametrize(
    "rule_cls, stem, relpath, registries", CASES,
    ids=[cls.name for cls, *_ in CASES],
)
def test_good_fixture_passes(rule_cls, stem, relpath, registries, tmp_path):
    repo, target = make_repo(tmp_path, relpath, f"{stem}_good.py", **registries)
    report = run_rule(rule_cls, repo, target)
    assert report.findings == [], report.format_text()
    assert report.exit_code == 0


@pytest.mark.parametrize(
    "rule_cls, stem, relpath, registries", CASES,
    ids=[cls.name for cls, *_ in CASES],
)
def test_bad_fixture_fires(rule_cls, stem, relpath, registries, tmp_path):
    repo, target = make_repo(tmp_path, relpath, f"{stem}_bad.py", **registries)
    report = run_rule(rule_cls, repo, target)
    assert report.findings, f"{rule_cls.name} did not fire on {stem}_bad.py"
    assert report.exit_code == 1
    assert all(f.rule == rule_cls.name for f in report.findings)
    assert all(f.line > 0 for f in report.findings)


def test_crypto_bad_fixture_finds_each_category(tmp_path):
    repo, target = make_repo(
        tmp_path, "src/repro/crypto/mod.py", "crypto_hygiene_bad.py"
    )
    messages = " | ".join(
        f.message for f in run_rule(CryptoHygieneRule, repo, target).findings
    )
    assert "import of 'random'" in messages
    assert "numpy.random" in messages
    assert "branch on secret-looking value" in messages
    assert "table index from secret-looking value" in messages
    assert "literal IV/nonce" in messages
    assert "reused by a second encrypt call" in messages


def test_crypto_iv_check_applies_outside_crypto_package(tmp_path):
    """The literal/reused-IV check covers every src/ caller, not just
    repro.crypto — the randomness/secret-flow checks stay scoped."""
    repo, target = make_repo(
        tmp_path, "src/repro/bench/mod.py", "crypto_hygiene_bad.py"
    )
    messages = [f.message for f in run_rule(CryptoHygieneRule, repo, target).findings]
    assert any("literal IV/nonce" in m for m in messages)
    assert any("reused by a second encrypt call" in m for m in messages)
    # package-scoped checks must NOT fire outside src/repro/crypto/
    assert not any("import of 'random'" in m for m in messages)
    assert not any("branch on secret-looking value" in m for m in messages)


def test_rules_scope_to_their_modules(tmp_path):
    """The same bad code outside a rule's scope produces no findings."""
    repo, target = make_repo(
        tmp_path, "src/repro/datasets/mod.py", "dtype_discipline_bad.py"
    )
    assert run_rule(DtypeDisciplineRule, repo, target).findings == []
    repo, target = make_repo(
        tmp_path, "tools/script.py", "crypto_hygiene_bad.py"
    )
    assert run_rule(CryptoHygieneRule, repo, target).findings == []


def _dtype_bad_at_hot_module(tmp_path: Path, source: str) -> Path:
    root = tmp_path / "repo"
    (root / "src" / "repro" / "sz").mkdir(parents=True)
    (root / "pyproject.toml").write_text("")
    target = root / "src" / "repro" / "sz" / "huffman.py"
    target.write_text(source)
    return target


def test_line_pragma_suppresses(tmp_path):
    # The pragma silences its own line only: the unmarked np.arange
    # two lines down still fires.
    source = (FIXTURES / "dtype_discipline_bad.py").read_text().replace(
        "np.zeros(n)", "np.zeros(n)  # lint: disable=dtype-discipline"
    )
    target = _dtype_bad_at_hot_module(tmp_path, source)
    report = run_rule(
        DtypeDisciplineRule, RepoContext(tmp_path / "repo"), target
    )
    arange_line = source.splitlines().index("    b = np.arange(n)") + 1
    assert [f.line for f in report.findings] == [arange_line]


def test_file_pragma_suppresses(tmp_path):
    source = "# lint: disable-file=dtype-discipline\n" + (
        FIXTURES / "dtype_discipline_bad.py"
    ).read_text()
    target = _dtype_bad_at_hot_module(tmp_path, source)
    report = run_rule(
        DtypeDisciplineRule, RepoContext(tmp_path / "repo"), target
    )
    assert report.findings == []


def test_syntax_error_reported_not_raised(tmp_path):
    root = tmp_path / "repo"
    (root / "src").mkdir(parents=True)
    (root / "pyproject.toml").write_text("")
    target = root / "src" / "broken.py"
    target.write_text("def broken(:\n")
    report = run_rule(CryptoHygieneRule, RepoContext(root), target)
    assert [f.rule for f in report.findings] == ["parse-error"]
    assert report.exit_code == 1


def test_counter_finalize_vice_versa(tmp_path):
    """On a full scan, registry/doc/usage drift is reported both ways."""
    root = tmp_path / "repo"
    trace_py = root / "src" / "repro" / "core" / "trace.py"
    trace_py.parent.mkdir(parents=True)
    (root / "pyproject.toml").write_text("")
    trace_py.write_text("KNOWN_COUNTERS = ('a.used', 'b.unused')\n")
    user = root / "src" / "repro" / "user.py"
    user.write_text(
        "from repro.core import trace\n"
        "trace.count('a.used', 1)\n"
    )
    repo = RepoContext(
        root,
        known_counters=frozenset({"a.used", "b.unused"}),
        documented_counters=frozenset({"a.used", "c.docs_only"}),
    )
    report = LintRunner([CounterRegistryRule()], repo).run([root / "src"])
    messages = " | ".join(f.message for f in report.findings)
    assert "'b.unused' is missing from the docs" in messages
    assert "'c.docs_only' is not in trace.KNOWN_COUNTERS" in messages
    assert "'b.unused' is never incremented" in messages
    assert "'a.used'" not in messages


def test_exception_contract_reports_both_pr9_bugs(tmp_path):
    """Acceptance: the pre-fix PR 9 code shapes (Kraft IndexError,
    section-rename KeyError) are both reported statically."""
    repo, target = make_repo(
        tmp_path, "src/repro/sz/mod.py", "pr9_prefix_shapes.py",
        exception_contracts=dict(
            CONTRACTS,
            entry_points=["repro.sz.mod.deserialize_tree",
                          "repro.sz.mod.unpack_sections"],
        ),
    )
    report = run_rule(ExceptionContractRule, repo, target)
    raws = {f.message.split()[1] for f in report.findings}
    assert "IndexError" in raws, report.format_text()
    assert "KeyError" in raws, report.format_text()
    # The IndexError originates in the helper, two calls deep.
    index_findings = [f for f in report.findings if "IndexError" in f.message]
    assert any("deserialize_tree" in f.message for f in index_findings)


def test_exception_contract_interprocedural_catch(tmp_path):
    """A raw raise caught at the *call site* does not escape."""
    root = tmp_path / "repo"
    mod = root / "src" / "repro" / "sz" / "mod.py"
    mod.parent.mkdir(parents=True)
    (root / "pyproject.toml").write_text("")
    mod.write_text(
        "def parse(blob):\n"
        "    try:\n"
        "        return _helper(blob)\n"
        "    except KeyError:\n"
        "        raise ValueError('bad section') from None\n"
        "\n"
        "def _helper(sections):\n"
        "    return sections['data']\n"
    )
    repo = RepoContext(root, exception_contracts=CONTRACTS)
    report = LintRunner([ExceptionContractRule()], repo).run([mod])
    assert report.findings == [], report.format_text()


def test_secret_taint_flags_each_sink_kind(tmp_path):
    repo, target = make_repo(
        tmp_path, "src/repro/crypto/mod.py", "secret_taint_bad.py",
        taint_registry=TAINT,
    )
    messages = " | ".join(
        f.message for f in run_rule(SecretTaintRule, repo, target).findings
    )
    assert "a log call (print)" in messages
    assert "a log call (log.debug)" in messages
    assert "a trace span attribute" in messages
    assert "a file/socket write" in messages
    assert "an exception message" in messages


def test_secret_taint_sanitizer_kills_flow(tmp_path):
    """``seal(...)`` is registered as a sanitizer: its result may hit
    any sink even though a secret flowed in."""
    root = tmp_path / "repo"
    mod = root / "src" / "repro" / "crypto" / "mod.py"
    mod.parent.mkdir(parents=True)
    (root / "pyproject.toml").write_text("")
    mod.write_text(
        "def protect(key, data):\n"
        "    sealed = seal(key, data)\n"
        "    print('out:', sealed, len(key))\n"
        "    return sealed\n"
        "\n"
        "def seal(key, data):\n"
        "    return bytes(k ^ d for k, d in zip(key, data))\n"
    )
    repo = RepoContext(root, taint_registry=TAINT)
    report = LintRunner([SecretTaintRule()], repo).run([mod])
    assert report.findings == [], report.format_text()


def test_secret_taint_summary_propagates_through_helper(tmp_path):
    """A helper's secret return taints its caller across the graph."""
    root = tmp_path / "repo"
    mod = root / "src" / "repro" / "crypto" / "mod.py"
    mod.parent.mkdir(parents=True)
    (root / "pyproject.toml").write_text("")
    mod.write_text(
        "def outer(key):\n"
        "    material = middle(key)\n"
        "    print(material)\n"
        "\n"
        "def middle(k):\n"
        "    return inner(k)\n"
        "\n"
        "def inner(k):\n"
        "    return k * 2\n"
    )
    repo = RepoContext(root, taint_registry=TAINT)
    report = LintRunner([SecretTaintRule()], repo).run([mod])
    assert len(report.findings) == 1
    assert "a log call (print)" in report.findings[0].message


def test_lock_discipline_flags_unguarded_and_undeclared(tmp_path):
    repo, target = make_repo(
        tmp_path, "src/repro/core/mod.py", "lock_discipline_bad.py",
        lock_registry=LOCKS,
    )
    messages = " | ".join(
        f.message for f in run_rule(LockDisciplineRule, repo, target).findings
    )
    assert "not under 'with _cache_lock:'" in messages
    assert "no declared guarding lock" in messages


def test_lock_discipline_registry_must_match_module(tmp_path):
    """A registry entry whose state/lock is absent from the module is
    itself a finding — the registry must not drift from the code."""
    repo, target = make_repo(
        tmp_path, "src/repro/core/mod.py", "lock_discipline_good.py",
        lock_registry={"src/repro/core/mod.py": {"_gone": "_gone_lock"}},
    )
    messages = " | ".join(
        f.message for f in run_rule(LockDisciplineRule, repo, target).findings
    )
    assert "does not define it" in messages


def test_crypto_iv_from_deterministic_source_flagged(tmp_path):
    """Satellite: the IV check is flow-aware, not just syntactic — a
    counter serialised through ``to_bytes`` is a deterministic IV."""
    root = tmp_path / "repo"
    mod = root / "src" / "repro" / "bench" / "mod.py"
    mod.parent.mkdir(parents=True)
    (root / "pyproject.toml").write_text("")
    mod.write_text(
        "def run(cipher, counter, data):\n"
        "    iv = counter.to_bytes(16, 'big')\n"
        "    return cipher.encrypt_cbc(data, iv)\n"
    )
    report = run_rule(CryptoHygieneRule, RepoContext(root), mod)
    assert any("deterministic (non-CSPRNG) source" in f.message
               for f in report.findings), report.format_text()


def test_crypto_iv_from_csprng_is_clean(tmp_path):
    root = tmp_path / "repo"
    mod = root / "src" / "repro" / "bench" / "mod.py"
    mod.parent.mkdir(parents=True)
    (root / "pyproject.toml").write_text("")
    mod.write_text(
        "from repro.crypto import rng\n"
        "\n"
        "def run(cipher, data):\n"
        "    iv = rng.generate_iv()\n"
        "    return cipher.encrypt_cbc(data, iv)\n"
    )
    report = run_rule(CryptoHygieneRule, RepoContext(root), mod)
    assert report.findings == [], report.format_text()


def test_crypto_iv_mixed_csprng_derivation_is_clean(tmp_path):
    """Hash-of-CSPRNG still carries the csprng tag, so deriving a
    nonce from fresh entropy is not flagged."""
    root = tmp_path / "repo"
    mod = root / "src" / "repro" / "bench" / "mod.py"
    mod.parent.mkdir(parents=True)
    (root / "pyproject.toml").write_text("")
    mod.write_text(
        "import hashlib\n"
        "from repro.crypto import rng\n"
        "\n"
        "def run(cipher, data):\n"
        "    seed = rng.generate_nonce()\n"
        "    iv = hashlib.sha256(seed).digest()[:16]\n"
        "    return cipher.encrypt_cbc(data, iv)\n"
    )
    report = run_rule(CryptoHygieneRule, RepoContext(root), mod)
    assert report.findings == [], report.format_text()


def test_span_finalize_flags_undocumented_fixture_span(tmp_path):
    root = tmp_path / "repo"
    trace_py = root / "src" / "repro" / "core" / "trace.py"
    trace_py.parent.mkdir(parents=True)
    (root / "pyproject.toml").write_text("")
    trace_py.write_text("# the full-scan proxy\n")
    repo = RepoContext(
        root,
        documented_spans=frozenset({"compress"}),
        fixture_spans=frozenset({"compress", "renamed_span"}),
    )
    report = LintRunner([SpanRegistryRule()], repo).run([root / "src"])
    assert any("renamed_span" in f.message for f in report.findings)
