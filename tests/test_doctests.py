"""Run the library's docstring examples so the docs cannot rot."""

import doctest

import pytest

import repro
import repro.archive
import repro.core.pipeline
import repro.core.trace
import repro.crypto.aes
import repro.imagecodec.codec
import repro.imagecodec.pipeline
import repro.multilevel.codec
import repro.multilevel.pipeline
import repro.parallel
import repro.sz.compressor

MODULES = [
    repro,
    repro.archive,
    repro.core.pipeline,
    repro.core.trace,
    repro.crypto.aes,
    repro.imagecodec.codec,
    repro.imagecodec.pipeline,
    repro.multilevel.codec,
    repro.multilevel.pipeline,
    repro.parallel,
    repro.sz.compressor,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} doctest failures"
    assert results.attempted > 0, f"{module.__name__} has no doctest examples"


def test_trace_profile_example_runs(tmp_path):
    """examples/trace_profile.py must stay runnable end to end."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = os.path.join(repo, "examples", "trace_profile.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo, "src")
    proc = subprocess.run(
        [sys.executable, script],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "compress" in proc.stdout
    assert (tmp_path / "trace.json").exists()
    assert (tmp_path / "trace.chrome.json").exists()


def test_serve_client_example_runs(tmp_path):
    """examples/serve_client.py must stay runnable end to end."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = os.path.join(repo, "examples", "serve_client.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo, "src")
    proc = subprocess.run(
        [sys.executable, script, "--fields", "3", "--side", "16"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "secp-stat/2" in proc.stdout
    assert "round trip max error" in proc.stdout
    assert "jobs compressed by the pool: 3" in proc.stdout
