"""The scheme-selection advisor."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.advisor import recommend_scheme
from repro.datasets import generate


class TestRecommendScheme:
    def test_full_randomness_forces_cmpr_encr(self, smooth_field):
        rec = recommend_scheme(smooth_field, 1e-3,
                               require_full_randomness=True)
        assert rec.scheme == "cmpr_encr"
        assert any("NIST" in r for r in rec.reasons)

    def test_compressible_small_alphabet_gets_cmpr_encr(self):
        # q2 codes with 3 symbols at 1e-3: 11.3 bits of tree guess space.
        data = generate("q2", size="tiny")
        rec = recommend_scheme(data, 1e-3)
        assert rec.scheme == "cmpr_encr"
        assert rec.predictable_fraction > 0.9
        assert any("3 symbol(s)" in r and "11.3 bits" in r
                   for r in rec.reasons)

    @pytest.mark.parametrize("name", ["qi", "cloudf48"])
    def test_one_symbol_code_gets_cmpr_encr(self, name):
        # Both code with one symbol at 1e-2, a 7-byte tree: 4.6 bits.
        data = generate(name, size="small", seed=11)
        rec = recommend_scheme(data, 1e-2)
        assert rec.scheme == "cmpr_encr"
        assert any("1 symbol(s)" in r and "4.6 bits" in r
                   for r in rec.reasons)

    def test_predictable_large_alphabet_gets_encr_huffman(self):
        # t is all but fully predictable at 1e-3 and still codes with
        # thousands of symbols (201.8 bits of tree guess space).
        data = generate("t", size="tiny")
        rec = recommend_scheme(data, 1e-3)
        assert rec.scheme == "encr_huffman"
        assert rec.predictable_fraction > 0.95
        assert any("predictable" in r for r in rec.reasons)

    def test_hard_data_gets_encr_huffman(self):
        data = generate("nyx", size="tiny")
        rec = recommend_scheme(data, 1e-7)
        assert rec.scheme == "encr_huffman"
        assert rec.predictable_fraction < 0.5

    def test_evidence_fields_are_fractions(self, smooth_field):
        rec = recommend_scheme(smooth_field, 1e-4)
        assert 0.0 <= rec.predictable_fraction <= 1.0
        assert 0.0 <= rec.tree_fraction_of_quant <= 1.0
        assert 0.0 <= rec.quant_fraction_of_stream <= 1.0

    def test_reasons_always_given(self, noisy_field):
        rec = recommend_scheme(noisy_field, 1e-2)
        assert rec.reasons

    def test_sampling_keeps_it_cheap(self):
        # A large field must be sampled, not compressed outright.
        data = np.zeros(2_000_000, dtype=np.float32)
        rec = recommend_scheme(data, 1e-3, sample_elements=4096)
        assert rec.scheme in ("encr_huffman", "cmpr_encr")


def _loaded_after(module: str, names: set[str]) -> str:
    """Which of ``names`` a fresh interpreter holds after importing
    ``module``, as the printed sorted list."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    code = (f"import sys, {module}; "
            f"print(sorted({names!r} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_repro_leaves_scipy_unloaded():
    """The advisor loads the guess-space count when it runs: importing
    the package must not load ``repro.security``, whose NIST suite
    imports scipy.stats (about a second of start-up)."""
    assert _loaded_after("repro", {"scipy", "repro.security"}) == "[]"


def test_import_cli_leaves_nist_unloaded():
    """Only ``secz nist`` runs the NIST suite, so importing the CLI
    (``secz serve`` included) must load neither it nor scipy.stats."""
    assert _loaded_after(
        "repro.cli", {"scipy.stats", "repro.security.nist"}
    ) == "[]"
