"""Scheme selection advisor.

The paper's conclusion is conditional: "the cost of Encr-Quant varies
with the dataset's properties and requires cautious selection", while
Encr-Huffman is broadly safe and Cmpr-Encr buys full-stream randomness
at bandwidth cost.  This module operationalizes that guidance: given a
(sampled) trial compression of the data, it scores each scheme against
the user's stated requirements and explains the choice.  Encr-Huffman
hides only the code table, so a small trial alphabet rules it out
(docs/SECURITY.md, limitation 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sz.compressor import SZCompressor

__all__ = ["SchemeRecommendation", "recommend_scheme", "MIN_TREE_GUESS_BITS"]

#: Below this many bits of Huffman-tree guess space, hiding the tree is
#: not worth calling encryption: the AES-128 key's own strength.
MIN_TREE_GUESS_BITS = 128


@dataclass(frozen=True)
class SchemeRecommendation:
    """The advisor's verdict plus the evidence behind it."""

    scheme: str
    reasons: tuple[str, ...]
    predictable_fraction: float
    tree_fraction_of_quant: float
    quant_fraction_of_stream: float


def recommend_scheme(
    data: np.ndarray,
    error_bound: float,
    *,
    require_full_randomness: bool = False,
    ratio_critical: bool = True,
    sample_elements: int = 1 << 16,
) -> SchemeRecommendation:
    """Recommend a combination scheme for ``data`` at ``error_bound``.

    Parameters
    ----------
    data:
        The field (or a representative slice of it); at most
        ``sample_elements`` values are trial-compressed.
    error_bound:
        The absolute bound the real compression will use.
    require_full_randomness:
        True when the *whole* output stream must pass randomness tests
        (e.g. policy requires ciphertext-indistinguishable storage).
        Only Cmpr-Encr guarantees that (paper Sec. V-F).
    ratio_critical:
        True when storage budget is strict; biases away from
        Encr-Quant on compressible data (paper Fig. 5).

    Notes
    -----
    Decision rules distilled from Sec. V:

    * full-stream randomness required → ``cmpr_encr`` (only scheme that
      passes all NIST tests unconditionally);
    * a trial alphabet whose tree guess space
      (:func:`~repro.security.keyspace.huffman_tree_guess_space`) is
      under :data:`MIN_TREE_GUESS_BITS` (under 435 symbols) →
      ``cmpr_encr``: the hidden tree leaves too little to guess (qi and
      cloudf48 at bound 1e-2 code with one symbol, 4.6 bits);
    * highly predictable data + strict ratio → ``encr_huffman``
      (Encr-Quant cratered QI/Q2 to 5–20 % of the original CR);
    * mostly-unpredictable data (Nyx-like) → the three schemes cost
      about the same; ``encr_huffman`` still wins slightly on time;
    * otherwise → ``encr_huffman`` (the paper's overall recommendation).
    """
    # Imported here, not at module level: the ``repro.security`` package
    # loads scipy.stats for its NIST suite, which would add about a
    # second to every ``import repro``.
    from repro.security.keyspace import huffman_tree_guess_space

    sample = np.ravel(data)
    if sample.size > sample_elements:
        sample = sample[:: sample.size // sample_elements]
    # Trial compression on the (1-D) sample: cheap and enough for the
    # fractions the rules need.
    frame = SZCompressor(error_bound).compress(np.ascontiguousarray(sample))
    stats = frame.stats
    quant_fraction = (
        stats.quant_array_bytes / frame.payload_bytes if frame.payload_bytes else 0.0
    )
    guess_bits = huffman_tree_guess_space(stats.n_symbols)

    reasons: list[str] = []
    if require_full_randomness:
        reasons.append(
            "full-stream randomness required: only Cmpr-Encr passes all "
            "NIST SP800-22 tests regardless of data (paper Sec. V-F)"
        )
        scheme = "cmpr_encr"
    elif guess_bits < MIN_TREE_GUESS_BITS:
        reasons.append(
            f"the trial code has {stats.n_symbols} symbol(s): hiding its "
            f"Huffman tree leaves {guess_bits:.1f} bits to guess, under "
            f"{MIN_TREE_GUESS_BITS}, so Encr-Huffman hides little; "
            "Cmpr-Encr encrypts the whole stream (docs/SECURITY.md, "
            "limitation 2)"
        )
        scheme = "cmpr_encr"
    elif stats.predictable_fraction > 0.95 and ratio_critical:
        reasons.append(
            f"{stats.predictable_fraction:.1%} of points are predictable: "
            "encrypting the quantization array before zlib would destroy "
            "the ratio (paper Fig. 5, QI/Q2 cases)"
        )
        reasons.append(
            f"the Huffman tree is only {stats.tree_fraction_of_quant:.2%} of "
            "the quantization array, so Encr-Huffman is nearly free"
        )
        scheme = "encr_huffman"
    elif stats.predictable_fraction < 0.3:
        reasons.append(
            f"only {stats.predictable_fraction:.1%} of points are "
            "predictable (Nyx-like): all three schemes cost about the same "
            "(paper Sec. V-D); Encr-Huffman still avoids the encryption "
            "pass over the full stream"
        )
        scheme = "encr_huffman"
    else:
        reasons.append(
            "no special constraints: Encr-Huffman keeps >99% of the CR and "
            "beats plain SZ bandwidth (paper Sec. V conclusion)"
        )
        scheme = "encr_huffman"
    return SchemeRecommendation(
        scheme=scheme,
        reasons=tuple(reasons),
        predictable_fraction=stats.predictable_fraction,
        tree_fraction_of_quant=stats.tree_fraction_of_quant,
        quant_fraction_of_stream=quant_fraction,
    )
