"""The three combination strategies (paper Sec. IV) plus the plain-SZ
baseline, all sharing one section-level code path.

A scheme is a pair of byte-level transforms between an
:class:`~repro.sz.compressor.SZFrame`'s sections and the container's
sections:

========================  =============================================
``none``                  zlib(meta‖tree‖codes‖unpred‖coeffs‖exact)
``cmpr_encr``             AES( zlib(all sections) )          [Sec. IV-A]
``encr_quant``            zlib( AES(meta‖tree‖codes) ‖ rest) [Sec. IV-B]
``encr_huffman``          zlib( AES(tree) ‖ rest )           [Sec. IV-C]
========================  =============================================

The placement differences are exactly the paper's Figure 1 dashed
lines: Cmpr-Encr encrypts *after* the lossless stage, the two
white-box schemes encrypt *before* it, which is why Encr-Quant's
randomized quantization array hurts the zlib pass while Encr-Huffman's
tiny randomized tree barely registers.
"""

from __future__ import annotations

import abc

from repro.core import container as cont
from repro.core import trace
from repro.crypto.aes import AES128
from repro.sz import lossless
from repro.sz.compressor import SECTION_ORDER

__all__ = ["Scheme", "SCHEMES", "get_scheme", "NoEncryption", "CmprEncr",
           "EncrQuant", "EncrHuffman"]


class Scheme(abc.ABC):
    """A secure-compression strategy over frame sections."""

    #: Registry name (also the CLI name).
    name: str
    #: Wire id stored in the container header.
    scheme_id: int
    #: False only for the plain-SZ baseline.
    requires_key: bool = True

    @abc.abstractmethod
    def protect(
        self,
        frame_sections: dict[str, bytes],
        cipher: AES128 | None,
        iv: bytes,
        mode: str,
        level: int,
        tracer: trace.Tracer | None = None,
    ) -> dict[str, bytes]:
        """Transform frame sections into container sections.

        ``tracer`` records one stage span per ``lossless`` /
        ``encrypt`` pass.
        """

    @abc.abstractmethod
    def unprotect(
        self,
        sections: dict[str, bytes],
        cipher: AES128 | None,
        iv: bytes,
        mode: str,
        tracer: trace.Tracer | None = None,
    ) -> dict[str, bytes]:
        """Invert :meth:`protect` back to frame sections."""

    def encrypted_bytes(self, frame_sections: dict[str, bytes]) -> int:
        """Plaintext byte count this scheme would feed to AES.

        Used by the bandwidth analysis (paper Sec. V-D compares the 8.8
        MB Encr-Quant encrypts against Cmpr-Encr's 5.3 MB compressed
        stream for CLOUDf48).  For ``cmpr_encr`` this is an upper bound
        (pre-zlib size); the post-zlib number is in the result stats.
        """
        return 0

    def keystream_hint(self, n_raw_bytes: int) -> int:
        """Expected CTR ciphertext size for an ``n_raw_bytes`` input.

        Drives the keystream prefetcher
        (:mod:`repro.crypto.pipelined`): a background thread generates
        up to this many keystream bytes while the SZ stages run.  Pure
        performance knob — an under-estimate costs a synchronous
        top-up at encrypt time, an over-estimate costs wasted AES
        batches; 0 disables prefetch (nothing to encrypt).
        """
        return 0

    # -- shared helpers -------------------------------------------------

    @staticmethod
    def _check_cipher(cipher: AES128 | None) -> AES128:
        if cipher is None:
            raise ValueError("this scheme requires an AES key")
        return cipher

    @staticmethod
    def _frame_blob(frame_sections: dict[str, bytes]) -> bytes:
        ordered = {k: frame_sections[k] for k in SECTION_ORDER}
        return cont.pack_sections(ordered)

    @staticmethod
    def _take(sections: dict[str, bytes], name: str) -> bytes:
        """Fetch a section an attacker-controlled container must carry.

        A corrupted section *name* parses fine but leaves the expected
        key absent; that must surface as the parse-failure ValueError
        the fuzzing contract promises, not a KeyError.
        """
        try:
            return sections[name]
        except KeyError:
            raise ValueError(
                f"container is missing required section {name!r}"
            ) from None


class NoEncryption(Scheme):
    """Plain SZ — the normalization baseline of every table."""

    name = "none"
    scheme_id = 0
    requires_key = False

    def protect(self, frame_sections, cipher, iv, mode, level, tracer=None):
        tr = tracer or trace.NULL_TRACER
        blob = self._frame_blob(frame_sections)
        with tr.span("lossless", bytes_in=len(blob)) as sp:
            z = lossless.compress(blob, level)
            sp.bytes_out = len(z)
        return {"zblob": z}

    def unprotect(self, sections, cipher, iv, mode, tracer=None):
        tr = tracer or trace.NULL_TRACER
        z = self._take(sections, "zblob")
        with tr.span("lossless", bytes_in=len(z)) as sp:
            blob = lossless.decompress(z)
            sp.bytes_out = len(blob)
        return cont.unpack_sections(blob)


class CmprEncr(Scheme):
    """Black-box compress-then-encrypt (paper Sec. IV-A).

    The whole zlib output is ciphertext, so the stream passes every
    randomness test — at the price of encrypting the *largest* possible
    buffer, which dominates overhead on hard-to-compress data.
    """

    name = "cmpr_encr"
    scheme_id = 1

    def protect(self, frame_sections, cipher, iv, mode, level, tracer=None):
        tr = tracer or trace.NULL_TRACER
        cipher = self._check_cipher(cipher)
        blob = self._frame_blob(frame_sections)
        with tr.span("lossless", bytes_in=len(blob)) as sp:
            z = lossless.compress(blob, level)
            sp.bytes_out = len(z)
        with tr.span("encrypt", bytes_in=len(z), mode=mode) as sp:
            ct = cipher.encrypt(z, mode=mode, iv=iv).ciphertext
            sp.bytes_out = len(ct)
        return {"cipher": ct}

    def unprotect(self, sections, cipher, iv, mode, tracer=None):
        tr = tracer or trace.NULL_TRACER
        cipher = self._check_cipher(cipher)
        ct = self._take(sections, "cipher")
        with tr.span("decrypt", bytes_in=len(ct), mode=mode) as sp:
            z = cipher.decrypt(ct, iv, mode=mode)
            sp.bytes_out = len(z)
        with tr.span("lossless", bytes_in=len(z)) as sp:
            blob = lossless.decompress(z)
            sp.bytes_out = len(blob)
        return cont.unpack_sections(blob)

    def encrypted_bytes(self, frame_sections):
        # Pre-zlib upper bound; see the docstring on the base class.
        return sum(len(frame_sections[k]) for k in SECTION_ORDER)

    def keystream_hint(self, n_raw_bytes):
        # The zlib output is what gets encrypted; the raw field size
        # upper-bounds it for everything but incompressible noise.
        return n_raw_bytes


class EncrQuant(Scheme):
    """Encrypt the quantization array before the lossless pass
    (paper Sec. IV-B).

    "We decided to encrypt the quantization array, which includes the
    Huffman tree, Huffman codewords and other metadata before lossless
    compression."  The AES-randomized bytes then flow *into* zlib,
    which is exactly why this scheme can collapse the compression
    ratio of highly-compressible datasets (paper Fig. 5).

    For multi-lane (frame v3) streams the ``tree`` section also
    carries the lane/anchor table, so the decode entry points are
    encrypted together with the tree and codewords — an attacker
    cannot even segment the ciphertext into lanes.
    """

    name = "encr_quant"
    scheme_id = 2

    _ENCRYPTED = ("meta", "tree", "codes")
    _PLAIN = ("unpred", "coeffs", "exact", "aux")

    def protect(self, frame_sections, cipher, iv, mode, level, tracer=None):
        tr = tracer or trace.NULL_TRACER
        cipher = self._check_cipher(cipher)
        quant_blob = cont.pack_sections(
            {k: frame_sections[k] for k in self._ENCRYPTED}
        )
        with tr.span("encrypt", bytes_in=len(quant_blob), mode=mode) as sp:
            ct = cipher.encrypt(quant_blob, mode=mode, iv=iv).ciphertext
            sp.bytes_out = len(ct)
        outer = {"cipher": ct}
        outer.update({k: frame_sections[k] for k in self._PLAIN})
        packed = cont.pack_sections(outer)
        with tr.span("lossless", bytes_in=len(packed)) as sp:
            z = lossless.compress(packed, level)
            sp.bytes_out = len(z)
        return {"zblob": z}

    def unprotect(self, sections, cipher, iv, mode, tracer=None):
        tr = tracer or trace.NULL_TRACER
        cipher = self._check_cipher(cipher)
        z = self._take(sections, "zblob")
        with tr.span("lossless", bytes_in=len(z)) as sp:
            blob = lossless.decompress(z)
            sp.bytes_out = len(blob)
        outer = cont.unpack_sections(blob)
        ct = self._take(outer, "cipher")
        with tr.span("decrypt", bytes_in=len(ct), mode=mode) as sp:
            quant_blob = cipher.decrypt(ct, iv, mode=mode)
            sp.bytes_out = len(quant_blob)
        frame_sections = cont.unpack_sections(quant_blob)
        frame_sections.update(
            {k: self._take(outer, k) for k in self._PLAIN}
        )
        return frame_sections

    def encrypted_bytes(self, frame_sections):
        return sum(len(frame_sections[k]) for k in self._ENCRYPTED)

    def keystream_hint(self, n_raw_bytes):
        # meta + tree + codes: the code array dominates and is bounded
        # by the element count; the raw size is a safe upper bound.
        return n_raw_bytes


class EncrHuffman(Scheme):
    """Encrypt only the serialized Huffman tree (paper Sec. IV-C).

    Without the tree, inverting the codeword stream is NP-hard
    (refs [56], [57]), so this keys the whole quantization array while
    encrypting at most a few percent of it (paper Fig. 4) — the
    light-weight scheme the paper recommends.

    For multi-lane (frame v3) streams the ``tree`` section is the
    lane/anchor table *followed by* the serialized code table
    (:func:`repro.sz.huffman.serialize_lane_tree`), so encrypting the
    section keeps both secret: the security argument is unchanged, and
    the lane boundaries/anchors leak nothing in the clear.
    """

    name = "encr_huffman"
    scheme_id = 3

    _PLAIN = ("meta", "codes", "unpred", "coeffs", "exact", "aux")

    def protect(self, frame_sections, cipher, iv, mode, level, tracer=None):
        cipher = self._check_cipher(cipher)
        # Deflate the tree *before* encrypting it: ciphertext is
        # incompressible, so encrypting the raw serialization would
        # charge the final zlib pass for every byte of the tree.  At
        # the paper's 100-500 MB scale the tree is a negligible stream
        # fraction either way; at this repo's scaled-down sizes the
        # pre-compression is what preserves the paper's ">99 % of the
        # original CR" observation (see DESIGN.md §5).
        tr = tracer or trace.NULL_TRACER
        with tr.span("lossless",
                     bytes_in=len(frame_sections["tree"])) as sp:
            tree_z = lossless.compress(frame_sections["tree"], level)
            sp.bytes_out = len(tree_z)
        with tr.span("encrypt", bytes_in=len(tree_z), mode=mode) as sp:
            ct = cipher.encrypt(tree_z, mode=mode, iv=iv).ciphertext
            sp.bytes_out = len(ct)
        outer = {"cipher": ct}
        outer.update({k: frame_sections[k] for k in self._PLAIN})
        packed = cont.pack_sections(outer)
        with tr.span("lossless", bytes_in=len(packed)) as sp:
            z = lossless.compress(packed, level)
            sp.bytes_out = len(z)
        return {"zblob": z}

    def unprotect(self, sections, cipher, iv, mode, tracer=None):
        tr = tracer or trace.NULL_TRACER
        cipher = self._check_cipher(cipher)
        z = self._take(sections, "zblob")
        with tr.span("lossless", bytes_in=len(z)) as sp:
            blob = lossless.decompress(z)
            sp.bytes_out = len(blob)
        outer = cont.unpack_sections(blob)
        ct = self._take(outer, "cipher")
        with tr.span("decrypt", bytes_in=len(ct), mode=mode) as sp:
            tree_z = cipher.decrypt(ct, iv, mode=mode)
            sp.bytes_out = len(tree_z)
        with tr.span("lossless", bytes_in=len(tree_z)) as sp:
            tree = lossless.decompress(tree_z)
            sp.bytes_out = len(tree)
        frame_sections = {k: self._take(outer, k) for k in self._PLAIN}
        frame_sections["tree"] = tree
        return frame_sections

    def encrypted_bytes(self, frame_sections):
        # The deflated tree is what AES sees; report the pre-deflate
        # size as the conservative upper bound (matches Fig. 4's
        # "size of the Huffman tree" accounting).
        return len(frame_sections["tree"])

    def keystream_hint(self, n_raw_bytes):
        # Only the (deflated) tree section is encrypted — a few KiB
        # regardless of field size.  64 KiB covers the worst lane/
        # anchor tables; larger trees fall back to a synchronous
        # top-up.
        return min(n_raw_bytes, 1 << 16)


class EncrHuffmanRaw(EncrHuffman):
    """Encr-Huffman exactly as Algorithm 1 writes it: the *raw*
    serialized tree goes straight to AES, with no pre-deflate.

    At the paper's data scale the tree is a negligible stream fraction
    and this variant behaves identically to :class:`EncrHuffman`; at
    this repo's scaled-down sizes it trades a few percent of CR for
    the paper's "zlib runs faster over the ciphertext tree" effect.
    The tree-deflate ablation benchmark quantifies both.
    """

    name = "encr_huffman_raw"
    scheme_id = 4

    def protect(self, frame_sections, cipher, iv, mode, level, tracer=None):
        tr = tracer or trace.NULL_TRACER
        cipher = self._check_cipher(cipher)
        with tr.span("encrypt", bytes_in=len(frame_sections["tree"]),
                     mode=mode) as sp:
            ct = cipher.encrypt(
                frame_sections["tree"], mode=mode, iv=iv
            ).ciphertext
            sp.bytes_out = len(ct)
        outer = {"cipher": ct}
        outer.update({k: frame_sections[k] for k in self._PLAIN})
        packed = cont.pack_sections(outer)
        with tr.span("lossless", bytes_in=len(packed)) as sp:
            z = lossless.compress(packed, level)
            sp.bytes_out = len(z)
        return {"zblob": z}

    def unprotect(self, sections, cipher, iv, mode, tracer=None):
        tr = tracer or trace.NULL_TRACER
        cipher = self._check_cipher(cipher)
        z = self._take(sections, "zblob")
        with tr.span("lossless", bytes_in=len(z)) as sp:
            blob = lossless.decompress(z)
            sp.bytes_out = len(blob)
        outer = cont.unpack_sections(blob)
        ct = self._take(outer, "cipher")
        with tr.span("decrypt", bytes_in=len(ct), mode=mode) as sp:
            tree = cipher.decrypt(ct, iv, mode=mode)
            sp.bytes_out = len(tree)
        frame_sections = {k: self._take(outer, k) for k in self._PLAIN}
        frame_sections["tree"] = tree
        return frame_sections


#: Registry, paper order (plus the raw-tree ablation variant).
SCHEMES: dict[str, Scheme] = {
    s.name: s
    for s in (
        NoEncryption(),
        CmprEncr(),
        EncrQuant(),
        EncrHuffman(),
        EncrHuffmanRaw(),
    )
}

_BY_ID = {s.scheme_id: s for s in SCHEMES.values()}


def get_scheme(name_or_id: str | int) -> Scheme:
    """Look up a scheme by registry name or wire id."""
    if isinstance(name_or_id, str):
        try:
            return SCHEMES[name_or_id]
        except KeyError:
            raise ValueError(
                f"unknown scheme {name_or_id!r}; choose from {sorted(SCHEMES)}"
            ) from None
    try:
        return _BY_ID[name_or_id]
    except KeyError:
        raise ValueError(f"unknown scheme id {name_or_id}") from None
