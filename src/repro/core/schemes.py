"""The three combination strategies (paper Sec. IV) plus the plain-SZ
baseline: five rows of one :class:`Scheme`, run by one code path.

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
tiny randomized tree barely registers.  So a row says only where AES
sits: which sections it seals before zlib (``sealed``), whether they
are deflated first (``deflate_sealed``), and whether it runs over the
zlib output (``encrypt_outer``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import container as cont
from repro.core import trace
from repro.crypto.aes import AES128
from repro.sz import lossless
from repro.sz.compressor import SECTION_ORDER

__all__ = ["Scheme", "SCHEMES", "get_scheme"]


def _take(sections: dict[str, bytes], name: str) -> bytes:
    """Fetch a section an attacker-controlled container must carry.

    A corrupted section *name* parses fine but leaves the expected key
    absent; that must surface as the parse-failure ValueError the
    fuzzing contract promises, not a KeyError.
    """
    try:
        return sections[name]
    except KeyError:
        raise ValueError(
            f"container is missing required section {name!r}"
        ) from None


def _deflate(tr: trace.Tracer, data: bytes) -> bytes:
    with tr.span("lossless", bytes_in=len(data)) as sp:
        out = lossless.compress(data)
        sp.bytes_out = len(out)
    return out


def _inflate(tr: trace.Tracer, data: bytes) -> bytes:
    with tr.span("lossless", bytes_in=len(data)) as sp:
        out = lossless.decompress(data)
        sp.bytes_out = len(out)
    return out


def _encrypt(tr: trace.Tracer, cipher: AES128, data: bytes, iv: bytes,
             mode: str) -> bytes:
    with tr.span("encrypt", bytes_in=len(data), mode=mode) as sp:
        out = cipher.encrypt(data, mode=mode, iv=iv).ciphertext
        sp.bytes_out = len(out)
    return out


def _decrypt(tr: trace.Tracer, cipher: AES128, data: bytes, iv: bytes,
             mode: str) -> bytes:
    with tr.span("decrypt", bytes_in=len(data), mode=mode) as sp:
        out = cipher.decrypt(data, iv, mode=mode)
        sp.bytes_out = len(out)
    return out


@dataclass(frozen=True)
class Scheme:
    """A secure-compression strategy over frame sections.

    ``protect`` encrypts the ``sealed`` frame sections (deflated first
    if ``deflate_sealed``; several are framed with
    :func:`~repro.core.container.pack_sections`, one goes as is), packs
    the ciphertext as ``cipher`` followed by the rest of
    :data:`~repro.sz.compressor.SECTION_ORDER`, runs zlib over that,
    and runs AES over the zlib output if ``encrypt_outer``.
    """

    #: Registry name (also the CLI name).
    name: str
    #: Wire id stored in the container header.
    scheme_id: int
    #: Frame sections encrypted before the zlib pass.
    sealed: tuple[str, ...] = ()
    #: Deflate the sealed bytes before encrypting them.
    deflate_sealed: bool = False
    #: Encrypt the whole zlib output (the container holds ``cipher``,
    #: not ``zblob``).
    encrypt_outer: bool = False

    @property
    def requires_key(self) -> bool:
        """Whether the row encrypts anything (False only for ``none``)."""
        return bool(self.sealed) or self.encrypt_outer

    def _check_key(self, cipher: AES128 | None) -> None:
        if cipher is None and self.requires_key:
            raise ValueError("this scheme requires an AES key")

    def protect(
        self,
        frame_sections: dict[str, bytes],
        cipher: AES128 | None,
        iv: bytes,
        mode: str,
        tracer: trace.Tracer | None = None,
    ) -> dict[str, bytes]:
        """Transform frame sections into container sections.

        ``tracer`` records one stage span per ``lossless`` /
        ``encrypt`` pass.
        """
        tr = tracer or trace.NULL_TRACER
        self._check_key(cipher)
        outer = {}
        if self.sealed:
            if len(self.sealed) == 1:
                inner = frame_sections[self.sealed[0]]
            else:
                inner = cont.pack_sections(
                    {k: frame_sections[k] for k in self.sealed}
                )
            if self.deflate_sealed:
                inner = _deflate(tr, inner)
            outer["cipher"] = _encrypt(tr, cipher, inner, iv, mode)
        outer.update({k: frame_sections[k] for k in SECTION_ORDER
                      if k not in self.sealed})
        z = _deflate(tr, cont.pack_sections(outer))
        if self.encrypt_outer:
            return {"cipher": _encrypt(tr, cipher, z, iv, mode)}
        return {"zblob": z}

    def unprotect(
        self,
        sections: dict[str, bytes],
        cipher: AES128 | None,
        iv: bytes,
        mode: str,
        tracer: trace.Tracer | None = None,
    ) -> dict[str, bytes]:
        """Invert :meth:`protect` back to frame sections."""
        tr = tracer or trace.NULL_TRACER
        self._check_key(cipher)
        if self.encrypt_outer:
            z = _decrypt(tr, cipher, _take(sections, "cipher"), iv, mode)
        else:
            z = _take(sections, "zblob")
        outer = cont.unpack_sections(_inflate(tr, z))
        if not self.sealed:
            return outer
        inner = _decrypt(tr, cipher, _take(outer, "cipher"), iv, mode)
        if self.deflate_sealed:
            inner = _inflate(tr, inner)
        if len(self.sealed) == 1:
            frame_sections = {self.sealed[0]: inner}
        else:
            frame_sections = cont.unpack_sections(inner)
        frame_sections.update({k: _take(outer, k) for k in SECTION_ORDER
                               if k not in self.sealed})
        return frame_sections

    def encrypted_bytes(self, frame_sections: dict[str, bytes]) -> int:
        """Frame-section bytes whose content this scheme encrypts.

        Used by the bandwidth analysis (paper Sec. V-D compares the 8.8
        MB Encr-Quant encrypts against Cmpr-Encr's 5.3 MB compressed
        stream for CLOUDf48); for Encr-Huffman it is Fig. 4's "size of
        the Huffman tree".  It is not the AES input: Cmpr-Encr
        encrypts the zlib output of these sections, Encr-Huffman the
        deflated tree, Encr-Quant the sections in their
        ``pack_sections`` framing.  A traced compress's ``encrypt``
        spans record the AES input as ``bytes_in``.
        """
        names = SECTION_ORDER if self.encrypt_outer else self.sealed
        return sum(len(frame_sections[k]) for k in names)


#: Registry, paper order (plus the raw-tree ablation variant).
SCHEMES: dict[str, Scheme] = {
    s.name: s
    for s in (
        # Plain SZ: the normalization baseline of every table.
        Scheme("none", 0),
        # Black-box compress-then-encrypt (Sec. IV-A).  The whole zlib
        # output is ciphertext, so the stream passes every randomness
        # test, at the price of encrypting the *largest* possible
        # buffer, which dominates overhead on hard-to-compress data.
        Scheme("cmpr_encr", 1, encrypt_outer=True),
        # Encrypt the quantization array (Huffman tree, codewords and
        # metadata) before the lossless pass (Sec. IV-B).  The
        # AES-randomized bytes flow *into* zlib, which is why this
        # scheme can collapse the CR of highly-compressible data
        # (Fig. 5).  In a multi-lane (frame v3) stream ``tree`` also
        # carries the lane/anchor table, so an attacker cannot even
        # segment the ciphertext into lanes.
        Scheme("encr_quant", 2, sealed=("meta", "tree", "codes")),
        # Encrypt only the serialized Huffman tree (Sec. IV-C), the
        # light-weight scheme the paper recommends: it encrypts at most
        # a few percent of the quantization array (Fig. 4).  Decoding
        # ``codes`` without the tree is NP-hard only in the worst case
        # (refs [56], [57]).  A small alphabet leaves little to guess:
        # at bound 1e-2 the qi and cloudf48 stand-ins code with one
        # symbol, and with ``meta`` in the clear that leaves at most
        # log2(2·radius) <= 16 bits (docs/SECURITY.md limitation 2).
        # In a v3 frame ``tree`` is the lane/anchor table followed by
        # the code table (:func:`repro.sz.huffman.serialize_lane_tree`),
        # so the lane boundaries and anchors are sealed too.  The tree
        # is deflated *before* it is encrypted: ciphertext is
        # incompressible, so encrypting the raw serialization would
        # charge the final zlib pass for every byte of the tree.  At
        # the paper's 100-500 MB scale the tree is a negligible stream
        # fraction either way; at this repo's scaled-down sizes the
        # pre-deflate is what keeps the paper's ">99 % of the original
        # CR" (DESIGN.md §5).
        Scheme("encr_huffman", 3, sealed=("tree",), deflate_sealed=True),
        # Encr-Huffman exactly as Algorithm 1 writes it: the raw tree
        # goes straight to AES.  It trades a few percent of CR at this
        # repo's sizes for the paper's "zlib runs faster over the
        # ciphertext tree" effect; the tree-deflate ablation benchmark
        # quantifies both.
        Scheme("encr_huffman_raw", 4, sealed=("tree",)),
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
