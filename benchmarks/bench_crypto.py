"""Quick-bench: the CTR fast path vs Algorithm-1 CBC.

Standalone (no pytest plugins): times the scalar-chained CBC path
against the batched CTR path end-to-end, in CPU seconds, on the
encryption-heavy Cmpr-Encr scheme over a fig6-size field, the raw
keystream generator monolithic vs segmented, whole-call CBC decryption and encryption, and
the keystream blocks one CTR compress makes against those its
ciphertext uses.
Writes ``BENCH_crypto.json`` at the repo root (or ``REPRO_BENCH_OUT``)
under the ledger's ``repro-bench/1`` provenance header
(:mod:`provenance`).  CI runs it once at full size, where the
acceptance bar — CTR compress+encrypt >= 2x CBC, a ratio of two
timings on the same runner — applies, and once as a smoke check at
tiny dims (``REPRO_BENCH_DIMS`` set), where it is waived.

Correctness is asserted at every size: segmented keystream must be
bit-identical to monolithic, CBC encryption (the scalar chain kernel)
must equal the chain rebuilt on the batched engine, a CTR compress
must make exactly the ``ceil(n / 16)`` keystream blocks its
``n``-byte encrypt span needs, and seeded CBC containers must not
drift between runs.

Usage::

    PYTHONPATH=src python benchmarks/bench_crypto.py

Environment knobs: ``REPRO_BENCH_REPEATS`` (default 3, best-of),
``REPRO_BENCH_DATASET`` (default ``t``), ``REPRO_BENCH_DIMS``
(comma-separated; setting it waives the full-size speedup bar so CI
can smoke-test at tiny sizes) and ``REPRO_BENCH_OUT`` (output path
override).
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np
from provenance import header

from repro.core import trace
from repro.core.pipeline import SecureCompressor
from repro.crypto import batch, modes
from repro.crypto.keyschedule import expand_key
from repro.datasets import generate

EB = 1e-5  # matches bench_ablation_modes: encryption-heavy regime
DATASET = os.environ.get("REPRO_BENCH_DATASET", "t")
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
FULL_SIZE = "REPRO_BENCH_DIMS" not in os.environ
DIMS = (
    None
    if FULL_SIZE
    else tuple(int(d) for d in os.environ["REPRO_BENCH_DIMS"].split(","))
)
OUT_PATH = os.environ.get(
    "REPRO_BENCH_OUT",
    os.path.join(os.path.dirname(__file__), "..", "BENCH_crypto.json"),
)
KEY = bytes(range(16))


def _best_seconds(fn, repeats: int = REPEATS, clock=time.perf_counter) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        fn()
        best = min(best, clock() - t0)
    return best


def _padded_ciphertext(ek, iv: bytes, n_bytes: int) -> bytes:
    """Pseudo-random ciphertext blocks whose last block decrypts to
    valid one-byte PKCS#7 padding, so ``cbc_decrypt`` accepts it
    without an ``n_bytes`` scalar CBC encrypt first."""
    raw = np.random.default_rng(0).integers(
        0, 256, n_bytes - 16, dtype=np.uint8).tobytes()
    prev = raw[-16:] if raw else iv
    last = bytes(a ^ b for a, b in zip(bytes(15) + b"\x01", prev))
    return raw + batch.encrypt_blocks(batch.to_blocks(last), ek).tobytes()


def _is_batch_chain(ct: bytes, plaintext: bytes, ek, iv: bytes) -> bool:
    """True when ``ct`` is the CBC chain of ``plaintext`` on the batched
    engine: every block is E(P_i xor C_{i-1}), with C_{-1} = IV.  One
    engine call checks every link at once."""
    plain = batch.to_blocks(modes.pkcs7_pad(plaintext))
    cipher = batch.to_blocks(ct)
    if cipher.shape != plain.shape:
        return False
    prev = np.vstack([np.frombuffer(iv, dtype=np.uint8), cipher[:-1]])
    return bool(np.array_equal(batch.encrypt_blocks(plain ^ prev, ek), cipher))


def main() -> dict:
    # fig6-size: the full "small" registry preset, as used by the
    # bandwidth figure at REPRO_BENCH_SIZE=small.
    field = np.asarray(
        generate(DATASET, dims=DIMS, size="small"), dtype=np.float32
    )
    field_mb = field.nbytes / 1e6
    result: dict = {
        "header": header("crypto", field.shape),
        "dataset": DATASET,
        "field_mb": round(field_mb, 3),
        "error_bound": EB,
        "repeats": REPEATS,
        "full_size": FULL_SIZE,
        "keystream_mb_per_s": {},
        "decrypt_mb_per_s": {},
        "encrypt_mb_per_s": {},
        "end_to_end_s": {},
        "stage_encrypt_s": {},
    }

    # ------------------------------------------------------------------
    # Raw keystream: monolithic batch vs bounded segments.  Segmenting
    # caps peak memory at ~128 KiB of counter blocks per batch; the
    # bytes must not change.
    # ------------------------------------------------------------------
    ek = expand_key(KEY)
    nonce = b"benchpfx"
    n_bytes = max(1, min(field.nbytes, 4 << 20))
    mono = modes.ctr_keystream(ek, nonce, n_bytes, segment_blocks=1 << 30)
    seg = modes.ctr_keystream(ek, nonce, n_bytes)
    assert np.array_equal(mono, seg), (
        "keystream drift: segmented stream differs from monolithic"
    )
    ks_mb = n_bytes / 1e6
    secs = _best_seconds(
        lambda: modes.ctr_keystream(ek, nonce, n_bytes, segment_blocks=1 << 30)
    )
    result["keystream_mb_per_s"]["monolithic"] = round(ks_mb / secs, 2)
    secs = _best_seconds(lambda: modes.ctr_keystream(ek, nonce, n_bytes))
    result["keystream_mb_per_s"]["segmented"] = round(ks_mb / secs, 2)
    result["keystream_segment_blocks"] = modes.CTR_SEGMENT_BLOCKS

    # ------------------------------------------------------------------
    # Whole-call CBC decrypt over a ciphertext of the keystream's size:
    # the windowed batched engine, the chain XOR and the unpad.
    # ------------------------------------------------------------------
    iv = bytes(range(16, 32))
    n_ct = max(32, n_bytes // 16 * 16)
    ct = _padded_ciphertext(ek, iv, n_ct)
    secs = _best_seconds(lambda: modes.cbc_decrypt(ct, ek, iv))
    result["decrypt_mb_per_s"]["cbc"] = round(n_ct / 1e6 / secs, 2)

    # ------------------------------------------------------------------
    # Whole-call CBC encrypt (the scalar chain kernel, CPU seconds) of
    # that ciphertext's plaintext, so the same bytes come out; the
    # chain must match the batched engine's at every size.
    # ------------------------------------------------------------------
    pt = modes.cbc_decrypt(ct, ek, iv)
    enc = modes.cbc_encrypt(pt, ek, iv)
    assert enc == ct and _is_batch_chain(enc, pt, ek, iv), (
        "CBC chain drift: cbc_encrypt differs from the batch-engine chain"
    )
    secs = _best_seconds(
        lambda: modes.cbc_encrypt(pt, ek, iv), clock=time.process_time
    )
    result["encrypt_mb_per_s"]["cbc"] = round(n_ct / 1e6 / secs, 2)

    # ------------------------------------------------------------------
    # End-to-end compress+encrypt in CPU seconds (compress runs on one
    # thread): Cmpr-Encr encrypts its whole compressed stream, so this
    # is where CBC's sequential chaining hurts and where CTR's batched
    # engine pays.  Wall-clock best-of-3 read 9.11, 5.87 and 4.8 on
    # the same code on a shared 2-vCPU VM; CPU seconds drop the steal
    # time, though host load still moves the pure-Python CBC side (the
    # ratio read 5.2, 7.8 and 8.2 over three runs there).
    # ------------------------------------------------------------------
    for mode in ("cbc", "ctr"):
        sc = SecureCompressor("cmpr_encr", EB, key=KEY, cipher_mode=mode)
        # Traced warm-up: sizes the ciphertext, and its encrypt leaf
        # is the stage time reported below.
        warm = trace.Tracer()
        res = sc.compress(field, tracer=warm)
        result["end_to_end_s"][mode] = round(
            _best_seconds(lambda: sc.compress(field), clock=time.process_time), 4
        )
        result["stage_encrypt_s"][mode] = round(
            trace.stage_seconds(warm).get("encrypt", 0.0), 4
        )
        if mode == "cbc":
            result["encrypted_mb"] = round(res.encrypted_bytes / 1e6, 3)
    result["ctr_speedup_end_to_end"] = round(
        result["end_to_end_s"]["cbc"] / result["end_to_end_s"]["ctr"], 2
    )
    if FULL_SIZE:
        assert result["ctr_speedup_end_to_end"] >= 2.0, (
            "CTR fast path regressed: end-to-end compress+encrypt is "
            f"only {result['ctr_speedup_end_to_end']}x CBC (bar: 2x)"
        )

    # ------------------------------------------------------------------
    # Exact-size keystream: one traced CTR compress makes exactly the
    # ceil(n / 16) blocks its encrypt span takes in, and no more.
    # ------------------------------------------------------------------
    tr = trace.Tracer()
    SecureCompressor("cmpr_encr", EB, key=KEY, cipher_mode="ctr").compress(
        field, tracer=tr
    )
    doc = tr.export()
    stack, used = list(doc["roots"]), 0
    while stack:
        span = stack.pop()
        if span["name"] == "encrypt":
            used += math.ceil(span["bytes_in"] / 16)
        stack.extend(span["children"])
    made = doc["counters"].get("aes.blocks_keystream", 0)
    assert used > 0 and made == used, (
        f"keystream size drift: {made} blocks made for {used} used"
    )
    result["keystream_blocks"] = {"made": made, "used": used}

    # ------------------------------------------------------------------
    # CBC frame drift: Algorithm-1 fidelity means seeded CBC containers
    # are exactly reproducible run to run (the format-stability digests
    # pin them against the seed; this guards against in-process drift).
    # ------------------------------------------------------------------
    def _cbc_seeded() -> bytes:
        return SecureCompressor(
            "cmpr_encr", EB, key=KEY,
            random_state=np.random.default_rng(11),
        ).compress(field).container

    assert _cbc_seeded() == _cbc_seeded(), (
        "CBC frame drift: seeded container changed between runs"
    )
    result["cbc_frames_deterministic"] = True

    with open(os.path.abspath(OUT_PATH), "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
    return result


if __name__ == "__main__":
    main()
