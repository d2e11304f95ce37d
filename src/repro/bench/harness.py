"""Measurement harness for the paper's evaluation sweeps.

All experiments share the same protocol (paper Sec. V-A): a dataset x
error-bound grid, each cell measured over ``repeats`` runs and
averaged ("All data points ... are an average of five runs").  The
harness owns dataset generation/caching, per-scheme measurement, and
the sweep loop, so every benchmark file is a few lines of driver code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import time

import numpy as np

from repro.core import trace
from repro.core.metrics import bandwidth_mb_s, compression_ratio
from repro.core.pipeline import SecureCompressor
from repro.datasets import generate
from repro.sz.compressor import CompressionStats

__all__ = [
    "EBS",
    "KEY",
    "SCHEME_LABELS",
    "SchemeMeasurement",
    "dataset_cache",
    "measure_scheme",
    "sweep",
    "trace_cell",
]

#: The paper's absolute error-bound grid (Tables II-V columns).
EBS = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3)

#: Fixed experiment key (16 bytes); experiments never vary the key.
KEY = bytes(range(16))

#: Display labels, paper order.
SCHEME_LABELS = {
    "none": "Original SZ",
    "cmpr_encr": "Cmpr-Encr",
    "encr_quant": "Encr-Quant",
    "encr_huffman": "Encr-Huffman",
}

#: Modeled AES throughput as a multiple of the SZ substrate's own
#: throughput.  What the paper's time experiments measure is the
#: *ratio* between the cipher's and the compressor's speeds: on their
#: Xeon 6148, single-thread AES-NI CBC (~1 GB/s) runs roughly 15x
#: faster than SZ-1.4 (tens-to-~100 MB/s).  Our pure-Python AES is
#: ~1000x slower relative to the NumPy SZ, which would invert every
#: overhead shape; the model therefore rescales only the measured
#: encrypt/decrypt stage times so that the AES:SZ ratio matches the
#: paper's hardware (DESIGN.md §2, EXPERIMENTS.md).
MODEL_AES_SZ_RATIO = 15.0


@lru_cache(maxsize=1)
def sz_calibration() -> float:
    """Measured throughput (MB/s) of this build's SZ compressor.

    One reference compression of a smooth 48^3 field; cached.
    """
    from repro.sz.compressor import SZCompressor

    x = np.linspace(0.0, 4.0, 48)
    gx, gy, gz = np.meshgrid(x, x, x, indexing="ij")
    field = (np.sin(gx) * np.cos(gy) + 0.1 * gz).astype(np.float32)
    comp = SZCompressor(1e-4)
    comp.compress(field)  # warm-up
    t0 = time.perf_counter()
    comp.compress(field)
    dt = time.perf_counter() - t0
    return field.nbytes / (1024.0 * 1024.0) / dt


def model_aes_mb_s() -> float:
    """The modeled hardware-AES rate: ``MODEL_AES_SZ_RATIO x SZ``."""
    return MODEL_AES_SZ_RATIO * sz_calibration()


@lru_cache(maxsize=1)
def aes_calibration() -> tuple[float, float]:
    """Measured throughput (MB/s) of this build's CBC encrypt/decrypt.

    Used to convert measured encryption stage times into modeled
    hardware-AES times: ``t_model = t_measured * measured_rate /
    model_aes_mb_s()``.  Cached; costs one ~256 KiB encryption.
    """
    from repro.crypto.aes import AES128

    cipher = AES128(KEY)
    payload = bytes(256 * 1024)
    t0 = time.perf_counter()
    # Fixed IV: throughput calibration, nothing secret is protected.
    enc = cipher.encrypt_cbc(payload, iv=bytes(16))  # lint: disable=crypto-hygiene
    t_enc = time.perf_counter() - t0
    t0 = time.perf_counter()
    cipher.decrypt_cbc(enc.ciphertext, enc.iv)
    t_dec = time.perf_counter() - t0
    mb = len(payload) / (1024.0 * 1024.0)
    return mb / t_enc, mb / t_dec


@lru_cache(maxsize=32)
def dataset_cache(name: str, size: str = "small", seed: int = 2022) -> np.ndarray:
    """Generate (once) and cache a synthetic dataset."""
    data = generate(name, size=size, seed=seed)
    data.setflags(write=False)
    return data


@dataclass(frozen=True)
class SchemeMeasurement:
    """Averaged measurements of one (dataset, eb, scheme) cell."""

    scheme: str
    eb: float
    original_bytes: int
    compressed_bytes: int
    encrypted_bytes: int
    t_compress: float
    t_decompress: float
    #: Mean ``{stage: seconds}`` per run (:func:`trace.stage_seconds`).
    compress_times: dict[str, float]
    decompress_times: dict[str, float]
    sz_stats: CompressionStats

    @property
    def cr(self) -> float:
        """Compression ratio (paper Eq. 1)."""
        return compression_ratio(self.original_bytes, self.compressed_bytes)

    @property
    def compress_bw(self) -> float:
        """Compression bandwidth in MB/s (paper Eq. 2), as measured."""
        return bandwidth_mb_s(self.original_bytes, self.t_compress)

    @property
    def decompress_bw(self) -> float:
        """Decompression bandwidth in MB/s, as measured."""
        return bandwidth_mb_s(self.original_bytes, self.t_decompress)

    # -- modeled (hardware-AES) timings ---------------------------------

    def modeled_encrypt_seconds(self) -> float:
        """The encrypt stage's time under the reference AES rate."""
        measured = self.compress_times.get("encrypt", 0.0)
        enc_rate, _ = aes_calibration()
        return measured * enc_rate / model_aes_mb_s()

    def modeled_decrypt_seconds(self) -> float:
        """The decrypt stage's time under the reference AES rate."""
        measured = self.decompress_times.get("decrypt", 0.0)
        _, dec_rate = aes_calibration()
        return measured * dec_rate / model_aes_mb_s()

    @property
    def t_compress_modeled(self) -> float:
        """Compression time with AES rescaled to the reference rate.

        This is the quantity the paper's Tables III-V measure on
        AES-NI hardware; the pure-Python cipher would otherwise
        dominate and invert every overhead shape (see
        :data:`MODEL_AES_SZ_RATIO`).
        """
        measured_enc = self.compress_times.get("encrypt", 0.0)
        return self.t_compress - measured_enc + self.modeled_encrypt_seconds()

    @property
    def t_decompress_modeled(self) -> float:
        """Decompression time with AES rescaled to the reference rate."""
        measured_dec = self.decompress_times.get("decrypt", 0.0)
        return (
            self.t_decompress - measured_dec + self.modeled_decrypt_seconds()
        )

    @property
    def compress_bw_modeled(self) -> float:
        """Compression bandwidth (MB/s) under the hardware-AES model."""
        return bandwidth_mb_s(self.original_bytes, self.t_compress_modeled)

    @property
    def decompress_bw_modeled(self) -> float:
        """Decompression bandwidth (MB/s) under the hardware-AES model."""
        return bandwidth_mb_s(self.original_bytes, self.t_decompress_modeled)


def measure_scheme(
    data: np.ndarray,
    scheme: str,
    eb: float,
    *,
    repeats: int = 3,
    key: bytes = KEY,
    cipher_mode: str = "cbc",
    seed: int = 1,
    **kwargs,
) -> SchemeMeasurement:
    """Measure one (data, scheme, eb) cell, averaged over ``repeats``.

    Wall times are averaged; sizes and stats come from the final run
    (they are deterministic given the seeded IV generator).  Stage
    times are read from one tracer per direction, built outside the
    timed window.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    rng = np.random.default_rng(seed)
    # Experiment harness: seeded nonces are deliberate (reproducible
    # sweeps over synthetic data), so opt out of the CTR reuse guard.
    sc = SecureCompressor(
        scheme=scheme,
        error_bound=eb,
        key=key if scheme != "none" else None,
        cipher_mode=cipher_mode,
        random_state=rng,
        allow_nonce_reuse=True,
        **kwargs,
    )
    t_comp = 0.0
    t_decomp = 0.0
    result = None
    comp_tr = trace.Tracer()
    decomp_tr = trace.Tracer()
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = sc.compress(np.asarray(data), tracer=comp_tr)
        t_comp += time.perf_counter() - t0
        t0 = time.perf_counter()
        sc.decompress(result.container, tracer=decomp_tr)
        t_decomp += time.perf_counter() - t0
    scale = 1.0 / repeats

    def per_run(tr: trace.Tracer) -> dict[str, float]:
        return {k: v * scale for k, v in trace.stage_seconds(tr).items()}

    return SchemeMeasurement(
        scheme=scheme,
        eb=eb,
        original_bytes=int(np.asarray(data).nbytes),
        compressed_bytes=len(result.container),
        encrypted_bytes=result.encrypted_bytes,
        t_compress=t_comp * scale,
        t_decompress=t_decomp * scale,
        compress_times=per_run(comp_tr),
        decompress_times=per_run(decomp_tr),
        sz_stats=result.sz_stats,
    )


def trace_cell(
    data: np.ndarray,
    scheme: str,
    eb: float,
    *,
    key: bytes = KEY,
    cipher_mode: str = "cbc",
    seed: int = 1,
    **kwargs,
) -> dict:
    """One traced compress+decompress of a (data, scheme, eb) cell.

    Returns the validated ``repro-trace/1`` document — the same spans
    and counters the library records for any caller, so bench output
    and library instrumentation share one code path (the benchmarks
    emit these next to their tables; see ``conftest.emit_trace``).
    """
    sc = SecureCompressor(
        scheme=scheme,
        error_bound=eb,
        key=key if scheme != "none" else None,
        cipher_mode=cipher_mode,
        random_state=np.random.default_rng(seed),
        allow_nonce_reuse=True,
        **kwargs,
    )
    tr = trace.Tracer()
    result = sc.compress(np.asarray(data), tracer=tr)
    sc.decompress(result.container, tracer=tr)
    return trace.validate(tr.export())


#: Traced protects per side of one paired-overhead repeat; each stage
#: keeps its fastest run, so one scheduler hiccup cannot flip a ratio.
_PROTECT_RUNS = 3


def measure_overhead_paired(
    data: np.ndarray,
    scheme: str,
    eb: float,
    *,
    repeats: int = 5,
    key: bytes = KEY,
    cipher_mode: str = "cbc",
    seed: int = 1,
) -> float:
    """Tables III-V overhead (%) with paired, modeled-AES timing.

    For each repeat, one SZ frame is produced and *both* the scheme's
    protect stage and the plain-SZ protect stage run on it.  The shared
    SZ stage time appears in numerator and denominator, so machine
    noise in the (dominant) SZ stages cancels and only the genuinely
    differing encrypt/lossless stages are compared — which is exactly
    the paper's claim structure ("all overhead is derived from the
    subsequent encryption process").  The encrypt stage is rescaled to
    :data:`MODEL_AES_MB_S` like every other modeled timing.  The SZ
    time is the sum of the ``sz.compress`` stage leaves, not the span
    itself (which also covers the glue between stages).

    The modeled encrypt is only a few percent of the base, so a fixed
    order or one noisy deflate would decide the sign of the overhead.
    The two protects therefore run interleaved, :data:`_PROTECT_RUNS`
    times each, so both sample the same stretch of machine noise; the
    side that goes first alternates per repeat, and each stage keeps
    its fastest run.

    Returns the median over ``repeats`` of ``100 * t_scheme / t_base``.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    from repro.core.schemes import get_scheme
    from repro.crypto.aes import AES128
    from repro.crypto.rng import fresh_iv
    from repro.sz.compressor import SZCompressor

    rng = np.random.default_rng(seed)
    scheme_obj = get_scheme(scheme)
    cipher = AES128(key) if scheme_obj.requires_key else None
    sides = ((scheme_obj, cipher), (get_scheme("none"), None))
    enc_rate, _ = aes_calibration()
    ratios = []
    for i in range(repeats):
        sz_tr = trace.Tracer()
        frame = SZCompressor(eb).compress(np.asarray(data), tracer=sz_tr)
        sz_seconds = sum(trace.stage_seconds(sz_tr).values())
        iv = fresh_iv(cipher_mode, rng)
        best: list[dict[str, float]] = [{}, {}]
        for k in (i % 2, 1 - i % 2) * _PROTECT_RUNS:
            obj, side_cipher = sides[k]
            tr = trace.Tracer()
            obj.protect(frame.sections, side_cipher, iv, cipher_mode, tr)
            for stage, seconds in trace.stage_seconds(tr).items():
                best[k][stage] = min(seconds, best[k].get(stage, seconds))
        t_scheme, t_base = best
        measured_enc = t_scheme.get("encrypt", 0.0)
        modeled_enc = measured_enc * enc_rate / model_aes_mb_s()
        scheme_total = (
            sz_seconds + t_scheme.get("lossless", 0.0) + modeled_enc
        )
        base_total = sz_seconds + t_base.get("lossless", 0.0)
        ratios.append(100.0 * scheme_total / base_total)
    return float(np.median(ratios))


def sweep(
    datasets: tuple[str, ...],
    schemes: tuple[str, ...],
    ebs: tuple[float, ...] = EBS,
    *,
    size: str = "small",
    repeats: int = 3,
    **kwargs,
) -> dict[tuple[str, str, float], SchemeMeasurement]:
    """Run the full grid; keys are ``(dataset, scheme, eb)``."""
    results: dict[tuple[str, str, float], SchemeMeasurement] = {}
    for name in datasets:
        data = dataset_cache(name, size=size)
        for scheme in schemes:
            for eb in ebs:
                results[(name, scheme, eb)] = measure_scheme(
                    data, scheme, eb, repeats=repeats, **kwargs
                )
    return results
