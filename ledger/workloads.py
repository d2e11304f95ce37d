"""The ledger's four workloads, driven through the program's public
entry points only.

* ``field-ctr`` / ``field-cbc`` — ``SecureCompressor.compress`` and
  ``decompress`` over (dataset x scheme) rows.
* ``serve`` — ``ServiceClient.submit``/``wait``/``fetch`` against a
  ``secz serve`` child process, open loop.
* ``archive`` — ``ArchiveStore.add_*``/``extract_*`` on a mixed corpus.

Every operation is timed twice: wall-clock, and CPU seconds of the
process doing the work (all its threads).  The gated end-to-end
metrics count *reference seconds*: CPU seconds scaled by how fast a
fixed reference kernel ran, interleaved with the work, in the same
run (:class:`HostSpeed`).  The wall-clock view is reported beside them
(``wall.*``).  README.md beside this file says why.
"""

from __future__ import annotations

import contextlib
import os
import queue
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans as sp

#: Fixed benchmark key (the inputs are synthetic, nothing is secret).
KEY = bytes(range(16))
#: Absolute error bound of every lossy operation in the ledger.
BOUND = 1e-4
SCHEMES = ("none", "cmpr_encr", "encr_quant", "encr_huffman")
#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 3

#: workload -> (cipher mode, datasets, preset).  field-cbc runs the
#: ``small`` preset: one medium CBC pass takes ~24 s on two cores,
#: longer than a whole run.
FIELD_WORKLOADS = {
    "field-ctr": ("ctr", ("nyx", "t", "cloudf48"), "medium"),
    "field-cbc": ("cbc", ("nyx", "t"), "small"),
}
SERVE_DATASETS = ("cloudf48", "wf48", "nyx", "q2", "height", "qi", "t")
#: Serve inputs are ``tiny`` (0.13-0.15 MB): with ``small`` fields
#: (~1 MB, 70-140 ms each) 8 jobs/s holds the one worker ~60% busy,
#: and the daemon saturates whenever the shared host slows down.
SERVE_PRESET = "tiny"
#: Open-loop arrival rate of the serve workload, jobs per second.
SERVE_RATE = 8.0
#: Entry kinds of the archive corpus, as reported per codec.
ARCHIVE_KINDS = ("lz77h", "zlib", "store", "field")
#: CPU seconds the reference kernel takes on an unloaded 2-vCPU host
#: of the kind the ledger was built on: one reference second is the
#: CPU second of a host where the kernel runs this fast.
REF_NOMINAL_S = 0.004

#: (name, unit) of every end-to-end metric, emitted by every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("write_mb_per_ref_s", "MB/ref-s"),
    ("read_mb_per_ref_s", "MB/ref-s"),
    ("stored_bytes_ratio", "B/B"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, emitted by every traced run;
#: a layer the workload does not reach reads 0.
PER_LAYER = (
    ("wall.write_mb_s", "MB/s"),
    ("wall.read_mb_s", "MB/s"),
    ("wall.latency_p50_ms", "ms"),
    ("wall.latency_p95_ms", "ms"),
    ("sz.quantize_s", "s"),
    ("sz.predict_s", "s"),
    ("sz.huffman_build_s", "s"),
    ("sz.huffman_encode_s", "s"),
    ("sz.side_channels_s", "s"),
    ("sz.huffman_decode_s", "s"),
    ("sz.reconstruct_s", "s"),
    ("sz.lossless_s", "s"),
    ("sz.deflate_saved_frac", "frac"),
    ("huffman.codec_cache_hit_rate", "frac"),
    ("crypto.encrypt_s", "s"),
    ("aes.blocks_encrypted", "count"),
    ("crypto.decrypt_s", "s"),
    ("aes.blocks_decrypted", "count"),
    ("crypto.keystream_wait_ms", "ms"),
    ("crypto.keystream_useful_frac", "frac"),
    ("core.protect_s", "s"),
    ("core.unprotect_s", "s"),
    ("core.facade_self_s", "s"),
    ("schemes.encrypted_bytes", "B"),
    *((f"schemes.overhead_vs_none.{s}", "frac") for s in SCHEMES[1:]),
    ("service.submit_ack_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.queue_wait_ms_per_job", "ms"),
    ("service.batch_reuse_hits", "count"),
    ("service.jobs_failed", "count"),
    ("bench.generator_late_ms", "ms"),
    *((f"archive.add_s.{k}", "s") for k in ARCHIVE_KINDS),
    *((f"archive.extract_s.{k}", "s") for k in ARCHIVE_KINDS),
    ("archive.dedup_frac", "frac"),
    ("lz.match_bytes_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)


@dataclass(frozen=True)
class Config:
    workload: str
    seed: int
    seconds: float
    traced: bool
    tiny: bool
    out_dir: Path


@dataclass
class Outcome:
    """What one run measured.

    ``metrics`` holds the end-to-end metrics (untraced run) or the
    per-layer ones (traced run); ``ledger`` the run's figures under the
    workload's own names; ``detail`` the per-row breakdown and run
    parameters written beside the results.
    """

    metrics: dict[str, float]
    ledger: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    detail: dict
    trace_doc: dict | None = None


class Program:
    """The program's public entry points, imported from ``src`` (the
    import is timed: it is part of every workload's set-up)."""

    def __init__(self, src: Path) -> None:
        c0 = time.process_time()
        sys.path.insert(0, str(src))
        from repro.archive import ArchiveStore
        from repro.core import SecureCompressor, trace
        from repro.datasets import generate
        from repro.datasets.registry import get_spec
        from repro.service import ServiceClient

        self.import_cpu_s = time.process_time() - c0
        self.src = src
        self.ArchiveStore = ArchiveStore
        self.SecureCompressor = SecureCompressor
        self.ServiceClient = ServiceClient
        self.trace = trace
        self.generate = generate
        self.get_spec = get_spec

    def counters(self) -> dict[str, int]:
        return self.trace.counters_snapshot()


class Tally:
    """Operations attempted and failed (wrong output or exception)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"ledger: wrong output: {what}", file=sys.stderr)
        return ok

    def error(self, what: str, n: int = 1) -> None:
        """Record ``n`` failed operations after an exception."""
        self.attempted += n
        self.failed += n
        print(f"ledger: operation failed: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


@dataclass
class Times:
    """Wall-clock and process-CPU seconds of repeated operations."""

    wall: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)

    def add(self, sample: tuple[float, float]) -> None:
        self.wall.append(sample[0])
        self.cpu.append(sample[1])


def clock() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def since(start: tuple[float, float]) -> tuple[float, float]:
    """``(wall, cpu)`` seconds since ``start``; cpu counts every thread
    of this process (the CTR keystream prefetcher included)."""
    wall, cpu = clock()
    return wall - start[0], cpu - start[1]


def _reference_kernel(data: np.ndarray) -> int:
    """Fixed work mixing NumPy and interpreter code, like the program."""
    acc = zlib.crc32(np.sort(data).tobytes())
    for i in range(18000):
        acc ^= (i * 2654435761) & 0xFFFF
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc ^ len(counts)


class HostSpeed:
    """Times a fixed reference kernel between the run's operations.

    Contention on a shared host (hypervisor steal, a busy sibling
    hyperthread) slows the program's CPU seconds and the kernel's
    alike, by up to 1.8x from one run to the next.  Scaling by the
    kernel's median time over the run cancels most of it.
    """

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).random(1 << 15)
        self.cpu: list[float] = []

    def sample(self) -> None:
        c0 = time.thread_time()
        _reference_kernel(self._data)
        self.cpu.append(time.thread_time() - c0)

    def ref_seconds(self, cpu_s: float) -> float:
        """``cpu_s`` in reference seconds."""
        return cpu_s * REF_NOMINAL_S / sp.median(self.cpu)


def cycle(items, seconds: float):
    """Yield ``(pass_no, item)`` over ``items`` repeatedly until
    ``seconds`` have passed; the first pass always completes, later
    passes stop between items."""
    deadline = time.perf_counter() + seconds
    pass_no = 0
    while True:
        for item in items:
            if pass_no and time.perf_counter() >= deadline:
                return
            yield pass_no, item
        pass_no += 1


def trace_plan(traced_run: bool, step: int) -> tuple[bool, ...]:
    """Which repetitions of one step are traced: untraced runs trace
    nothing; traced runs pair a traced and an untraced repetition,
    alternating which goes first, so ``trace.overhead_frac`` compares
    like with like and the untraced half still gives the end-to-end
    view."""
    if not traced_run:
        return (False,)
    return (True, False) if step % 2 == 0 else (False, True)


def timed_setup(prog: Program, speed: HostSpeed, build, *, discard=None,
                extra_cpu=None):
    """Run ``build`` :data:`SETUP_REPS` times; returns the last result
    and the set-up CPU seconds: import + the median of one build (plus
    ``extra_cpu(result)``, CPU spent by a child process)."""
    cpu = []
    result = None
    for _ in range(SETUP_REPS):
        if result is not None and discard is not None:
            discard(result)
        speed.sample()
        c0 = time.process_time()
        result = build()
        used = time.process_time() - c0
        if extra_cpu is not None:
            used += extra_cpu(result)
        cpu.append(used)
    return result, prog.import_cpu_s + sp.median(cpu)


def peak_rss_mb() -> float:
    """High-water RSS of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counter_delta(before: dict, after: dict) -> dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in after.items()
            if v != before.get(k, 0)}


def bound_ok(restored: np.ndarray, original: np.ndarray) -> bool:
    if restored.shape != original.shape:
        return False
    err = np.max(np.abs(restored.astype(np.float64)
                        - original.astype(np.float64)))
    return bool(err <= BOUND)


def _maybe_span(btr, name: str, *, bytes_in: int | None = None, **attrs):
    """A benchmark span on ``btr``, or nothing when the step is untraced."""
    if btr is None:
        return contextlib.nullcontext()
    return btr.span(name, bytes_in=bytes_in, **attrs)


def wall_view(raw_bytes: int, write_s: float, read_s: float,
              calls: list[float]) -> dict[str, float]:
    """The wall-clock figures: MB/s of the write and read paths and the
    median and 95th percentile of per-call latency."""
    ms = [s * 1e3 for s in calls]
    return {
        "wall.write_mb_s": sp.ratio(raw_bytes, write_s) / 1e6,
        "wall.read_mb_s": sp.ratio(raw_bytes, read_s) / 1e6,
        "wall.latency_p50_ms": sp.percentile(ms, 50),
        "wall.latency_p95_ms": sp.percentile(ms, 95),
    }


def _outcome(cfg: Config, e2e: dict, wall: dict, named: dict,
             tally: Tally, detail: dict, btr, layers=None) -> Outcome:
    """Untraced runs report ``e2e``; traced runs the per-layer metrics
    (``layers`` over zeros, plus the wall-clock view)."""
    if not cfg.traced:
        return Outcome(e2e, named, tally.attempted, tally.failed, detail)
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update(wall)
    metrics.update(layers)
    ledger = {name: (metrics[name], unit) for name, unit in PER_LAYER}
    return Outcome(metrics, ledger, tally.attempted, tally.failed, detail,
                   trace_doc=btr.export())


# ----------------------------------------------------------------------
# field-ctr / field-cbc
# ----------------------------------------------------------------------


@dataclass
class RowSamples:
    """One (dataset, scheme) row's samples over a run."""

    raw_bytes: int
    stored_bytes: int = 0
    compress: Times = field(default_factory=Times)
    decompress: Times = field(default_factory=Times)
    traced_s: list[float] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)
    breakdown: list[dict[str, float]] = field(default_factory=list)


def _field_layers(croot: dict, droot: dict, delta_c: dict,
                  delta_d: dict, encrypted_bytes: int) -> dict[str, float]:
    """Per-layer raw figures of one traced round trip."""
    lay = sp.stage_split(croot, sp.COMPRESS_STAGES)
    for name, value in sp.stage_split(droot, sp.DECOMPRESS_STAGES).items():
        lay[name] = lay.get(name, 0.0) + value
    both = {k: delta_c.get(k, 0) + delta_d.get(k, 0)
            for k in set(delta_c) | set(delta_d)}
    lay["aes.blocks_encrypted"] = both.get("aes.blocks_encrypted", 0)
    lay["aes.blocks_decrypted"] = both.get("aes.blocks_decrypted", 0)
    lay["crypto.keystream_wait_ms"] = float(
        croot["attrs"].get("keystream_wait_ms", 0.0))
    lay["schemes.encrypted_bytes"] = encrypted_bytes
    # Raw counts behind the ratios, summed before dividing.
    lay["ks_generated"] = delta_c.get("aes.blocks_keystream", 0)
    lay["ks_used"] = sp.ctr_ciphertext_blocks(croot)
    lay["deflate_in"] = delta_c.get("zlib.deflate_in_bytes", 0)
    lay["deflate_out"] = delta_c.get("zlib.deflate_out_bytes", 0)
    lay["cache_hits"] = both.get("huffman.codec_cache_hits", 0)
    lay["cache_misses"] = both.get("huffman.codec_cache_misses", 0)
    return lay


def _median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*dicts) if dicts else set()
    return {k: sp.median([d.get(k, 0.0) for d in dicts]) for k in keys}


def run_fields(cfg: Config, prog: Program) -> Outcome:
    mode, names, preset = FIELD_WORKLOADS[cfg.workload]
    if cfg.tiny:
        preset = "tiny"
    inputs = {n: prog.generate(n, size=preset, seed=cfg.seed) for n in names}
    warm = prog.generate("nyx", size="tiny", seed=cfg.seed)

    def build():
        comps = {}
        for scheme in SCHEMES:
            # Seeded CBC keeps frames deterministic; CTR refuses seeded
            # nonces, so it draws them from OS entropy.
            rng = np.random.default_rng(cfg.seed) if mode == "cbc" else None
            comps[scheme] = prog.SecureCompressor(
                scheme, BOUND, key=KEY, cipher_mode=mode, random_state=rng)
        for sc in comps.values():
            sc.decompress(sc.compress(warm).container)
        return comps

    speed = HostSpeed()
    comps, setup_cpu = timed_setup(prog, speed, build)
    rows = [(n, s) for n in names for s in SCHEMES]
    samples = {row: RowSamples(int(inputs[row[0]].nbytes)) for row in rows}
    tally = Tally()
    btr = prog.trace.Tracer() if cfg.traced else None

    for step, (_, (ds, scheme)) in enumerate(cycle(rows, cfg.seconds)):
        sc, data, row = comps[scheme], inputs[ds], samples[(ds, scheme)]
        speed.sample()
        for traced in trace_plan(cfg.traced, step):
            try:
                _field_round_trip(prog, sc, data, row, btr if traced else None,
                                  tally, (ds, scheme, mode))
            except Exception:
                tally.error(f"{ds}/{scheme}/{mode}", n=2)

    detail = {
        "cipher_mode": mode,
        "preset": preset,
        "ref_kernel_ms": sp.median(speed.cpu) * 1e3,
        "dims": {n: list(prog.get_spec(n).preset_dims(preset)) for n in names},
        "rows": [_row_detail(ds, scheme, mode, samples[(ds, scheme)])
                 for ds, scheme in rows],
    }
    raw = sum(r.raw_bytes for r in samples.values())
    stored = sum(r.stored_bytes for r in samples.values())
    rows_done = samples.values()

    def total(pick) -> float:
        return sum(sp.median(pick(r)) for r in rows_done)

    write_cpu = total(lambda r: r.compress.cpu)
    read_cpu = total(lambda r: r.decompress.cpu)
    e2e = {
        "setup_s": speed.ref_seconds(setup_cpu),
        "write_mb_per_ref_s": raw / speed.ref_seconds(write_cpu) / 1e6,
        "read_mb_per_ref_s": raw / speed.ref_seconds(read_cpu) / 1e6,
        "stored_bytes_ratio": stored / raw,
        "peak_rss_mb": peak_rss_mb(),
    }
    # One latency sample per row and direction, so every run weighs the
    # rows alike however many passes it completed.
    wall = wall_view(
        raw, total(lambda r: r.compress.wall),
        total(lambda r: r.decompress.wall),
        [sp.median(r.compress.wall) for r in rows_done]
        + [sp.median(r.decompress.wall) for r in rows_done])
    named = {
        "setup_s": (e2e["setup_s"], "s"),
        "compress_mb_s": (wall["wall.write_mb_s"], "MB/s"),
        "decompress_mb_s": (wall["wall.read_mb_s"], "MB/s"),
        "compress_mb_per_cpu_s": (raw / write_cpu / 1e6, "MB/cpu-s"),
        "decompress_mb_per_cpu_s": (raw / read_cpu / 1e6, "MB/cpu-s"),
        "compress_mb_per_ref_s": (e2e["write_mb_per_ref_s"], "MB/ref-s"),
        "decompress_mb_per_ref_s": (e2e["read_mb_per_ref_s"], "MB/ref-s"),
        "compression_ratio": (raw / stored, "x"),
        "latency_p50_ms": (wall["wall.latency_p50_ms"], "ms"),
        "latency_p95_ms": (wall["wall.latency_p95_ms"], "ms"),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
    }
    if not cfg.traced:
        return _outcome(cfg, e2e, wall, named, tally, detail, btr)

    summed: dict[str, float] = {}
    for row in rows_done:
        for name, value in _median_of(row.layers).items():
            summed[name] = summed.get(name, 0.0) + value
    layers = {name: summed[name] for name, _ in PER_LAYER if name in summed}
    deflate_in = summed.get("deflate_in", 0)
    layers["sz.deflate_saved_frac"] = sp.ratio(
        deflate_in - summed.get("deflate_out", 0), deflate_in)
    hits = summed.get("cache_hits", 0)
    layers["huffman.codec_cache_hit_rate"] = sp.ratio(
        hits, hits + summed.get("cache_misses", 0))
    layers["crypto.keystream_useful_frac"] = sp.ratio(
        summed.get("ks_used", 0), summed.get("ks_generated", 0))
    for scheme in SCHEMES[1:]:
        layers[f"schemes.overhead_vs_none.{scheme}"] = sp.median([
            sp.median(samples[(ds, scheme)].compress.wall)
            / sp.median(samples[(ds, "none")].compress.wall) - 1.0
            for ds in names
        ])
    plain = total(lambda r: r.compress.wall) + total(lambda r: r.decompress.wall)
    layers["trace.overhead_frac"] = total(lambda r: r.traced_s) / plain - 1.0
    return _outcome(cfg, e2e, wall, named, tally, detail, btr, layers)


def _field_round_trip(prog, sc, data, row: RowSamples, btr, tally: Tally,
                      labels) -> None:
    ds, scheme, mode = labels
    c0 = prog.counters()
    with _maybe_span(btr, "bench.row", dataset=ds, scheme=scheme, mode=mode):
        with _maybe_span(btr, "bench.compress", bytes_in=data.nbytes) as csp:
            start = clock()
            result = sc.compress(data, tracer=btr)
            tc = since(start)
        c1 = prog.counters()
        with _maybe_span(btr, "bench.decompress",
                         bytes_in=len(result.container)) as dsp:
            start = clock()
            restored = sc.decompress(result.container, tracer=btr)
            td = since(start)
    if btr is None:
        row.compress.add(tc)
        row.decompress.add(td)
    else:
        croot = csp.children[0].to_dict()
        droot = dsp.children[0].to_dict()
        row.traced_s.append(tc[0] + td[0])
        row.layers.append(_field_layers(
            croot, droot, counter_delta(c0, c1),
            counter_delta(c1, prog.counters()), result.encrypted_bytes))
        bd = sp.self_breakdown(croot)
        bd.update(sp.self_breakdown(droot))
        row.breakdown.append(bd)
    row.stored_bytes = len(result.container)
    tally.check(True, f"{ds}/{scheme}/{mode} compress")
    tally.check(bound_ok(restored, data), f"{ds}/{scheme}/{mode} bound")


def _ms(values: list[float]) -> list[float]:
    return [round(v * 1e3, 3) for v in values]


def _row_detail(ds: str, scheme: str, mode: str, row: RowSamples) -> dict:
    out = {
        "dataset": ds, "scheme": scheme, "mode": mode,
        "raw_bytes": row.raw_bytes, "stored_bytes": row.stored_bytes,
        "compress_ms": _ms(row.compress.wall),
        "compress_cpu_ms": _ms(row.compress.cpu),
        "decompress_ms": _ms(row.decompress.wall),
        "decompress_cpu_ms": _ms(row.decompress.cpu),
    }
    if row.breakdown:
        out["self_ms"] = {k: round(v * 1e3, 3)
                          for k, v in _median_of(row.breakdown).items()}
    return out


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


class Daemon:
    """One ``secz serve`` child on a unix socket under ``run_dir``."""

    def __init__(self, prog: Program, run_dir: Path, index: int) -> None:
        # Unix socket paths are capped near 108 bytes: address the
        # socket relative to the working directory both sides share.
        self.socket = os.path.relpath(run_dir / f"d{index}.sock")
        if len(self.socket) > 100:
            raise RuntimeError(f"socket path too long: {self.socket}")
        self._log = open(run_dir / f"d{index}.log", "wb")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(prog.src), env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", self.socket,
             "--store", str(run_dir / f"d{index}.sqlite"),
             "--workers", "1", "--cipher-mode", "ctr",
             "--key-hex", KEY.hex(), "--eb", repr(BOUND)],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
        )

    def wait_ready(self, prog: Program, timeout: float = 60.0) -> None:
        """Poll until a PING round-trips."""
        deadline = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"secz serve exited with {self.proc.returncode}")
            try:
                with prog.ServiceClient(self.socket, timeout=10) as client:
                    client.ping()
                return
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)

    def cpu_seconds(self) -> float:
        """User + system CPU seconds the daemon has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            stat = fh.read()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def run_serve(cfg: Config, prog: Program) -> Outcome:
    inputs = [prog.generate(n, size=SERVE_PRESET, seed=cfg.seed)
              for n in SERVE_DATASETS]
    rate = SERVE_RATE * (4 if cfg.tiny else 1)
    n_jobs = max(8, round(rate * cfg.seconds))
    # Every block of len(inputs) jobs holds each input once, in a
    # seeded order: the mix is the same on every seed, the order not.
    rng = np.random.default_rng(cfg.seed)
    picks = np.concatenate([
        rng.permutation(len(inputs))
        for _ in range(-(-n_jobs // len(inputs)))
    ])[:n_jobs].tolist()
    run_dir = cfg.out_dir / f"serve-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    started: list[Daemon] = []

    def spawn() -> Daemon:
        daemon = Daemon(prog, run_dir, len(started))
        started.append(daemon)
        daemon.wait_ready(prog)
        return daemon

    speed = HostSpeed()
    try:
        daemon, setup_cpu = timed_setup(prog, speed, spawn,
                                        discard=Daemon.stop,
                                        extra_cpu=Daemon.cpu_seconds)
        return _serve_measure(cfg, prog, daemon, inputs, picks, rate,
                              speed, setup_cpu)
    finally:
        for daemon in started:
            daemon.stop()
        shutil.rmtree(run_dir, ignore_errors=True)


def _serve_measure(cfg, prog, daemon: Daemon, inputs, picks, rate,
                   speed: HostSpeed, setup_cpu: float) -> Outcome:
    n_jobs = len(picks)
    tally = Tally()
    btr = prog.trace.Tracer() if cfg.traced else None
    client_sc = prog.SecureCompressor("encr_huffman", BOUND, key=KEY,
                                      cipher_mode="ctr")
    with prog.ServiceClient(daemon.socket, timeout=60) as warm:
        # Warm every input once: the worker's compressor, the codec
        # cache and sqlite are then in steady state.
        for data in inputs:
            warm.wait(warm.submit(data))
        stat0 = warm.stat()

    job_ids: list[bytes | None] = [None] * n_jobs
    done_at = [0.0] * n_jobs
    ack_s = [0.0] * n_jobs
    late_s = [0.0] * n_jobs
    failed = [False] * n_jobs
    pending: queue.Queue = queue.Queue()

    def tracer(i: int):
        """Traced runs trace even jobs only, for trace.overhead_frac."""
        return btr if i % 2 == 0 else None

    def waiter() -> None:
        with prog.ServiceClient(daemon.socket, timeout=60) as client:
            while (item := pending.get()) is not None:
                i, job_id = item
                try:
                    with _maybe_span(tracer(i), "bench.serve.wait", job=i):
                        client.wait(job_id)
                except Exception:
                    failed[i] = True
                    traceback.print_exc(file=sys.stderr)
                done_at[i] = time.perf_counter()

    thread = threading.Thread(target=waiter, name="ledger-waiter")
    daemon_cpu0 = daemon.cpu_seconds()
    with prog.ServiceClient(daemon.socket, timeout=60) as submitter:
        thread.start()
        try:
            t0 = time.perf_counter()
            due = [t0 + i / rate for i in range(n_jobs)]
            for i, pick in enumerate(picks):
                speed.sample()
                pause = due[i] - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                s0 = time.perf_counter()
                late_s[i] = s0 - due[i]
                try:
                    with _maybe_span(tracer(i), "bench.serve.submit", job=i,
                                     bytes_in=inputs[pick].nbytes):
                        job_ids[i] = submitter.submit(inputs[pick])
                except Exception:
                    failed[i] = True
                    done_at[i] = time.perf_counter()
                    traceback.print_exc(file=sys.stderr)
                    continue
                ack_s[i] = time.perf_counter() - s0
                pending.put((i, job_ids[i]))
        finally:
            pending.put(None)
            thread.join()
    daemon_cpu = daemon.cpu_seconds() - daemon_cpu0
    latency = [done_at[i] - due[i] for i in range(n_jobs)]
    served = sum(inputs[picks[i]].nbytes for i in range(n_jobs)
                 if not failed[i])

    # Read path, outside the latency window: FETCH each result and
    # decompress it locally, checking the bound against the input.
    read = Times()
    stored = raw_read = 0
    with prog.ServiceClient(daemon.socket, timeout=60) as reader:
        for i, pick in enumerate(picks):
            if failed[i]:
                tally.check(False, f"job {i} failed or refused")
                continue
            speed.sample()
            try:
                start = clock()
                blob = reader.fetch(job_ids[i])
                restored = client_sc.decompress(blob)
                read.add(since(start))
            except Exception:
                tally.error(f"job {i} read back")
                continue
            stored += len(blob)
            raw_read += inputs[pick].nbytes
            tally.check(bound_ok(restored, inputs[pick]), f"job {i} bound")
        stat1 = reader.stat()
    daemon_rss = daemon.peak_rss_mb()
    detail = {
        "preset": SERVE_PRESET,
        "dims": {n: list(prog.get_spec(n).preset_dims(SERVE_PRESET))
                 for n in SERVE_DATASETS},
        "rate_jobs_s": rate,
        "jobs": n_jobs,
        "arrivals": "open loop, fixed interval, seeded balanced order",
        "workers": 1,
        "daemon_cpu_s": daemon_cpu,
        "ref_kernel_ms": sp.median(speed.cpu) * 1e3,
        "stat_before": stat0,
        "stat_after": stat1,
        "latency_ms": _ms(latency),
    }
    e2e = {
        "setup_s": speed.ref_seconds(setup_cpu),
        "write_mb_per_ref_s": sp.ratio(
            served, speed.ref_seconds(daemon_cpu)) / 1e6,
        "read_mb_per_ref_s": sp.ratio(
            raw_read, speed.ref_seconds(sum(read.cpu))) / 1e6,
        "stored_bytes_ratio": sp.ratio(stored, raw_read),
        "peak_rss_mb": daemon_rss,
    }
    # The served path's wall view: ingest (SUBMIT -> ack), read-back,
    # and each job's due time -> WAIT returned.
    wall = wall_view(raw_read, sum(ack_s), sum(read.wall), latency)
    named = {
        "setup_s": (e2e["setup_s"], "s"),
        "latency_p50_ms": (wall["wall.latency_p50_ms"], "ms"),
        "latency_p95_ms": (wall["wall.latency_p95_ms"], "ms"),
        "served_mb_per_cpu_s": (sp.ratio(served, daemon_cpu) / 1e6,
                                "MB/cpu-s"),
        "served_mb_per_ref_s": (e2e["write_mb_per_ref_s"], "MB/ref-s"),
        "submit_mb_s": (wall["wall.write_mb_s"], "MB/s"),
        "read_back_mb_s": (wall["wall.read_mb_s"], "MB/s"),
        "compression_ratio": (sp.ratio(raw_read, stored), "x"),
        "peak_rss_mb": (daemon_rss, "MB"),
        "offered_mb_s": (served * rate / n_jobs / 1e6, "MB/s"),
    }
    if not cfg.traced:
        return _outcome(cfg, e2e, wall, named, tally, detail, btr)

    # One-shot baseline: the same inputs compressed in this process.
    oneshot: list[float] = []
    for data in inputs:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            client_sc.compress(data)
            times.append(time.perf_counter() - t0)
        oneshot.append(sp.median(times))
    detail["oneshot_compress_ms"] = dict(zip(SERVE_DATASETS, _ms(oneshot)))
    delta = counter_delta(stat0["counters"], stat1["counters"])
    hits = delta.get("huffman.codec_cache_hits", 0)
    misses = delta.get("huffman.codec_cache_misses", 0)
    layers = {
        "huffman.codec_cache_hit_rate": sp.ratio(hits, hits + misses),
        "crypto.keystream_wait_ms": stat1["pool"]["keystream_wait_ms"]
        - stat0["pool"]["keystream_wait_ms"],
        "service.submit_ack_ms": sp.median(ack_s) * 1e3,
        "service.overhead_ms": (sp.median(latency) - sp.median(
            [oneshot[p] for p in picks])) * 1e3,
        "service.queue_wait_ms_per_job": sp.ratio(
            delta.get("service.queue_wait_ms", 0), n_jobs),
        "service.batch_reuse_hits": delta.get("service.batch_reuse_hits", 0),
        "service.jobs_failed": delta.get("service.jobs_failed", 0),
        "bench.generator_late_ms": max(late_s) * 1e3,
        "trace.overhead_frac": sp.median(latency[0::2])
        / sp.median(latency[1::2]) - 1.0,
    }
    return _outcome(cfg, e2e, wall, named, tally, detail, btr, layers)


# ----------------------------------------------------------------------
# archive
# ----------------------------------------------------------------------


def archive_corpus(prog: Program, seed: int, tiny: bool):
    """The mixed corpus: ``(entry name, kind, payload)`` triples."""
    rng = np.random.default_rng(seed)
    scale = 1 if tiny else 16
    n_lines = 500 * scale
    workers = rng.integers(0, 8, n_lines)
    losses = rng.random(n_lines)
    log = "".join(
        f"2026-08-08T12:{i // 60 % 60:02d}:{i % 60:02d} INFO "
        f"worker-{w} step={i} loss={x:.6f}\n"
        for i, (w, x) in enumerate(zip(workers.tolist(), losses.tolist()))
    ).encode()
    # Period 48 KiB: beyond zlib's 32 KiB window, inside LZ7H's 64 KiB.
    unit = rng.integers(0, 256, 48 * 1024, dtype=np.uint8).tobytes()
    shard = unit * (3 if tiny else 12)
    edited = bytearray(shard)
    for pos in rng.choice(len(shard), 8, replace=False).tolist():
        edited[pos] ^= 0xFF
    noise = rng.integers(0, 256, 16 * 1024 * scale, dtype=np.uint8).tobytes()
    preset = "tiny" if tiny else "small"
    return [
        ("log", "lz77h", log),
        ("shard", "zlib", shard),
        ("shard-edited", "zlib", bytes(edited)),
        ("noise", "store", noise),
        ("field-q2", "field", prog.generate("q2", size=preset, seed=seed)),
        ("field-height", "field",
         prog.generate("height", size=preset, seed=seed)),
    ]


def _nbytes(payload) -> int:
    return payload.nbytes if isinstance(payload, np.ndarray) else len(payload)


def _archive_cycle(prog, path: Path, corpus, btr, tally: Tally,
                   speed: HostSpeed):
    """One fresh archive: add every entry, then extract and check
    every entry.  Returns per-entry add and extract ``(wall, cpu)``
    seconds and the archive's size on disk."""
    adds: dict[str, tuple[float, float]] = {}
    extracts: dict[str, tuple[float, float]] = {}
    store = prog.ArchiveStore.create(path, key=KEY)
    try:
        for name, kind, payload in corpus:
            speed.sample()
            with _maybe_span(btr, "bench.archive.add", entry=name,
                             codec=kind, bytes_in=_nbytes(payload)):
                start = clock()
                if kind == "field":
                    store.add_field(name, payload, scheme="encr_huffman",
                                    error_bound=BOUND, tracer=btr)
                else:
                    store.add_bytes(name, payload, codec=kind)
                adds[name] = since(start)
        file_bytes = path.stat().st_size
        for name, kind, payload in corpus:
            speed.sample()
            with _maybe_span(btr, "bench.archive.extract", entry=name,
                             codec=kind):
                start = clock()
                if kind == "field":
                    out = store.extract_field(name)
                else:
                    out = store.extract_bytes(name)
                extracts[name] = since(start)
            if kind == "field":
                tally.check(bound_ok(out, payload), f"{name} bound")
            else:
                tally.check(out == payload, f"{name} bytes")
            tally.check(True, f"{name} add")
    finally:
        path.unlink(missing_ok=True)
    return adds, extracts, file_bytes


def run_archive(cfg: Config, prog: Program) -> Outcome:
    corpus = archive_corpus(prog, cfg.seed, cfg.tiny)
    kinds = {name: kind for name, kind, _ in corpus}
    user_bytes = sum(_nbytes(p) for _, _, p in corpus)
    run_dir = cfg.out_dir / f"archive-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    warm_field = prog.generate("q2", size="tiny", seed=cfg.seed)
    made = []

    def build():
        path = run_dir / f"setup{len(made)}.secb"
        made.append(path)
        store = prog.ArchiveStore.create(path, key=KEY)
        for codec in ("lz77h", "zlib", "store"):
            store.add_bytes(codec, b"warm-up entry %d\n" % len(made) * 64,
                            codec=codec)
            store.extract_bytes(codec)
        store.add_field("f", warm_field, error_bound=BOUND)
        store.extract_field("f")
        return path

    tally = Tally()
    btr = prog.trace.Tracer() if cfg.traced else None
    speed = HostSpeed()
    # Per traced flag: one {entry: (wall, cpu)} dict per cycle.
    adds: dict[bool, list[dict]] = {True: [], False: []}
    extracts: dict[bool, list[dict]] = {True: [], False: []}
    file_sizes: list[int] = []
    counters_t: dict[str, int] = {}
    try:
        _, setup_cpu = timed_setup(prog, speed, build)
        for step, _ in enumerate(cycle([None], cfg.seconds)):
            for traced in trace_plan(cfg.traced, step):
                path = run_dir / f"cycle{step}-{int(traced)}.secb"
                c0 = prog.counters()
                try:
                    a, e, size = _archive_cycle(
                        prog, path, corpus, btr if traced else None, tally,
                        speed)
                except Exception:
                    tally.error(f"archive cycle {step}")
                    continue
                if traced:
                    for k, v in counter_delta(c0, prog.counters()).items():
                        counters_t[k] = counters_t.get(k, 0) + v
                adds[traced].append(a)
                extracts[traced].append(e)
                file_sizes.append(size)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    every_add = adds[False] + adds[True]
    every_extract = extracts[False] + extracts[True]
    detail = {
        "entries": [{"name": n, "kind": k, "bytes": _nbytes(p)}
                    for n, k, p in corpus],
        "cipher_mode": "cbc",
        "cycles": len(every_add),
        "ref_kernel_ms": sp.median(speed.cpu) * 1e3,
        "add_ms": {n: _ms([a[n][0] for a in every_add]) for n in kinds},
        "add_cpu_ms": {n: _ms([a[n][1] for a in every_add]) for n in kinds},
        "extract_ms": {n: _ms([e[n][0] for e in every_extract])
                       for n in kinds},
        "extract_cpu_ms": {n: _ms([e[n][1] for e in every_extract])
                           for n in kinds},
        "file_bytes": file_sizes,
    }

    def total(cycles: list[dict], clock_index: int) -> float:
        """Sum over entries of each entry's median over ``cycles``."""
        return sum(sp.median([c[n][clock_index] for c in cycles])
                   for n in kinds)

    plain_adds, plain_extracts = adds[False], extracts[False]
    add_cpu, extract_cpu = total(plain_adds, 1), total(plain_extracts, 1)
    e2e = {
        "setup_s": speed.ref_seconds(setup_cpu),
        "write_mb_per_ref_s": user_bytes / speed.ref_seconds(add_cpu) / 1e6,
        "read_mb_per_ref_s":
            user_bytes / speed.ref_seconds(extract_cpu) / 1e6,
        "stored_bytes_ratio": sp.median(file_sizes) / user_bytes,
        "peak_rss_mb": peak_rss_mb(),
    }
    wall = wall_view(
        user_bytes, total(plain_adds, 0), total(plain_extracts, 0),
        [s[0] for c in plain_adds + plain_extracts for s in c.values()])
    named = {
        "setup_s": (e2e["setup_s"], "s"),
        "add_mb_s": (wall["wall.write_mb_s"], "MB/s"),
        "extract_mb_s": (wall["wall.read_mb_s"], "MB/s"),
        "add_mb_per_cpu_s": (user_bytes / add_cpu / 1e6, "MB/cpu-s"),
        "extract_mb_per_cpu_s": (user_bytes / extract_cpu / 1e6, "MB/cpu-s"),
        "add_mb_per_ref_s": (e2e["write_mb_per_ref_s"], "MB/ref-s"),
        "extract_mb_per_ref_s": (e2e["read_mb_per_ref_s"], "MB/ref-s"),
        "stored_bytes_ratio": (e2e["stored_bytes_ratio"], "B/B"),
        "latency_p50_ms": (wall["wall.latency_p50_ms"], "ms"),
        "latency_p95_ms": (wall["wall.latency_p95_ms"], "ms"),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
    }
    if not cfg.traced:
        return _outcome(cfg, e2e, wall, named, tally, detail, btr)

    layers: dict[str, float] = {}
    for kind in ARCHIVE_KINDS:
        names = [n for n, k in kinds.items() if k == kind]
        layers[f"archive.add_s.{kind}"] = sp.median(
            [sum(a[n][0] for n in names) for a in adds[True]])
        layers[f"archive.extract_s.{kind}"] = sp.median(
            [sum(e[n][0] for n in names) for e in extracts[True]])
    n_traced = len(adds[True])
    added = counters_t.get("archive.chunks_added", 0)
    deduped = counters_t.get("archive.chunks_deduped", 0)
    matched = counters_t.get("lz.match_bytes", 0)
    hits = counters_t.get("huffman.codec_cache_hits", 0)
    misses = counters_t.get("huffman.codec_cache_misses", 0)
    layers.update({
        "archive.dedup_frac": sp.ratio(deduped, added + deduped),
        "lz.match_bytes_frac": sp.ratio(
            matched, matched + counters_t.get("lz.literals", 0)),
        "huffman.codec_cache_hit_rate": sp.ratio(hits, hits + misses),
        "aes.blocks_encrypted": sp.ratio(
            counters_t.get("aes.blocks_encrypted", 0), n_traced),
        "aes.blocks_decrypted": sp.ratio(
            counters_t.get("aes.blocks_decrypted", 0), n_traced),
    })

    def cycle_s(a: dict, e: dict) -> float:
        return sum(s[0] for s in a.values()) + sum(s[0] for s in e.values())

    layers["trace.overhead_frac"] = sp.median(
        [cycle_s(a, e) for a, e in zip(adds[True], extracts[True])]
    ) / sp.median(
        [cycle_s(a, e) for a, e in zip(plain_adds, plain_extracts)]
    ) - 1.0
    return _outcome(cfg, e2e, wall, named, tally, detail, btr, layers)


RUNNERS = {
    "field-ctr": run_fields,
    "field-cbc": run_fields,
    "serve": run_serve,
    "archive": run_archive,
}
