"""``secz`` — command-line front end for the secure compressor.

Subcommands::

    secz compress       INPUT OUTPUT --shape Z,Y,X --eb 1e-3 --scheme encr_huffman
    secz decompress     INPUT OUTPUT
    secz inspect        INPUT
    secz trace          [INPUT | --synthetic NAME] [--json T.json] [--chrome T.trace]
    secz nist           INPUT [--streams 12]
    secz archive add     ARCHIVE NAME INPUT [--codec lz77h] [--field] [--eb 1e-3]
    secz archive extract ARCHIVE NAME OUTPUT
    secz archive list    ARCHIVE
    secz archive verify  ARCHIVE [--deep]
    secz archive gc      ARCHIVE
    secz lint           [PATH ...] [--format text|json|sarif] [--disable RULE]
                        [--baseline FILE | --no-baseline] [--write-baseline]
                        [--profile]
    secz serve          --socket /run/secz.sock --store jobs.sqlite
    secz datasets
    secz advise         INPUT [--shape Z,Y,X] --eb 1e-3 [--randomness]
    secz img-compress   INPUT.npy OUTPUT --quality 80
    secz img-decompress INPUT OUTPUT.npy

Raw inputs are SDRBench-style headerless float32 ``.bin`` files (or
``.npy``); keys come from ``--key-hex`` (32 hex chars) or a passphrase
via ``--passphrase`` (PBKDF2-derived).  ``secz datasets`` writes the
synthetic evaluation fields to disk for ad-hoc experimentation.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.integrity import read_header
from repro.core.pipeline import SecureCompressor
from repro.core.schemes import SCHEMES, get_scheme
from repro.crypto.aes import derive_key
from repro.datasets import generate
from repro.datasets.io import load_field, save_field
from repro.datasets.registry import DATASETS

__all__ = ["main", "build_parser"]


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}") from None
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"bad shape {text!r}")
    return dims


def _key_from_args(args: argparse.Namespace) -> bytes | None:
    if getattr(args, "key_hex", None):
        key = bytes.fromhex(args.key_hex)
        if len(key) != 16:
            raise SystemExit("--key-hex must be exactly 32 hex characters")
        return key
    if getattr(args, "passphrase", None):
        return derive_key(args.passphrase)
    return None


def _load_input(path: str, shape: tuple[int, ...] | None) -> np.ndarray:
    if path.endswith(".npy"):
        return np.load(path)
    if shape is None:
        raise SystemExit("raw .bin input requires --shape")
    return load_field(path, shape)


def build_parser() -> argparse.ArgumentParser:
    """The ``secz`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="secz",
        description="Secure error-bounded lossy compression (SZ + AES-128).",
        # The module docstring doubles as the --help epilog, and
        # tests/test_docs.py audits every flag it names against the
        # subparsers below — the synopsis cannot drift from the code.
        epilog=__doc__.split("Subcommands::", 1)[1],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_c = sub.add_parser("compress", help="compress and protect a field")
    p_c.add_argument("input")
    p_c.add_argument("output")
    p_c.add_argument("--shape", type=_parse_shape, default=None,
                     help="comma-separated dims for raw .bin input")
    p_c.add_argument("--eb", type=float, default=1e-3,
                     help="absolute error bound (default 1e-3)")
    p_c.add_argument("--scheme", choices=sorted(SCHEMES), default="encr_huffman")
    p_c.add_argument("--cipher-mode", "--mode", dest="mode",
                     choices=("cbc", "ctr"), default="cbc",
                     help="cbc = paper-fidelity default, ctr = recommended "
                          "throughput mode (batched keystream, sized to "
                          "the ciphertext)")
    p_c.add_argument("--key-hex", help="16-byte AES key as 32 hex chars")
    p_c.add_argument("--passphrase", help="derive the key from a passphrase")
    p_c.add_argument("--seed", type=int, default=None,
                     help="seed the IV stream for reproducible containers "
                          "(CBC only; matches secz serve --seed)")

    p_d = sub.add_parser("decompress", help="restore a .secz container")
    p_d.add_argument("input")
    p_d.add_argument("output", help=".npy or .bin output path")
    p_d.add_argument("--key-hex")
    p_d.add_argument("--passphrase")

    p_i = sub.add_parser("inspect", help="print container metadata")
    p_i.add_argument("input")

    p_t = sub.add_parser(
        "trace",
        help="compress a field with tracing on and show the span tree",
    )
    p_t.add_argument("input", nargs="?", default=None,
                     help=".npy or raw .bin field (omit with --synthetic)")
    p_t.add_argument("--synthetic", choices=sorted(DATASETS), default=None,
                     help="trace a generated dataset instead of a file")
    p_t.add_argument("--size", choices=("tiny", "small", "medium"),
                     default="small", help="synthetic dataset size preset")
    p_t.add_argument("--shape", type=_parse_shape, default=None,
                     help="comma-separated dims for raw .bin input")
    p_t.add_argument("--eb", type=float, default=1e-3)
    p_t.add_argument("--scheme", choices=sorted(SCHEMES),
                     default="encr_huffman")
    p_t.add_argument("--cipher-mode", "--mode", dest="mode",
                     choices=("cbc", "ctr"), default="cbc",
                     help="cbc = paper-fidelity default, ctr = recommended "
                          "throughput mode")
    p_t.add_argument("--key-hex")
    p_t.add_argument("--passphrase")
    p_t.add_argument("--json", metavar="PATH", default=None,
                     help="write the repro-trace/1 JSON document to PATH")
    p_t.add_argument("--chrome", metavar="PATH", default=None,
                     help="write a Chrome trace-event file to PATH "
                          "(load in chrome://tracing or Perfetto)")
    p_t.add_argument("--no-decompress", action="store_true",
                     help="trace compression only")

    p_n = sub.add_parser("nist", help="run SP800-22 on a file's bytes")
    p_n.add_argument("input")
    p_n.add_argument("--streams", type=int, default=12)

    p_ar = sub.add_parser(
        "archive",
        help="content-addressed SECB v2 store (see docs/FORMAT.md §10.2)",
    )
    ar_sub = p_ar.add_subparsers(dest="archive_command", required=True)

    def _archive_common(p, *, key=True):
        p.add_argument("archive", help="path of the .secb archive file")
        if key:
            p.add_argument("--key-hex",
                           help="16-byte AES key as 32 hex chars")
            p.add_argument("--passphrase",
                           help="derive the key from a passphrase")
            p.add_argument("--cipher-mode", "--mode", dest="mode",
                           choices=("cbc", "ctr"), default="cbc",
                           help="blob sealing mode (default cbc)")

    ar_add = ar_sub.add_parser(
        "add", help="chunk, dedup, seal and append one entry"
    )
    _archive_common(ar_add)
    ar_add.add_argument("name", help="entry name inside the archive")
    ar_add.add_argument("input", help="file whose bytes (or field) to add")
    ar_add.add_argument("--codec",
                        choices=("store", "zlib", "lz77h", "lz77h+zlib"),
                        default="zlib",
                        help="per-blob codec for raw entries "
                             "(default zlib)")
    ar_add.add_argument("--field", action="store_true",
                        help="treat INPUT as a float field (.npy or raw "
                             ".bin with --shape) stored as a SECZ "
                             "container entry")
    ar_add.add_argument("--shape", type=_parse_shape, default=None,
                        help="comma-separated dims for raw .bin input")
    ar_add.add_argument("--eb", type=float, default=1e-3,
                        help="error bound for --field entries")
    ar_add.add_argument("--scheme", choices=sorted(SCHEMES),
                        default="encr_huffman",
                        help="protection scheme for --field entries")

    ar_ext = ar_sub.add_parser(
        "extract", help="reassemble one entry (fails closed on tampering)"
    )
    _archive_common(ar_ext)
    ar_ext.add_argument("name")
    ar_ext.add_argument("output", help="output file (.npy keeps arrays)")

    ar_list = ar_sub.add_parser("list", help="print the entry table")
    _archive_common(ar_list, key=False)

    ar_ver = ar_sub.add_parser(
        "verify",
        help="audit digests, refcounts and extents; nonzero exit on "
             "any problem",
    )
    _archive_common(ar_ver)
    ar_ver.add_argument("--deep", action="store_true",
                        help="also unseal every chunk and re-hash "
                             "plaintext (needs the key for sealed blobs)")

    ar_gc = ar_sub.add_parser(
        "gc", help="compact away unreferenced blobs"
    )
    _archive_common(ar_gc)

    p_l = sub.add_parser(
        "lint",
        help="run the repo invariant linter (see docs/LINTING.md)",
    )
    p_l.add_argument("paths", nargs="*", default=["src"],
                     help="files or directories to lint (default: src)")
    p_l.add_argument("--format", choices=("text", "json", "sarif"),
                     default="text", dest="output_format",
                     help="report format (default text)")
    p_l.add_argument("--enable", action="append", metavar="RULE", default=None,
                     help="run only these rules (repeatable)")
    p_l.add_argument("--disable", action="append", metavar="RULE", default=None,
                     help="skip these rules (repeatable)")
    p_l.add_argument("--root", default=None,
                     help="repo root holding docs/ (default: auto-detect)")
    p_l.add_argument("--baseline", metavar="FILE", default=None,
                     help="baseline file of triaged findings (default: "
                          ".lint-baseline.json at the repo root, if present)")
    p_l.add_argument("--no-baseline", action="store_true",
                     help="ignore any baseline file")
    p_l.add_argument("--write-baseline", action="store_true",
                     help="write the current findings to the baseline "
                          "file and exit 0 (triage helper)")
    p_l.add_argument("--profile", action="store_true",
                     help="print per-rule wall-clock timings to stderr")
    p_l.add_argument("--list-rules", action="store_true",
                     help="list the shipped rules and exit")

    p_s = sub.add_parser(
        "serve",
        help="run the asyncio compression daemon (see docs/SERVICE.md)",
    )
    endpoint = p_s.add_mutually_exclusive_group(required=True)
    endpoint.add_argument("--socket", metavar="PATH", default=None,
                          help="bind a unix socket at PATH")
    endpoint.add_argument("--host", default=None,
                          help="bind a TCP listener on HOST (with --port)")
    p_s.add_argument("--port", type=int, default=9597,
                     help="TCP port for --host (default 9597)")
    p_s.add_argument("--store", required=True, metavar="PATH",
                     help="sqlite job store (created if missing; a second "
                          "serve on the same store resumes queued jobs)")
    p_s.add_argument("--scheme", choices=sorted(SCHEMES),
                     default="encr_huffman",
                     help="default scheme for submissions that defer")
    p_s.add_argument("--eb", type=float, default=1e-3,
                     help="default error bound for submissions that defer")
    p_s.add_argument("--cipher-mode", "--mode", dest="mode",
                     choices=("cbc", "ctr"), default="cbc",
                     help="cbc = paper-fidelity default, ctr = recommended "
                          "throughput mode")
    p_s.add_argument("--key-hex")
    p_s.add_argument("--passphrase")
    p_s.add_argument("--workers", type=int, default=2,
                     help="compression worker threads (0 = ingest-only: "
                          "accept and persist jobs but never run them)")
    p_s.add_argument("--queue-limit", type=int, default=256,
                     help="max queued jobs before SUBMIT gets "
                          "ERR_QUEUE_FULL (default 256)")
    p_s.add_argument("--job-timeout", type=float, default=None,
                     help="seconds before a running job is failed")
    p_s.add_argument("--seed", type=int, default=None,
                     help="seed the IV stream for reproducible containers "
                          "(CBC only; one shared compressor per config)")

    p_g = sub.add_parser("datasets", help="list / write synthetic datasets")
    p_g.add_argument("--write", metavar="DIR", default=None,
                     help="write every dataset as .bin into DIR")
    p_g.add_argument("--size", choices=("tiny", "small", "medium"),
                     default="small")

    p_a = sub.add_parser("advise",
                         help="recommend a scheme for a dataset")
    p_a.add_argument("input")
    p_a.add_argument("--shape", type=_parse_shape, default=None)
    p_a.add_argument("--eb", type=float, default=1e-3)
    p_a.add_argument("--randomness", action="store_true",
                     help="the whole stream must pass randomness tests")

    p_ic = sub.add_parser("img-compress",
                          help="compress a grayscale image (.npy)")
    p_ic.add_argument("input")
    p_ic.add_argument("output")
    p_ic.add_argument("--quality", type=int, default=75)
    p_ic.add_argument("--scheme", choices=sorted(SCHEMES),
                      default="encr_huffman")
    p_ic.add_argument("--key-hex")
    p_ic.add_argument("--passphrase")

    p_id = sub.add_parser("img-decompress",
                          help="restore a .secz image container")
    p_id.add_argument("input")
    p_id.add_argument("output", help=".npy output path")
    p_id.add_argument("--key-hex")
    p_id.add_argument("--passphrase")
    return parser


def _cmd_compress(args: argparse.Namespace) -> int:
    data = _load_input(args.input, args.shape)
    sc = SecureCompressor(
        scheme=args.scheme,
        error_bound=args.eb,
        key=_key_from_args(args),
        cipher_mode=args.mode,
        random_state=(np.random.default_rng(args.seed)
                      if args.seed is not None else None),
    )
    result = sc.compress(np.ascontiguousarray(data, dtype=np.float32)
                         if data.dtype != np.float64 else data)
    with open(args.output, "wb") as fh:
        fh.write(result.container)
    cr = data.nbytes / len(result.container)
    print(
        f"{args.input}: {data.nbytes} -> {len(result.container)} bytes "
        f"(CR {cr:.3f}, scheme {args.scheme}, "
        f"{result.encrypted_bytes} bytes encrypted)"
    )
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as fh:
        blob = fh.read()
    scheme = get_scheme(read_header(blob)[0].scheme_id)
    sc = SecureCompressor(scheme=scheme.name, key=_key_from_args(args))
    data = sc.decompress(blob)
    if args.output.endswith(".npy"):
        np.save(args.output, data)
    else:
        save_field(args.output, data)
    print(f"{args.input}: restored {data.shape} {data.dtype} -> {args.output}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as fh:
        blob = fh.read()
    # Header-only inspection does not need (or verify) the key.
    parsed, authenticated = read_header(blob)
    scheme = get_scheme(parsed.scheme_id)
    print(f"scheme:      {scheme.name}")
    print(f"authenticated: {'yes (SECA tag present, not verified)' if authenticated else 'no'}")
    print(f"cipher mode: {parsed.cipher_mode}")
    print(f"iv:          {parsed.iv.hex()}")
    print(f"total bytes: {len(blob)}")
    for name, section in parsed.sections.items():
        print(f"section {name:>8}: {len(section)} bytes")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.core import trace

    if (args.input is None) == (args.synthetic is None):
        raise SystemExit("pass exactly one of INPUT or --synthetic NAME")
    if args.synthetic is not None:
        data = np.asarray(generate(args.synthetic, size=args.size))
        source = f"synthetic:{args.synthetic}[{args.size}]"
    else:
        data = _load_input(args.input, args.shape)
        source = args.input
    key = _key_from_args(args)
    if key is None and get_scheme(args.scheme).requires_key:
        key = derive_key("secz-trace")
        print("note: no key given; using a throwaway key derived from "
              "'secz-trace' (pass --key-hex/--passphrase for real data)")
    sc = SecureCompressor(
        scheme=args.scheme,
        error_bound=args.eb,
        key=key,
        cipher_mode=args.mode,
    )
    tr = trace.Tracer()
    result = sc.compress(
        np.ascontiguousarray(data, dtype=np.float32)
        if data.dtype != np.float64 else data,
        tracer=tr,
    )
    if not args.no_decompress:
        sc.decompress(result.container, tracer=tr)
    doc = trace.validate(tr.export())
    print(f"trace of {source} ({data.nbytes} bytes, scheme {args.scheme})")
    print()
    print(trace.format_tree(doc))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"\nwrote {args.json}")
    if args.chrome:
        with open(args.chrome, "w") as fh:
            json.dump(trace.chrome_trace(doc), fh)
        print(f"wrote {args.chrome} (open in chrome://tracing or "
              "https://ui.perfetto.dev)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro import lint

    if args.list_rules:
        for cls in lint.ALL_RULES:
            print(f"{cls.name:18s} {cls.description}")
        return 0
    if args.no_baseline and args.baseline:
        raise SystemExit("--baseline and --no-baseline are exclusive")
    baseline: Path | str | None = "auto"
    if args.no_baseline or args.write_baseline:
        baseline = None
    elif args.baseline:
        baseline = Path(args.baseline)
    try:
        report = lint.lint_paths(
            [Path(p) for p in args.paths],
            root=Path(args.root) if args.root else None,
            enable=args.enable,
            disable=args.disable,
            baseline=baseline,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.write_baseline:
        root = Path(args.root) if args.root else lint.find_repo_root(
            Path(args.paths[0])
        )
        target = Path(args.baseline) if args.baseline else (
            root / lint.BASELINE_FILENAME
        )
        lint.write_baseline(target, report.findings)
        print(f"wrote {len(report.findings)} finding(s) to {target}")
        return 0
    if args.output_format == "json":
        print(report.format_json())
    elif args.output_format == "sarif":
        print(lint.format_sarif(report))
    else:
        print(report.format_text())
    if args.profile:
        print(report.format_profile(), file=sys.stderr)
    return report.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import CompressionService, ServiceConfig

    config = ServiceConfig(
        scheme=args.scheme,
        error_bound=args.eb,
        key=_key_from_args(args),
        cipher_mode=args.mode,
        workers=args.workers,
        queue_limit=args.queue_limit,
        job_timeout=args.job_timeout,
        seed=args.seed,
    )
    try:
        service = CompressionService(config, args.store)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    endpoint = args.socket or f"{args.host}:{args.port}"
    print(f"secz serve: {endpoint} (store {args.store}, "
          f"scheme {args.scheme}, workers {args.workers})")
    asyncio.run(service.serve(
        socket_path=args.socket,
        host=args.host,
        port=args.port if args.host else None,
        install_signal_handlers=True,
    ))
    print("secz serve: shut down cleanly")
    return 0


def _cmd_nist(args: argparse.Namespace) -> int:
    # Only this subcommand needs the suite, and it imports scipy.stats.
    from repro.security.nist import run_suite

    with open(args.input, "rb") as fh:
        blob = fh.read()
    result = run_suite(blob, n_streams=args.streams)
    print(result.format_table())
    return 0 if result.all_pass else 1


def _cmd_archive(args: argparse.Namespace) -> int:
    import os

    from repro.archive import ArchiveCorrupt, ArchiveStore

    def open_store(*, must_exist: bool = True) -> ArchiveStore:
        kwargs = dict(
            key=_key_from_args(args),
            cipher_mode=getattr(args, "mode", "cbc"),
        )
        if not os.path.exists(args.archive):
            if must_exist:
                raise SystemExit(f"no archive at {args.archive}")
            return ArchiveStore.create(args.archive, **kwargs)
        try:
            return ArchiveStore(args.archive, **kwargs)
        except ArchiveCorrupt as exc:
            raise SystemExit(f"{args.archive}: {exc}") from None

    verb = args.archive_command
    if verb == "add":
        store = open_store(must_exist=False)
        if args.field:
            data = _load_input(args.input, args.shape)
            store.add_field(
                args.name,
                np.ascontiguousarray(data, dtype=np.float32)
                if data.dtype != np.float64 else data,
                scheme=args.scheme, error_bound=args.eb,
            )
        else:
            with open(args.input, "rb") as fh:
                store.add_bytes(args.name, fh.read(), codec=args.codec)
        st = store.stats()
        print(f"{args.archive}: added {args.name!r}; "
              f"{st['entries']} entries, {st['blobs']} blobs, "
              f"dedup x{st['dedup_ratio']:.2f}")
        return 0
    if verb == "extract":
        store = open_store()
        try:
            kind = next(
                row["kind"] for row in store.entries()
                if row["name"] == args.name
            )
        except StopIteration:
            raise SystemExit(
                f"no entry {args.name!r}; entries: {store.names()}"
            ) from None
        try:
            if kind == "field":
                field = store.extract_field(args.name)
                if args.output.endswith(".npy"):
                    np.save(args.output, field)
                else:
                    save_field(args.output, field)
            else:
                blob = store.extract_bytes(args.name)
                with open(args.output, "wb") as fh:
                    fh.write(blob)
        except ArchiveCorrupt as exc:
            raise SystemExit(f"refusing to extract: {exc}") from None
        print(f"{args.archive}: extracted {args.name!r} -> {args.output}")
        return 0
    if verb == "list":
        store = ArchiveStore(args.archive)
        for row in store.entries():
            print(f"{row['name']:24s} {row['kind']:5s} "
                  f"scheme={row['scheme']:14s} codec={row['codec']:10s} "
                  f"{row['raw_size']:>10d} -> {row['stored_size']:>9d} "
                  f"bytes in {row['n_chunks']} chunks")
        st = store.stats()
        print(f"total: {st['raw_bytes']} raw, {st['stored_bytes']} stored "
              f"(dedup x{st['dedup_ratio']:.2f})")
        return 0
    if verb == "verify":
        store = open_store()
        problems = store.verify(deep=args.deep)
        for problem in problems:
            print(f"FAIL {problem}")
        if problems:
            print(f"{args.archive}: {len(problems)} problem(s)")
            return 1
        print(f"{args.archive}: ok "
              f"({'deep' if args.deep else 'structural'} verify)")
        return 0
    if verb == "gc":
        store = open_store()
        dropped = store.gc()
        print(f"{args.archive}: dropped {dropped} unreferenced blob(s)")
        return 0
    raise SystemExit(f"unknown archive verb {verb!r}")


def _cmd_datasets(args: argparse.Namespace) -> int:
    for name, spec in DATASETS.items():
        dims = spec.preset_dims(args.size)
        print(
            f"{name:10s} {spec.description:28s} paper {spec.paper_dims} "
            f"({spec.paper_size}); preset[{args.size}] {dims}"
        )
        if args.write:
            import os

            os.makedirs(args.write, exist_ok=True)
            path = os.path.join(args.write, f"{name}.bin")
            save_field(path, generate(name, size=args.size))
            print(f"{'':10s} wrote {path}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.advisor import recommend_scheme

    data = _load_input(args.input, args.shape)
    rec = recommend_scheme(
        np.ascontiguousarray(data, dtype=np.float32)
        if data.dtype not in (np.float32, np.float64) else data,
        args.eb,
        require_full_randomness=args.randomness,
    )
    print(f"recommended scheme: {rec.scheme}")
    for reason in rec.reasons:
        print(f"  - {reason}")
    print(f"predictable fraction: {rec.predictable_fraction:.2%}")
    print(f"tree / quant array:   {rec.tree_fraction_of_quant:.2%}")
    return 0


def _cmd_img_compress(args: argparse.Namespace) -> int:
    from repro.imagecodec import SecureImageCompressor

    image = np.load(args.input)
    sic = SecureImageCompressor(
        args.scheme, args.quality, key=_key_from_args(args)
    )
    result = sic.compress(image)
    with open(args.output, "wb") as fh:
        fh.write(result.container)
    print(
        f"{args.input}: {image.size} px -> {result.compressed_bytes} bytes "
        f"(q={args.quality}, {result.encrypted_bytes} bytes encrypted)"
    )
    return 0


def _cmd_img_decompress(args: argparse.Namespace) -> int:
    from repro.imagecodec import SecureImageCompressor

    with open(args.input, "rb") as fh:
        blob = fh.read()
    scheme = get_scheme(read_header(blob)[0].scheme_id)
    # The decoder reads the quality from the container's meta.
    sic = SecureImageCompressor(scheme.name, key=_key_from_args(args))
    image = sic.decompress(blob)
    np.save(args.output, image)
    print(f"{args.input}: restored {image.shape} image -> {args.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``secz`` console script."""
    args = build_parser().parse_args(argv)
    handlers = {
        "compress": _cmd_compress,
        "decompress": _cmd_decompress,
        "inspect": _cmd_inspect,
        "trace": _cmd_trace,
        "lint": _cmd_lint,
        "serve": _cmd_serve,
        "nist": _cmd_nist,
        "archive": _cmd_archive,
        "datasets": _cmd_datasets,
        "advise": _cmd_advise,
        "img-compress": _cmd_img_compress,
        "img-decompress": _cmd_img_decompress,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
