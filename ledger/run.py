"""One ledger for the secure SZ pipeline: field round trips, served
jobs and archive, end to end and layer by layer.

Run from the root of a checkout::

    python3 ledger/run.py --workload field-ctr --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics and the wall-clock view.  Every timing is measured on this
machine; nothing here is modeled.  The last line of standard output is one JSON object
(``correct``/``attempted``/``failed``/``metrics``); the lines before it
print the same run under the workload's own metric names.  Results,
the per-row breakdown and (traced runs) the ``repro-trace/1`` span
document go to ``ledger/out/``.  See ``ledger/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
BENCH_SCHEMA = "repro-bench/1"


def parse_args(argv=None) -> argparse.Namespace:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement window of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 = traced run reporting the per-layer metrics")
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs (the self-test); not a ledger run")
    return p.parse_args(argv)


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def header(cfg, prog, detail: dict) -> dict:
    import numpy as np

    import workloads

    return {
        "schema": BENCH_SCHEMA,
        "workload": cfg.workload,
        "seed": cfg.seed,
        "seconds": cfg.seconds,
        "traced": cfg.traced,
        "tiny": cfg.tiny,
        "timing": "measured",
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "error_bound_abs": workloads.BOUND,
        "setup_reps": workloads.SETUP_REPS,
        "import_cpu_s": prog.import_cpu_s,
        **{k: v for k, v in detail.items()
           if k == "dims" or isinstance(v, (str, int, float))},
    }


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"ledger: no program source under {src}; run it from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    # NumPy's BLAS runs single-threaded: on two vCPUs, OpenBLAS worker
    # threads spin after each call, doubling the CPU seconds of a
    # compress and slowing it by ~20%, by an amount that varies run to
    # run.  Set before NumPy loads; the serve daemon inherits it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    args = parse_args(argv)
    # A terminated run still stops its daemon and removes its scratch
    # files: turn SIGTERM into SystemExit so every finally block runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    import workloads

    cfg = workloads.Config(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        traced=bool(args.trace), tiny=args.tiny, out_dir=OUT_DIR,
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    prog = workloads.Program(src)
    outcome = workloads.RUNNERS[cfg.workload](cfg, prog)

    names = workloads.PER_LAYER if cfg.traced else workloads.END_TO_END
    metrics = {name: {"value": float(outcome.metrics[name]), "unit": unit}
               for name, unit in names}
    stem = f"{cfg.workload}-seed{cfg.seed}-{'traced' if cfg.traced else 'e2e'}"
    if cfg.traced:
        trace_path = OUT_DIR / f"{stem}.trace.json"
        trace_path.write_text(json.dumps(
            prog.trace.validate(outcome.trace_doc)))
    record = {
        "header": header(cfg, prog, outcome.detail),
        "metrics": metrics,
        "ledger": {k: {"value": v, "unit": u}
                   for k, (v, u) in outcome.ledger.items()},
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "detail": outcome.detail,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({"header": record["header"]}, default=str))
    for name, (value, unit) in outcome.ledger.items():
        print(f"{cfg.workload:10s} {name:34s} {value:14.6g} {unit:6s} measured")
    print(f"{cfg.workload:10s} {'failed_frac':34s} "
          f"{outcome.failed / max(1, outcome.attempted):14.6g} -      "
          f"({outcome.failed} of {outcome.attempted})")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
