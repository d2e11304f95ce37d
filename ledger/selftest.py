"""Fast self-test of the ledger (tiny inputs, about a minute).

Checks the self-time arithmetic on a synthetic span tree, that
``BENCHMARK.json`` names exactly the metrics the workloads emit, and
that every workload, untraced and traced, emits every metric with its
unit, with no failed operation.  Also checks that the benchmark refuses
to run, without printing a result, where the program's source is
missing.  Run from the root of a checkout::

    python3 ledger/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import spans as sp
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _span(name, start, seconds, children=(), **attrs):
    return {"name": name, "start": start, "seconds": seconds,
            "bytes_in": attrs.pop("bytes_in", None), "bytes_out": None,
            "attrs": attrs, "children": list(children)}


def check_span_arithmetic() -> None:
    # Children overlap ([1, 3] and [2, 5]) and one runs past the parent
    # ([8, 12] is clipped to [8, 10]): covered = 4 + 2, self = 10 - 6.
    root = _span("compress", 0.0, 10.0, [
        _span("quantize", 1.0, 2.0),
        _span("predict", 2.0, 3.0),
        _span("protect", 8.0, 4.0, [
            _span("lossless", 8.5, 1.0),
            _span("encrypt", 9.5, 0.5, mode="ctr", bytes_in=33),
        ]),
    ])
    assert abs(sp.self_seconds(root) - 4.0) < 1e-12, sp.self_seconds(root)
    protect = root["children"][2]
    assert abs(sp.self_seconds(protect) - 2.5) < 1e-12
    leaf = root["children"][0]
    assert sp.self_seconds(leaf) == 2.0
    split = sp.stage_split(root, sp.COMPRESS_STAGES)
    expected = {"core.facade_self_s": 4.0, "sz.quantize_s": 2.0,
                "sz.predict_s": 3.0, "core.protect_s": 2.5,
                "sz.lossless_s": 1.0, "crypto.encrypt_s": 0.5}
    assert split.keys() == expected.keys(), split
    for name, value in expected.items():
        assert abs(split[name] - value) < 1e-12, (name, split[name])
    # Self times of a tree add back up to the root's duration when its
    # children neither overlap nor leave the parent's interval.
    total = sum(sp.self_breakdown(protect).values())
    assert abs(total - protect["seconds"]) < 1e-12, total
    assert sp.ctr_ciphertext_blocks(root) == 3
    assert sp.percentile([4, 1, 3, 2], 50) == 2.5
    assert sp.percentile(range(101), 95) == 95


def check_benchmark_json() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.RUNNERS)
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert e2e == list(workloads.END_TO_END), e2e
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert layer == list(workloads.PER_LAYER), layer
    return spec


def run_ledger(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "ledger/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def check_workload(name: str, trace: int) -> None:
    out = run_ledger(ROOT, "--workload", name, "--seed", "3",
                     "--seconds", "0.5", "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr[-4000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    names = workloads.PER_LAYER if trace else workloads.END_TO_END
    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    assert got == list(names), got
    for key, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), key
    if not trace:
        # End-to-end metrics are never 0, and the ledger lines carry the
        # wall-clock view under the workload's own names.
        assert all(m["value"] > 0 for m in result["metrics"].values())
        for line_name in ("setup_s", "latency_p50_ms", "failed_frac"):
            assert f" {line_name} " in out.stdout, line_name
        return
    doc = json.loads((HERE / "out" / f"{name}-seed3-traced.trace.json")
                     .read_text())
    assert doc["schema"] == "repro-trace/1" and doc["roots"], name
    assert result["metrics"]["trace.overhead_frac"]["value"] != 0.0
    assert result["metrics"]["wall.latency_p50_ms"]["value"] > 0


def check_refuses_without_source() -> None:
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = run_ledger(bare, "--workload", "archive", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0, out.stdout
    assert '"metrics"' not in out.stdout, out.stdout


def main() -> int:
    check_span_arithmetic()
    check_benchmark_json()
    check_refuses_without_source()
    for name in workloads.RUNNERS:
        for trace in (0, 1):
            check_workload(name, trace)
            print(f"ok  {name} --trace {trace}")
    print("ledger self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
