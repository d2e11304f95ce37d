"""The trace layer: span trees, stage seconds, counters, exporters,
schema validation, parallel accumulation, and the near-zero-cost
guarantee for disabled tracing."""

import json
import threading
import time

import numpy as np
import pytest

from repro.core import trace
from repro.core.pipeline import SecureCompressor
from repro.core.trace import (
    NULL_TRACER,
    SCHEMA,
    Span,
    Tracer,
    chrome_trace,
    format_tree,
    stage_seconds,
    validate,
)

KEY = bytes(range(16))


@pytest.fixture
def field():
    return np.random.default_rng(3).random((16, 24, 24)).astype(np.float32)


# ----------------------------------------------------------------------
# Span trees
# ----------------------------------------------------------------------


class TestSpanTree:
    def test_nesting_and_attributes(self):
        tr = Tracer()
        with tr.span("outer", bytes_in=100) as outer:
            with tr.span("inner") as inner:
                inner.annotate(k=1)
            outer.bytes_out = 10
        assert len(tr.roots) == 1
        root = tr.roots[0]
        assert root.name == "outer"
        assert root.bytes_in == 100 and root.bytes_out == 10
        assert [c.name for c in root.children] == ["inner"]
        assert root.children[0].attrs == {"k": 1}

    def test_sibling_spans_and_durations(self):
        tr = Tracer()
        with tr.span("root"):
            with tr.span("a"):
                time.sleep(0.002)
            with tr.span("b"):
                pass
        root = tr.roots[0]
        assert [c.name for c in root.children] == ["a", "b"]
        assert root.seconds >= root.children[0].seconds > 0.0
        assert root.children[0].start <= root.children[0].start + root.seconds

    def test_span_survives_exception(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("x")
        assert [s.name for s in tr.roots] == ["boom"]

    def test_walk_is_depth_first(self):
        span = Span(name="a", children=[
            Span(name="b", children=[Span(name="c")]), Span(name="d"),
        ])
        assert [s.name for s in span.walk()] == ["a", "b", "c", "d"]


# ----------------------------------------------------------------------
# Stage seconds: the leaves of the span tree
# ----------------------------------------------------------------------

#: The pipeline's stage spans (docs/OBSERVABILITY.md).
STAGES = {
    "quantize", "predict", "huffman_build", "huffman_encode",
    "huffman_decode", "side_channels", "encrypt", "decrypt", "lossless",
    "reconstruct",
}


class TestStageSeconds:
    def test_repeated_leaves_sum(self, field):
        # encr_huffman deflates twice on compress: the tree, then the
        # stream.  Both leaves count.
        sc = SecureCompressor("encr_huffman", 1e-3, key=KEY)
        tr = Tracer()
        sc.compress(field, tracer=tr)
        doc = tr.export()
        protect = doc["roots"][0]["children"][1]
        assert protect["name"] == "protect"
        lossless = [c["seconds"] for c in protect["children"]
                    if c["name"] == "lossless"]
        assert len(lossless) == 2
        assert stage_seconds(doc)["lossless"] == sum(lossless)

    def test_structural_spans_never_appear(self, field):
        sc = SecureCompressor("encr_huffman", 1e-3, key=KEY)
        tr = Tracer()
        r = sc.compress(field, tracer=tr)
        sc.decompress(r.container, tracer=tr)
        seconds = stage_seconds(tr)
        assert set(seconds) == STAGES
        structural = {s.name for root in tr.roots for s in root.walk()
                      if s.children}
        assert structural == {"compress", "sz.compress", "protect",
                              "decompress", "unprotect", "sz.decompress"}

    def test_tracer_and_export_agree(self, field):
        sc = SecureCompressor("cmpr_encr", 1e-3, key=KEY)
        tr = Tracer()
        r = sc.compress(field, tracer=tr)
        sc.decompress(r.container, tracer=tr)
        assert stage_seconds(tr) == stage_seconds(tr.export())

    def test_scheme_protect_takes_a_tracer(self, field):
        """The bench harness path: a tracer straight into protect."""
        from repro.core.schemes import get_scheme
        from repro.crypto.aes import AES128
        from repro.sz.compressor import SZCompressor

        frame = SZCompressor(1e-3).compress(field)
        tr = Tracer()
        get_scheme("encr_huffman").protect(
            frame.sections, AES128(KEY), bytes(16), "cbc", tr
        )
        assert set(stage_seconds(tr)) == {"lossless", "encrypt"}


# ----------------------------------------------------------------------
# Pipeline traces and the documented schema
# ----------------------------------------------------------------------


class TestPipelineTrace:
    def test_compress_decompress_trace_validates(self, field):
        sc = SecureCompressor("encr_huffman", 1e-3, key=KEY)
        tr = Tracer()
        result = sc.compress(field, tracer=tr)
        sc.decompress(result.container, tracer=tr)
        doc = validate(tr.export())
        assert doc["schema"] == SCHEMA
        assert [r["name"] for r in doc["roots"]] == ["compress", "decompress"]
        comp = doc["roots"][0]
        assert comp["bytes_in"] == field.nbytes
        assert comp["bytes_out"] == len(result.container)
        assert comp["attrs"]["scheme"] == "encr_huffman"
        children = [c["name"] for c in comp["children"]]
        assert children == ["sz.compress", "protect"]
        stage_names = {c["name"] for c in comp["children"][0]["children"]}
        assert {"quantize", "predict", "huffman_build",
                "huffman_encode", "side_channels"} <= stage_names
        # The document is valid JSON end to end.
        json.dumps(doc)

    def test_trace_counters_are_deltas(self, field):
        sc = SecureCompressor("cmpr_encr", 1e-3, key=KEY)
        warm = sc.compress(field)  # counts outside the tracer window
        tr = Tracer()
        sc.compress(field, tracer=tr)
        doc = tr.export()
        blocks = doc["counters"]["aes.blocks_encrypted"]
        # One compress worth of blocks, not two.
        assert blocks * 16 < 2 * len(warm.container)
        assert doc["counters"]["zlib.deflate_in_bytes"] > 0

    def test_byte_flow_is_consistent(self, field):
        """Each lossless/encrypt stage's bytes_out feeds the next."""
        sc = SecureCompressor("cmpr_encr", 1e-3, key=KEY)
        tr = Tracer()
        sc.compress(field, tracer=tr)
        protect = tr.roots[0].children[-1]
        lossless, encrypt = protect.children
        assert lossless.name == "lossless" and encrypt.name == "encrypt"
        assert encrypt.bytes_in == lossless.bytes_out
        # CBC padding: ciphertext is the padded plaintext length.
        assert encrypt.bytes_out == (encrypt.bytes_in // 16 + 1) * 16

    def test_ctr_mode_counts_keystream_blocks(self, field):
        sc = SecureCompressor("encr_huffman", 1e-3, key=KEY,
                              cipher_mode="ctr")
        tr = Tracer()
        r = sc.compress(field, tracer=tr)
        sc.decompress(r.container, tracer=tr)
        assert tr.export()["counters"]["aes.blocks_keystream"] > 0

    def test_lane_decode_counters(self):
        data = np.random.default_rng(1).random(120_000).astype(np.float32)
        from repro.sz.compressor import SZCompressor

        comp = SZCompressor(1e-3, huffman_lanes=4, anchor_stride=2048)
        frame = comp.compress(data)
        before = trace.counters_snapshot()
        comp.decompress(frame)
        after = trace.counters_snapshot()
        assert after.get("fastdecode.lanes", 0) - before.get(
            "fastdecode.lanes", 0) == 4
        assert after.get("fastdecode.segments", 0) > before.get(
            "fastdecode.segments", 0)


# ----------------------------------------------------------------------
# Counters API
# ----------------------------------------------------------------------


class TestCounters:
    def test_count_and_merge(self):
        before = trace.counters_snapshot()
        trace.count("test.widgets")
        trace.count("test.widgets", 4)
        trace.count_many({"test.widgets": 5, "test.gadgets": 2})
        after = trace.counters_snapshot()
        assert after["test.widgets"] == before.get("test.widgets", 0) + 10
        assert after["test.gadgets"] == before.get("test.gadgets", 0) + 2

    def test_thread_safety(self):
        name = "test.threaded"
        base = trace.counters_snapshot().get(name, 0)

        def worker():
            for _ in range(1000):
                trace.count(name)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert trace.counters_snapshot()[name] == base + 8000

    def test_known_counters_are_unique(self):
        assert len(set(trace.KNOWN_COUNTERS)) == len(trace.KNOWN_COUNTERS)


# ----------------------------------------------------------------------
# Exporters and validation
# ----------------------------------------------------------------------


class TestExporters:
    def _doc(self, field):
        sc = SecureCompressor("encr_quant", 1e-3, key=KEY)
        tr = Tracer()
        r = sc.compress(field, tracer=tr)
        sc.decompress(r.container, tracer=tr)
        return tr.export()

    def test_chrome_trace_events(self, field):
        doc = self._doc(field)
        ct = chrome_trace(doc)
        assert ct["displayTimeUnit"] == "ms"
        events = ct["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        # Each root gets its own tid row; spans carry byte-flow args.
        assert {e["tid"] for e in events} == {0, 1}
        comp = next(e for e in events if e["name"] == "compress")
        assert comp["args"]["bytes_in"] == field.nbytes
        json.dumps(ct)

    def test_format_tree_renders_all_spans(self, field):
        doc = self._doc(field)
        text = format_tree(doc)
        for name in ("compress", "sz.compress", "quantize",
                     "decompress", "counters:"):
            assert name in text

    def test_validate_accepts_own_export(self, field):
        assert validate(self._doc(field))["schema"] == SCHEMA

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d.pop("schema"), "schema"),
        (lambda d: d.update(roots="x"), "roots"),
        (lambda d: d.update(counters=[1]), "counters"),
        (lambda d: d["roots"][0].pop("name"), "name"),
        (lambda d: d["roots"][0].update(seconds=-1), "seconds"),
        (lambda d: d["roots"][0].update(bytes_in="big"), "bytes_in"),
        (lambda d: d["roots"][0]["attrs"].update(bad=[1, 2]), "attrs"),
        (lambda d: d["roots"][0]["children"][0].pop("start"), "start"),
    ])
    def test_validate_rejects_malformed(self, field, mutate, match):
        doc = self._doc(field)
        mutate(doc)
        with pytest.raises(ValueError, match=match):
            validate(doc)

    def test_validate_reports_nested_path(self):
        doc = {"schema": SCHEMA, "counters": {}, "roots": [{
            "name": "a", "start": 0, "seconds": 0, "bytes_in": None,
            "bytes_out": None, "attrs": {}, "children": [{
                "name": "", "start": 0, "seconds": 0, "bytes_in": None,
                "bytes_out": None, "attrs": {}, "children": [],
            }],
        }]}
        with pytest.raises(ValueError, match=r"roots\[0\].children\[0\]"):
            validate(doc)


# ----------------------------------------------------------------------
# Parallel accumulation
# ----------------------------------------------------------------------


class TestParallelTrace:
    def test_threads_record_into_one_tracer(self):
        tr = Tracer()

        def worker(i):
            with tr.span(f"thread-{i}"):
                with tr.span("work"):
                    pass

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        doc = validate(tr.export())
        names = sorted(r["name"] for r in doc["roots"])
        assert names == sorted(f"thread-{i}" for i in range(6))
        # No cross-thread nesting: each root has exactly its own stage.
        assert all(len(r["children"]) == 1 for r in doc["roots"])


# ----------------------------------------------------------------------
# Disabled-mode overhead
# ----------------------------------------------------------------------


class _CountingClock:
    """Stands in for the ``time`` module inside :mod:`repro.core.trace`."""

    def __init__(self) -> None:
        self.reads = 0

    def perf_counter(self) -> float:
        self.reads += 1
        return time.perf_counter()


class TestDisabledOverhead:
    def test_disabled_span_returns_shared_noop(self):
        tr = Tracer(enabled=False)
        a = tr.span("x")
        b = tr.span("y")
        assert a is b  # no allocation per disabled structural span
        with a as span:
            span.bytes_out = 7  # swallowed, not stored
            span.annotate(k=1)
        assert tr.roots == []
        assert tr.export()["roots"] == []

    def test_disabled_overhead_under_two_percent(self, field):
        """Acceptance bound: disabled tracing must cost < 2% of the
        bench_fig6_bandwidth measurement path (one traceable compress +
        decompress).  Measured structurally: per-call cost of the
        disabled span machinery times the actual number of spans
        the pipeline opens, compared against the pipeline's wall time —
        which avoids comparing two noisy end-to-end runs."""
        sc = SecureCompressor("encr_huffman", 1e-4, key=KEY)
        # Count the spans one compress+decompress opens.
        tr = Tracer()
        result = sc.compress(field, tracer=tr)
        sc.decompress(result.container, tracer=tr)
        n_spans = sum(1 for root in tr.roots for _ in root.walk())

        # Wall time of the untraced path (best of 3 to shed noise).
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            r = sc.compress(field)
            sc.decompress(r.container)
            best = min(best, time.perf_counter() - t0)

        # Per-call cost of the disabled span, averaged over many
        # iterations of the costliest call shape (byte flow + attrs).
        reps = 20_000
        t0 = time.perf_counter()
        for _ in range(reps):
            with NULL_TRACER.span("encrypt", bytes_in=4096, mode="cbc"):
                pass
        per_span = (time.perf_counter() - t0) / reps

        overhead = per_span * n_spans
        assert overhead < 0.02 * best, (
            f"disabled tracing costs {overhead * 1e6:.1f} us for "
            f"{n_spans} spans vs {best * 1e3:.2f} ms pipeline time"
        )

    @pytest.mark.parametrize("mode", ["cbc", "ctr"])
    def test_untraced_round_trip_reads_no_clock(self, field, mode,
                                                monkeypatch):
        """Untraced calls go through NULL_TRACER, which reads no clock."""
        sc = SecureCompressor("encr_huffman", 1e-3, key=KEY,
                              cipher_mode=mode)
        clock = _CountingClock()
        monkeypatch.setattr(trace, "time", clock)
        out = sc.decompress(sc.compress(field).container)
        assert np.max(np.abs(out - field)) <= 1e-3
        assert clock.reads == 0
