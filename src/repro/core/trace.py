"""Pipeline observability: hierarchical trace spans, byte-flow
accounting and process-wide counters.

The paper's whole evaluation is an observability exercise — Fig. 7 is
a per-stage time breakdown, Tables III–V are stage-time ratios, and
Sec. V-D argues from *byte volumes* (how much each scheme feeds to
AES).  The span tree is the one place a stage time lives:

* :class:`Span` — one timed operation: name, wall seconds, bytes in /
  bytes out, ``key=value`` attributes, child spans.
* :class:`Tracer` — records a span tree (thread-safe: each thread
  keeps its own open-span stack, finished roots are appended under a
  lock).  Disabled tracers (:data:`NULL_TRACER`, the default for every
  untraced call) record nothing and read no clock.
* :func:`stage_seconds` — the ``{stage: seconds}`` map the Fig. 7 /
  Tables III–V benchmarks read: the stages are the tree's leaves.
* process-wide **counters** (:func:`count` / :func:`counters_snapshot`)
  for the quantities that do not belong to any single span: lanes and
  segments decoded, AES blocks processed, zlib bytes in/out.
* exporters — :meth:`Tracer.export` (the ``repro-trace/1`` JSON
  document, see docs/OBSERVABILITY.md), :func:`chrome_trace` (Chrome
  ``chrome://tracing`` / Perfetto event format) and
  :func:`format_tree` (human-readable tree, what ``secz trace``
  prints), plus :func:`validate` which rejects anything that does not
  match the documented schema.

This module deliberately imports nothing from the rest of the package
(stdlib only), so the substrate layers (``repro.sz``, ``repro.crypto``)
may use its counters without creating an upward dependency.

Examples
--------
>>> tr = Tracer()
>>> with tr.span("compress", bytes_in=4096) as root:
...     with tr.span("quantize"):
...         pass
...     root.bytes_out = 512
>>> doc = validate(tr.export())
>>> doc["schema"]
'repro-trace/1'
>>> [child["name"] for child in doc["roots"][0]["children"]]
['quantize']
>>> list(stage_seconds(doc))
['quantize']
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "SCHEMA",
    "KNOWN_COUNTERS",
    "Span",
    "Tracer",
    "NULL_TRACER",
    "stage_seconds",
    "chrome_trace",
    "format_tree",
    "validate",
    "count",
    "count_many",
    "counters_snapshot",
]

#: Schema identifier stamped into every exported trace document.
SCHEMA = "repro-trace/1"

#: The counter registry (documented in docs/OBSERVABILITY.md).  Other
#: names are legal — this tuple is the contract for the names the
#: library itself emits.
KNOWN_COUNTERS = (
    "fastdecode.lanes",            # Huffman lanes decoded (v3 frames)
    "fastdecode.segments",         # independent decode segments (lanes + anchors)
    "huffman.encode_lanes",        # Huffman lanes encoded (v2 counts as 1)
    "huffman.packed_words",        # uint64 words written by the pack kernel
    "predict.sample_points",       # points sampled per predictor-selection estimate
    "quantize.repair_passes",      # verified-quantize ±1 repair sweeps run
    "aes.blocks_encrypted",        # 16-byte blocks through CBC encryption
    "aes.blocks_decrypted",        # 16-byte blocks through CBC decryption
    "aes.blocks_keystream",        # 16-byte CTR keystream blocks generated
    "aes.keystream_segments",      # bounded batched CTR keystream calls
    "lz.literals",                 # literal tokens emitted by the LZ77 matcher
    "lz.matches",                  # match tokens emitted by the LZ77 matcher
    "lz.match_bytes",              # bytes covered by LZ77 match tokens
    "archive.chunks_added",        # content-defined chunks stored as new blobs
    "archive.chunks_deduped",      # chunks answered by an existing blob (store-once hit)
    "archive.blobs_gced",          # unreferenced blobs dropped by archive gc
    "zlib.deflate_in_bytes",       # plaintext bytes into zlib.compress
    "zlib.deflate_out_bytes",      # compressed bytes out of zlib.compress
    "zlib.inflate_in_bytes",       # compressed bytes into zlib.decompress
    "zlib.inflate_out_bytes",      # plaintext bytes out of zlib.decompress
    "service.jobs_submitted",      # jobs accepted (persisted + acked) by secz serve
    "service.jobs_failed",         # serve jobs that ended in the failed state
    "service.queue_wait_ms",       # wall ms serve jobs spent queued before a worker start
)

_JSON_SCALARS = (str, int, float, bool, type(None))


# ----------------------------------------------------------------------
# Process-wide counters
# ----------------------------------------------------------------------

_counters: dict[str, int] = {}
_counters_lock = threading.Lock()


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to the process-wide counter ``name`` (thread-safe)."""
    with _counters_lock:
        _counters[name] = _counters.get(name, 0) + int(n)


def count_many(increments: dict[str, int]) -> None:
    """Apply several counter increments under one lock acquisition."""
    with _counters_lock:
        for name, n in increments.items():
            _counters[name] = _counters.get(name, 0) + int(n)


def counters_snapshot() -> dict[str, int]:
    """A copy of every process-wide counter's current value."""
    with _counters_lock:
        return dict(_counters)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


@dataclass
class Span:
    """One timed operation in the trace tree.

    ``start`` is seconds since the owning tracer's creation.
    ``bytes_in`` / ``bytes_out`` are the operation's byte flow where
    meaningful, ``None`` where not.
    """

    name: str
    start: float = 0.0
    seconds: float = 0.0
    bytes_in: int | None = None
    bytes_out: int | None = None
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def annotate(self, **attrs) -> None:
        """Attach ``key=value`` attributes (JSON scalars) to the span."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict:
        """The span subtree as the documented JSON structure."""
        return {
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


class _NullSpan:
    """Span stand-in for disabled tracers: swallows all annotation."""

    __slots__ = ()

    def annotate(self, **attrs) -> None:
        pass

    def __setattr__(self, name, value) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _NoopContext:
    """Reusable no-op context manager (disabled span, nothing to do)."""

    __slots__ = ()

    def __enter__(self):
        return _NULL_SPAN

    def __exit__(self, *exc):
        return False


_NOOP_CONTEXT = _NoopContext()


class _ActiveSpan:
    """Context manager recording one enabled span."""

    __slots__ = ("_tracer", "span", "_t0")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        tracer = self._tracer
        tracer._span_stack().append(self.span)
        self._t0 = time.perf_counter()
        self.span.start = self._t0 - tracer._epoch
        return self.span

    def __exit__(self, *exc):
        self.span.seconds = time.perf_counter() - self._t0
        tracer = self._tracer
        stack = tracer._span_stack()
        stack.pop()
        if stack:
            stack[-1].children.append(self.span)
        else:
            with tracer._lock:
                tracer.roots.append(self.span)
        return False


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


class Tracer:
    """Records a tree of :class:`Span` objects.

    Parameters
    ----------
    enabled:
        When False, :meth:`span` returns a shared no-op context: no
        span bookkeeping and no clock reads.

    Thread safety: every thread has its own open-span stack (spans
    opened on one thread nest under that thread's spans only), and
    completed top-level spans append to :attr:`roots` under a lock, so
    worker threads may record into one shared tracer concurrently.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._epoch = time.perf_counter()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.roots: list[Span] = []
        self._counters0 = counters_snapshot() if enabled else {}

    def _span_stack(self) -> list[Span]:
        stack = getattr(self._tls, "spans", None)
        if stack is None:
            stack = self._tls.spans = []
        return stack

    def span(self, name: str, *, bytes_in: int | None = None, **attrs):
        """Open a span (returns a context manager yielding the
        :class:`Span`).  Spans without children are the pipeline's
        stages (``quantize``, ``encrypt``, ``lossless``, ...) — see
        :func:`stage_seconds`."""
        if not self.enabled:
            return _NOOP_CONTEXT
        span = Span(name=name, bytes_in=bytes_in, attrs=dict(attrs))
        return _ActiveSpan(self, span)

    # -- export ---------------------------------------------------------

    def export(self) -> dict:
        """The complete ``repro-trace/1`` document.

        ``counters`` holds the *change* in every process-wide counter
        since this tracer was created — what the traced operations did,
        not the process's lifetime totals.
        """
        now = counters_snapshot()
        delta = {
            name: now[name] - self._counters0.get(name, 0)
            for name in sorted(now)
            if now[name] != self._counters0.get(name, 0)
        }
        with self._lock:
            roots = [span.to_dict() for span in self.roots]
        return {"schema": SCHEMA, "roots": roots, "counters": delta}


#: Shared disabled tracer: the default for every untraced call.
NULL_TRACER = Tracer(enabled=False)


def stage_seconds(doc: "dict | Tracer") -> dict[str, float]:
    """Seconds per stage: every leaf span's ``seconds``, summed by name.

    The stages are the leaves of the span tree, so a stage that runs
    twice (``encr_huffman`` deflates the tree, then the stream) adds
    up, and structural spans (``compress``, ``protect``, ...) never
    appear.  This is the map Fig. 7 and Tables III–V read.
    """
    if isinstance(doc, Tracer):
        doc = doc.export()
    validate(doc)
    seconds: dict[str, float] = {}

    def walk(span: dict) -> None:
        if not span["children"]:
            seconds[span["name"]] = (
                seconds.get(span["name"], 0.0) + span["seconds"]
            )
        for child in span["children"]:
            walk(child)

    for root in doc["roots"]:
        walk(root)
    return seconds


# ----------------------------------------------------------------------
# Exporters / validation
# ----------------------------------------------------------------------


def _span_args(span: dict) -> dict:
    args = {}
    if span["bytes_in"] is not None:
        args["bytes_in"] = span["bytes_in"]
    if span["bytes_out"] is not None:
        args["bytes_out"] = span["bytes_out"]
    args.update(span["attrs"])
    return args


def chrome_trace(doc: "dict | Tracer") -> dict:
    """Convert a trace document to Chrome trace-event format.

    The result (``{"traceEvents": [...]}``) loads directly into
    ``chrome://tracing`` or https://ui.perfetto.dev.  Every root span
    gets its own ``tid`` row so concurrent roots stack visually.
    """
    if isinstance(doc, Tracer):
        doc = doc.export()
    validate(doc)
    events: list[dict] = []

    def walk(span: dict, tid: int) -> None:
        events.append({
            "name": span["name"],
            "cat": "repro",
            "ph": "X",
            "pid": 0,
            "tid": tid,
            "ts": round(span["start"] * 1e6, 3),
            "dur": round(span["seconds"] * 1e6, 3),
            "args": _span_args(span),
        })
        for child in span["children"]:
            walk(child, tid)

    for tid, root in enumerate(doc["roots"]):
        walk(root, tid)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def format_tree(doc: "dict | Tracer", *, max_attrs: int = 6) -> str:
    """Human-readable rendering of a trace document (``secz trace``)."""
    if isinstance(doc, Tracer):
        doc = doc.export()
    validate(doc)
    lines: list[str] = []

    def walk(span: dict, depth: int) -> None:
        label = "  " * depth + span["name"]
        cell = f"{label:<34s} {span['seconds'] * 1e3:9.3f} ms"
        flow = []
        if span["bytes_in"] is not None:
            flow.append(f"{span['bytes_in']:,} B in")
        if span["bytes_out"] is not None:
            flow.append(f"{span['bytes_out']:,} B out")
        if flow:
            cell += "   " + " -> ".join(flow)
        attrs = list(span["attrs"].items())[:max_attrs]
        if attrs:
            cell += "   " + " ".join(f"{k}={v}" for k, v in attrs)
        lines.append(cell)
        for child in span["children"]:
            walk(child, depth + 1)

    for root in doc["roots"]:
        walk(root, 0)
    if doc["counters"]:
        lines.append("")
        lines.append("counters:")
        width = max(len(name) for name in doc["counters"])
        for name, value in doc["counters"].items():
            lines.append(f"  {name:<{width}s}  {value:,}")
    return "\n".join(lines)


def _fail(path: str, message: str):
    raise ValueError(f"invalid trace document at {path}: {message}")


def _validate_span(span, path: str) -> None:
    if not isinstance(span, dict):
        _fail(path, "span must be an object")
    required = ("name", "start", "seconds", "attrs", "children")
    for key in required:
        if key not in span:
            _fail(path, f"missing required key {key!r}")
    if not isinstance(span["name"], str) or not span["name"]:
        _fail(path, "name must be a non-empty string")
    for key in ("start", "seconds"):
        value = span[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, f"{key} must be a number")
        if value < 0:
            _fail(path, f"{key} must be non-negative")
    for key in ("bytes_in", "bytes_out"):
        value = span.get(key)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(path, f"{key} must be an integer or null")
        if value < 0:
            _fail(path, f"{key} must be non-negative")
    if not isinstance(span["attrs"], dict):
        _fail(path, "attrs must be an object")
    for key, value in span["attrs"].items():
        if not isinstance(key, str):
            _fail(path, "attrs keys must be strings")
        if not isinstance(value, _JSON_SCALARS):
            _fail(path, f"attrs[{key!r}] must be a JSON scalar")
    if not isinstance(span["children"], list):
        _fail(path, "children must be a list")
    for i, child in enumerate(span["children"]):
        _validate_span(child, f"{path}.children[{i}]")


def validate(doc: dict) -> dict:
    """Check ``doc`` against the documented ``repro-trace/1`` schema.

    Returns the document unchanged; raises :class:`ValueError` naming
    the offending path otherwise.  docs/OBSERVABILITY.md is the prose
    version of these rules.
    """
    if not isinstance(doc, dict):
        raise ValueError("invalid trace document: not an object")
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"invalid trace document: schema must be {SCHEMA!r}, "
            f"got {doc.get('schema')!r}"
        )
    if not isinstance(doc.get("roots"), list):
        raise ValueError("invalid trace document: roots must be a list")
    for i, root in enumerate(doc["roots"]):
        _validate_span(root, f"roots[{i}]")
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        raise ValueError("invalid trace document: counters must be an object")
    for name, value in counters.items():
        if not isinstance(name, str):
            raise ValueError("invalid trace document: counter names must be strings")
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"invalid trace document: counter {name!r} must be an integer"
            )
    return doc
