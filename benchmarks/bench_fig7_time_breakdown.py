"""Fig. 7 — per-stage time breakdown for the bandwidth datasets.

Stacked-bar data: for each (dataset, scheme), the share of compression
time spent in prediction+quantization, Huffman coding, encryption and
the lossless stage.  The paper uses this to show where Encr-Quant's
time goes (encryption of the codeword stream + a slower zlib) and how
little Encr-Huffman's encryption slice is.
"""

from repro.bench.harness import (
    EBS, SCHEME_LABELS, dataset_cache, measure_scheme, trace_cell,
)
from repro.bench.tables import format_grid

from conftest import ALL_SCHEMES, BANDWIDTH_DATASETS, BENCH_SIZE, emit, emit_trace

#: Stage grouping used for the stacked bars.
GROUPS = (
    ("predict+quantize", ("predict", "quantize")),
    ("huffman", ("huffman_build", "huffman_encode")),
    ("side channels", ("side_channels",)),
    ("encrypt", ("encrypt",)),
    ("lossless", ("lossless",)),
)

FIG7_EB = 1e-4


def test_fig7_time_breakdown(grid, benchmark):
    blocks = []
    shares = {}
    for name in BANDWIDTH_DATASETS:
        rows = []
        labels = []
        for scheme in ALL_SCHEMES:
            m = grid[(name, scheme, FIG7_EB)]
            seconds = dict(m.compress_times)
            # Rescale the encrypt stage to the hardware-AES model so the
            # stacked shares match the paper's regime (see harness docs).
            if "encrypt" in seconds:
                seconds["encrypt"] = m.modeled_encrypt_seconds()
            total = sum(seconds.values()) or 1.0
            row = []
            for _, stages in GROUPS:
                row.append(
                    100.0
                    * sum(seconds.get(s, 0.0) for s in stages)
                    / total
                )
            rows.append(row)
            labels.append(SCHEME_LABELS[scheme])
            shares[(name, scheme)] = dict(
                zip([g for g, _ in GROUPS], row)
            )
        blocks.append(
            format_grid(
                f"Fig. 7 — {name} @ eb={FIG7_EB:g}: compression time "
                f"breakdown (% of total, modeled AES, size={BENCH_SIZE})",
                labels, [g for g, _ in GROUPS], rows,
                corner="Method", precision=1,
            )
        )
    emit("fig7_time_breakdown", "\n\n".join(blocks))

    # The same breakdown as a trace record: one traced cell per scheme,
    # emitted next to the table so the figure's numbers can be drilled
    # into span-by-span (the table itself reads the stage leaves of
    # the same span tree).
    for scheme in ALL_SCHEMES:
        doc = trace_cell(
            dataset_cache("t", size=BENCH_SIZE), scheme, FIG7_EB
        )
        emit_trace(f"fig7_{scheme}", doc)

    for name in BANDWIDTH_DATASETS:
        # Plain SZ spends nothing on encryption...
        assert shares[(name, "none")]["encrypt"] == 0.0
        # ...Encr-Huffman's encryption slice is small...
        assert shares[(name, "encr_huffman")]["encrypt"] < 20.0
        # ...and never larger than Cmpr-Encr's full-stream pass.
        assert (
            shares[(name, "encr_huffman")]["encrypt"]
            <= shares[(name, "cmpr_encr")]["encrypt"] + 1.0
        )

    data = dataset_cache("cloudf48", size=BENCH_SIZE)
    benchmark.pedantic(
        lambda: measure_scheme(data, "encr_quant", FIG7_EB, repeats=1),
        rounds=3, iterations=1,
    )
