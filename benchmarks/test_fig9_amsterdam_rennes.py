"""Figure 9: bandwidth vs message size, Amsterdam–Rennes WAN.

Paper: capacity 1.6 MB/s, latency 30 ms.  Plain TCP 0.9 MB/s (56%),
4 parallel streams 1.5 MB/s (93%), zlib-1 compression 3.25 MB/s (203% of
capacity), compression+streams peak 3.4 MB/s "with a better overall
performance than with compression only".

Shape assertions: the four series preserve the paper's ordering and the
compression series exceeds the physical link capacity (the 200% effect).
"""

from conftest import once
from paperlinks import AMSTERDAM_RENNES, format_series, measure
from repro.core.utilization import StackSpec

MESSAGE_SIZES = [16384, 65536, 262144, 1048576, 4194304]
SERIES = {
    "plain": StackSpec.tcp(),
    "4 streams": StackSpec.parallel(4),
    "compression": StackSpec.tcp().with_compression(),
    "compression+4 streams": StackSpec.parallel(4).with_compression(),
}
PAPER = {"plain": 0.9, "4 streams": 1.5, "compression": 3.25,
         "compression+4 streams": 3.4}
TOTAL = 8_000_000


def _run():
    rows = []
    for size in MESSAGE_SIZES:
        values = {
            label: measure(AMSTERDAM_RENNES, spec, size, TOTAL)
            for label, spec in SERIES.items()
        }
        rows.append((size, values))
    return rows


def test_fig9_bandwidth_series(benchmark, report, bench_json):
    rows = once(benchmark, _run)

    peak = {label: max(values[label] for _s, values in rows) for label in SERIES}
    capacity = AMSTERDAM_RENNES["capacity"] / 1e6
    bench_json(
        "fig9_amsterdam_rennes",
        clock="sim",
        unit="MB/s",
        **{
            f"peak_{label.replace(' ', '_').replace('+', '_')}": round(v, 3)
            for label, v in peak.items()
        },
    )

    table = format_series(
        "Figure 9 — Amsterdam-Rennes (1.6 MB/s, 30 ms RTT), MB/s",
        list(SERIES),
        rows,
    )
    table += "\n\npeak per series (paper): " + ", ".join(
        f"{label} {peak[label]:.2f} ({PAPER[label]})" for label in SERIES
    )
    report("fig9_amsterdam_rennes", table)
    benchmark.extra_info["peaks"] = {k: round(v, 2) for k, v in peak.items()}

    # -- the paper's shape -----------------------------------------------------
    # Plain TCP well below capacity (56% in the paper).
    assert 0.3 * capacity < peak["plain"] < 0.75 * capacity
    # Parallel streams recover most of the capacity.
    assert peak["4 streams"] > 1.25 * peak["plain"]
    assert peak["4 streams"] > 0.7 * capacity
    # Compression beats the physical capacity (the 203% effect).
    assert peak["compression"] > 1.2 * capacity
    # The combination performs best overall, as in the paper.
    assert peak["compression+4 streams"] >= 0.95 * peak["compression"]
    assert peak["compression+4 streams"] > peak["4 streams"]
    # Large messages reach higher bandwidth than tiny ones for plain TCP.
    first = rows[0][1]["plain"]
    best_plain = peak["plain"]
    assert best_plain >= first
