"""Figure 10: bandwidth vs message size, Delft–Sophia WAN.

Paper: capacity 9 MB/s, latency 43 ms.  Plain TCP 1.7 MB/s (19% — the
receive-window cap), 4 streams 4.6 MB/s (51%), 8 streams 7.95 MB/s (88%).
"On this fast link, compression degraded performance": compression reaches
5 MB/s and compression+streams 3.5 MB/s — both below 8 plain streams.

Shape assertions: window-capped plain TCP, monotone stream scaling, and
every compression variant below the best plain-streams series.

Known deviation (documented in EXPERIMENTS.md): our compression+streams
lands near compression-alone instead of clearly below it; the governing
claim — compression loses to plain striping on a fast link — holds.
"""

from conftest import once
from paperlinks import DELFT_SOPHIA, format_series, measure
from repro.core.utilization import StackSpec

MESSAGE_SIZES = [46656, 279936, 1679616]  # the paper's x-axis values
SERIES = {
    "plain": StackSpec.tcp(),
    "4 streams": StackSpec.parallel(4),
    "8 streams": StackSpec.parallel(8),
    "compression": StackSpec.tcp().with_compression(),
    "compression+4 streams": StackSpec.parallel(4).with_compression(),
}
PAPER = {"plain": 1.7, "4 streams": 4.6, "8 streams": 7.95,
         "compression": 5.0, "compression+4 streams": 3.5}
TOTAL = 25_000_000


def _run():
    rows = []
    for size in MESSAGE_SIZES:
        values = {
            label: measure(DELFT_SOPHIA, spec, size, TOTAL)
            for label, spec in SERIES.items()
        }
        rows.append((size, values))
    return rows


def test_fig10_bandwidth_series(benchmark, report, bench_json):
    rows = once(benchmark, _run)
    peak = {label: max(values[label] for _s, values in rows) for label in SERIES}
    capacity = DELFT_SOPHIA["capacity"] / 1e6
    bench_json(
        "fig10_delft_sophia",
        clock="sim",
        unit="MB/s",
        **{
            f"peak_{label.replace(' ', '_').replace('+', '_')}": round(v, 3)
            for label, v in peak.items()
        },
    )

    table = format_series(
        "Figure 10 — Delft-Sophia (9 MB/s, 43 ms RTT), MB/s",
        list(SERIES),
        rows,
    )
    table += "\n\npeak per series (paper): " + ", ".join(
        f"{label} {peak[label]:.2f} ({PAPER[label]})" for label in SERIES
    )
    report("fig10_delft_sophia", table)
    benchmark.extra_info["peaks"] = {k: round(v, 2) for k, v in peak.items()}

    # -- the paper's shape -----------------------------------------------------
    # Plain TCP is receive-window limited far below capacity (19%).
    assert peak["plain"] < 0.3 * capacity
    # Streams scale: 1 < 4 < 8, with 8 streams near capacity (88%).
    assert peak["plain"] < peak["4 streams"] < peak["8 streams"]
    assert peak["8 streams"] > 0.7 * capacity
    assert peak["4 streams"] > 2.2 * peak["plain"]
    # Compression helps over plain single-stream but cannot match striping:
    # "on this fast link, compression degraded performance".
    assert peak["compression"] > peak["plain"]
    assert peak["compression"] < peak["8 streams"]
    assert peak["compression+4 streams"] < peak["8 streams"]
