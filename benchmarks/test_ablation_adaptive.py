"""§8 future work, as an ablation: adaptive compression and stream tuning.

The paper names "the dynamic enabling or disabling of compression" and
"selection of the optimal number of parallel TCP streams" as the next
step.  Both are implemented; this ablation shows the adaptive driver
converging to the right static choice on each link class, and the
BDP-derived stream count matching the best static sweep.
"""

from conftest import once
from paperlinks import AMSTERDAM_RENNES, DELFT_SOPHIA, measure
from repro.tune.planner import recommend_streams
from repro.core.utilization import StackSpec

TOTAL = 8_000_000
MSG = 65536


def _run():
    # Adaptive compression vs the static choices, both link classes.
    # On the fast link the pipe is filled with 8 streams (the paper's best
    # plain configuration), which is where compression turns harmful.
    rows = {}
    for name, link, streams in (
        ("slow", AMSTERDAM_RENNES, 4),
        ("fast", DELFT_SOPHIA, 8),
    ):
        base = StackSpec.parallel(streams)
        rows[name] = {
            "raw": measure(link, base, MSG, TOTAL),
            "compress": measure(link, base.with_compression(), MSG, TOTAL),
            "adaptive": measure(link, base.with_adaptive(), MSG, TOTAL),
        }
    # Stream-count auto-tuning vs a sweep on the fast link.
    sweep = {
        n: measure(DELFT_SOPHIA, StackSpec.parallel(n), MSG, 20_000_000)
        for n in (1, 2, 4, 8, 12)
    }
    recommended = recommend_streams(
        capacity=DELFT_SOPHIA["capacity"],
        rtt=2 * DELFT_SOPHIA["one_way_delay"],
        rcvbuf=65536,
    )
    return rows, sweep, recommended


def test_adaptive_ablation(benchmark, report):
    rows, sweep, recommended = once(benchmark, _run)

    lines = ["§8 ablation — adaptive compression and stream auto-tuning", ""]
    lines.append(f"{'link':>6s} {'raw':>8s} {'compress':>10s} {'adaptive':>10s}")
    for name in ("slow", "fast"):
        r = rows[name]
        lines.append(
            f"{name:>6s} {r['raw']:8.2f} {r['compress']:10.2f} {r['adaptive']:10.2f}"
        )
    lines.append("")
    lines.append("stream-count sweep on the fast link (MB/s):")
    lines.append("  " + ", ".join(f"{n}:{v:.2f}" for n, v in sweep.items()))
    best = max(sweep, key=sweep.get)
    lines.append(
        f"best static count: {best}; BDP-derived recommendation: {recommended}"
    )
    report("ablation_adaptive", "\n".join(lines))

    slow, fast = rows["slow"], rows["fast"]
    # Static choices differ per link class...
    assert slow["compress"] > slow["raw"]
    assert fast["raw"] > fast["compress"]
    # ...and the adaptive driver lands near the winner on both.
    assert slow["adaptive"] > 0.7 * slow["compress"]
    assert fast["adaptive"] > 0.7 * fast["raw"]
    # The BDP rule recommends a near-optimal stream count.
    assert sweep[recommended] > 0.85 * sweep[best]
