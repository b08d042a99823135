"""Auto-tuned vs best static configuration (the repro.tune acceptance).

The ISSUE-10 criterion for the closed-loop tuner's *planner*: probe the
path (no hand-set knobs anywhere), let :class:`~repro.tune.TunePlanner`
derive the stack — stream count from the BDP rule with loss headroom,
compression from the CPU/wire crossover — and the resulting throughput
must reach at least 95% of the best configuration found by exhaustively
sweeping the static grid (plain TCP and 2/4/8 parallel streams, each
with and without compression) on both of the paper's WANs.

This is the one-shot half of the loop (the converged state); the
*dynamics* — tracking a path that changes mid-transfer — are covered by
the ``tune_*`` chaos scenarios.
"""

from conftest import once
from paperlinks import (
    AMSTERDAM_RENNES,
    DELFT_SOPHIA,
    PAYLOAD_RATIO,
    build_paper_wan,
    measure,
)
from repro.core import PathMonitor
from repro.core.utilization.spec import StackSpec
from repro.tune import LinkSignals, TunePlanner

TOTAL = 8_000_000
MSG = 65536

#: the static sweep the auto-tuned plan competes against
STATIC_GRID = [StackSpec.tcp(), StackSpec.tcp().with_compression()] + [
    spec
    for n in (2, 4, 8)
    for spec in (StackSpec.parallel(n), StackSpec.parallel(n).with_compression())
]


def _probe(link: dict) -> "PathEstimate":
    """Measure the path the way a deployment would: the PathMonitor."""
    scenario = build_paper_wan(link, seed=41)
    src = scenario.nodes["src"]
    dst = scenario.nodes["dst"]
    out = {}

    def initiator():
        yield from src.start()
        while not dst.relay_client.connected:
            yield scenario.sim.timeout(0.05)
        service = yield from src.open_service_link("dst")
        monitor = PathMonitor(src)
        out["estimate"] = yield from monitor.estimate(service, dst.info)
        yield from monitor.finish(service)

    def responder():
        yield from dst.start()
        _peer, service = yield from dst.accept_service_link()
        yield from PathMonitor(dst).serve(service)

    scenario.sim.process(initiator())
    scenario.sim.process(responder())
    scenario.run(until=600)
    return out["estimate"]


def _plan_spec(link: dict) -> StackSpec:
    """Probe → TunePlanner → stack: no hand-set knobs anywhere."""
    estimate = _probe(link)
    signals = LinkSignals(
        rtt=estimate.rtt,
        capacity=estimate.capacity,
        loss_rate=link["loss"],
        streams_active=1,
        compress_rate=link["cpu_rates"]["compress"],
        payload_ratio=PAYLOAD_RATIO,
    )
    plan = TunePlanner().plan(signals)
    spec = (
        StackSpec.parallel(plan.streams) if plan.streams > 1
        else StackSpec.tcp()
    )
    if plan.compress == "on":
        spec = spec.with_compression()
    return spec


def _run():
    rows = []
    for link in (AMSTERDAM_RENNES, DELFT_SOPHIA):
        spec = _plan_spec(link)
        auto = measure(link, spec, MSG, TOTAL)
        grid = {
            str(static): measure(link, static, MSG, TOTAL)
            for static in STATIC_GRID
        }
        best_name, best = max(grid.items(), key=lambda kv: kv[1])
        rows.append((link["name"], str(spec), auto, best_name, best, grid))
    return rows


def test_auto_tuned_matches_best_static(benchmark, report, bench_json):
    rows = once(benchmark, _run)

    lines = ["auto-tuned (repro.tune planner) vs the static grid", ""]
    lines.append(
        f"{'link':>18s} {'auto spec':>26s} {'auto':>7s} "
        f"{'best static':>26s} {'best':>7s} {'ratio':>6s}"
    )
    metrics = {}
    for name, spec, auto, best_name, best, _grid in rows:
        ratio = auto / best
        lines.append(
            f"{name:>18s} {spec:>26s} {auto:>7.2f} "
            f"{best_name:>26s} {best:>7.2f} {ratio:>6.3f}"
        )
        key = name.replace("-", "_")
        metrics[f"{key}_auto_mbps"] = round(auto, 3)
        metrics[f"{key}_best_static_mbps"] = round(best, 3)
        metrics[f"{key}_ratio"] = round(ratio, 4)
        metrics[f"{key}_auto_spec"] = spec
        metrics[f"{key}_best_static_spec"] = best_name
    report("tune_vs_static", "\n".join(lines))
    bench_json("tune_vs_static", clock="sim", **metrics)

    for name, _spec, auto, _best_name, best, _grid in rows:
        # The acceptance bar: >= 95% of the best static configuration,
        # found without any hand-set knob.
        assert auto >= 0.95 * best, (name, auto, best)
