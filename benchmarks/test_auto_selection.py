"""§8 realized, as a benchmark: probe → select → transfer.

"The following step in our work is to combine these mechanisms with grid
resource management and information systems.  This combination will allow
the automated selection of the proper communication methods for given WAN
settings."

For both of the paper's WAN classes, the path monitor probes the link,
``select_spec`` derives the driver stack, and the resulting throughput is
compared against naive plain TCP and against the best hand-tuned static
configuration from Figures 9/10.
"""

from conftest import once
from paperlinks import AMSTERDAM_RENNES, DELFT_SOPHIA, PAYLOAD_RATIO, build_paper_wan, measure
from repro.core import PathMonitor, select_spec
from repro.core.utilization.spec import StackSpec
from repro.workloads import payload_with_ratio

TOTAL = 8_000_000
MSG = 65536

#: the best static configuration per link, from the Figure 9/10 sweeps
HAND_TUNED = {
    "amsterdam-rennes": StackSpec.parallel(4).with_compression(),
    "delft-sophia": StackSpec.parallel(8),
}


def _probe_and_select(link: dict) -> "StackSpec":
    scenario = build_paper_wan(link, seed=41)
    src = scenario.nodes["src"]
    dst = scenario.nodes["dst"]
    out = {}

    async def initiator():
        await src.start()
        while not dst.relay_client.connected:
            await scenario.sim.timeout(0.05)
        service = await src.open_service_link("dst")
        monitor = PathMonitor(src)
        estimate = await monitor.estimate(service, dst.info)
        await monitor.finish(service)
        out["estimate"] = estimate
        out["spec"] = select_spec(
            estimate,
            compress_rate=link["cpu_rates"]["compress"],
            payload_ratio=PAYLOAD_RATIO,
        )

    async def responder():
        await dst.start()
        _peer, service = await dst.accept_service_link()
        await PathMonitor(dst).serve(service)

    scenario.sim.process(initiator())
    scenario.sim.process(responder())
    scenario.run(until=600)
    return out["spec"]


def _run():
    rows = []
    for link in (AMSTERDAM_RENNES, DELFT_SOPHIA):
        spec = _probe_and_select(link)
        naive = measure(link, StackSpec.tcp(), MSG, TOTAL)
        selected = measure(link, spec, MSG, TOTAL)
        tuned = measure(link, HAND_TUNED[link["name"]], MSG, TOTAL)
        rows.append((link["name"], str(spec), naive, selected, tuned))
    return rows


def test_automated_selection(benchmark, report):
    rows = once(benchmark, _run)

    lines = ["§8 — automated selection of communication methods", ""]
    lines.append(
        f"{'link':>18s} {'selected spec':>24s} {'naive':>7s} "
        f"{'selected':>9s} {'hand-tuned':>11s}"
    )
    for name, spec, naive, selected, tuned in rows:
        lines.append(
            f"{name:>18s} {spec:>24s} {naive:>7.2f} {selected:>9.2f} {tuned:>11.2f}"
        )
    report("auto_selection", "\n".join(lines))

    for name, spec, naive, selected, tuned in rows:
        # The automated choice beats naive TCP decisively...
        assert selected > 1.8 * naive, name
        # ...and lands within 25% of the best hand-tuned configuration.
        assert selected > 0.75 * tuned, name
    # The choices adapt to the link class: compression on the slow CPU-rich
    # path; parallel streams on the fat path.
    slow_spec = rows[0][1]
    fast_spec = rows[1][1]
    assert "compress" in slow_spec
    assert "parallel" in fast_spec
