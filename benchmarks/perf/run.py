#!/usr/bin/env python3
"""Wall-clock perf ledger: one command, six workloads, verified outputs.

    python3 benchmarks/perf/run.py                 # the whole ledger, both passes
    python3 benchmarks/perf/run.py --quick         # same schema in < 25 s
    python3 benchmarks/perf/run.py --selftest      # failure counters have the right polarity
    python3 benchmarks/perf/run.py --workload bulk_plain --seed 1 --seconds 15 --trace 0

With ``--workload`` one process runs one workload and prints, as its last
line, one JSON object: the end-to-end metrics (``--trace 0``, no shim
anywhere) or the per-layer metrics (``--trace 1``).  Without it, every
workload runs in a process of its own, untraced then traced, and the
ledger prints every metric by name with its unit and clock domain.
Exit status is non-zero when any output failed verification.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
# the program under test and the paper-link models it is driven with
for path in (REPO / "benchmarks", REPO / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402  (stdlib only: it times the imports that follow)
import metrics  # noqa: E402
from harness import Estimate, HostSpeed, Sample  # noqa: E402

OUT_DIR = HERE / "out"
#: fixture builds per run; ``setup_s`` takes their median
SETUP_REPEATS = 5
TRACE_PHASE_S = 1.5


def timed_imports(host: HostSpeed) -> Sample:
    """Import the program and the workload modules; seconds it took."""
    start = time.perf_counter()
    import layers  # noqa: F401  (pulls in live, sim, stacks, shims, repro.*)
    import sim  # noqa: F401

    end = time.perf_counter()
    return host.sample(end - start, start, end)


def _host_facts(host: HostSpeed, rounds: list, primary: Estimate) -> dict:
    """Diagnostics that explain an unresolved comparison."""
    slowdowns = [s.slowdown for s in rounds]
    return {
        "bench.host_speed_ms.min": min(host.probes_ms),
        "bench.host_speed_ms.median": statistics.median(host.probes_ms),
        "bench.host_speed_ms.max": max(host.probes_ms),
        "bench.rounds_slow": sum(1 for v in slowdowns if v > 1.10 * min(slowdowns)),
        "bench.round_iqr_share": primary.iqr_share,
    }


def _print_rounds(rounds: list, *estimates) -> None:
    for label, estimate in estimates:
        print(f"  {label:13s} {estimate.describe()}")
    print("  host slowdown per round:",
          " ".join(f"{s.slowdown:.2f}" for s in rounds))
    print("#host", json.dumps({"fastest_round": min(s.slowdown for s in rounds)}))


# -- live workloads -----------------------------------------------------------


async def _live_fixture(spec, seed: int, wrap, host: HostSpeed) -> tuple:
    """Build the workload's fixture ``SETUP_REPEATS`` times; keep the last."""
    import live
    import stacks

    samples = []
    fx = None
    for _ in range(SETUP_REPEATS):
        if fx is not None:
            fx.close()
        start = time.perf_counter()
        messages = live.make_payloads(spec.message_size, seed)
        fx = await stacks.Fixture.build(spec.rung, wrap)
        end = time.perf_counter()
        samples.append(host.sample(end - start, start, end))
    return fx, messages, samples


async def _live_pass(
    spec, seed, wrap, seconds, tally, host, warm_up, phase_s=None, on_traffic=None
) -> tuple:
    """Fixture, an optional untimed round, then the timed rounds."""
    import live

    fx, messages, setup = await _live_fixture(spec, seed, wrap, host)
    try:
        if warm_up:  # first-use costs, allocator growth
            await live.run_rounds(
                spec, fx, wrap, messages, 0, tally, host, phase_s=0.3
            )
        result = await live.run_rounds(
            spec, fx, wrap, messages, seconds, tally, host,
            phase_s=phase_s, on_traffic=on_traffic,
        )
    finally:
        fx.close()
    return result, setup


def _live_estimates(spec, result) -> tuple:
    samples = {
        "rtt": result.rtt_p50_ms,
        "message": result.message_ms,
        "connect": result.connect_ms,
    }[spec.operation]
    return (
        Estimate.of(result.goodput_mbps, "higher"),
        Estimate.of(samples, "lower"),
    )


def _live_spec(name: str, args):
    import live

    spec = live.LIVE[name]
    return spec._replace(connects=min(2, spec.connects), phase_s=0.2) if args.quick else spec


def live_end_to_end(name: str, args, tally, host, imports: Sample) -> dict:
    from shims import NoShims

    spec = _live_spec(name, args)
    result, setup = asyncio.run(_live_pass(
        spec, args.seed, NoShims, 0 if args.quick else args.seconds, tally, host,
        warm_up=not args.quick,
    ))
    goodput, latency = _live_estimates(spec, result)
    _print_rounds(result.goodput_mbps,
                  ("goodput_MBps", goodput), ("latency_ms", latency))
    return {
        "goodput_MBps": goodput.value,
        "latency_ms": latency.value,
        "setup_s": imports.at_reference("lower") + Estimate.of(setup, "lower").value,
        "peak_rss_MB": harness.peak_rss_mb(),
    }


def live_per_layer(name: str, args, tally, host) -> dict:
    from shims import BENCH_LAYER, LOOP_LAYER, NoShims, Tracer

    spec = _live_spec(name, args)
    # untraced rounds in a loop of their own: no shim, no step wrapper
    plain, _setup = asyncio.run(_live_pass(
        spec, args.seed, NoShims, 0 if args.quick else 3.0, tally, host,
        warm_up=False,
    ))
    tracer = Tracer()
    loop = asyncio.new_event_loop()
    try:
        tracer.install(loop)
        traced, _setup = loop.run_until_complete(_live_pass(
            spec, args.seed, tracer, 0, tally, host, warm_up=not args.quick,
            phase_s=0.2 if args.quick else TRACE_PHASE_S, on_traffic=tracer,
        ))
    finally:
        loop.close()
    write_trace(name, tracer)

    window = traced.goodput_mbps[-1]
    payload_bytes = window.value * 1e6 * tracer.window_ns / 1e9
    size = spec.message_size * (2 if spec.traffic == "rpc" else 1)
    messages = payload_bytes / size
    out = {}
    shares = tracer.shares()
    for layer in metrics.LIVE_LAYERS + [BENCH_LAYER, LOOP_LAYER]:
        out[f"{layer}.self_share"] = shares.pop(layer, 0.0)
    # tasks asyncio or the runner start for themselves
    out[f"{BENCH_LAYER}.self_share"] += sum(shares.values())
    for layer in metrics.LIVE_LAYERS:
        cpu_ns = tracer.cpu_ns.get(layer, 0) / window.slowdown
        totals = tracer.totals[layer]
        out[f"{layer}.self_ns_per_byte"] = cpu_ns / payload_bytes
        out[f"{layer}.self_us_per_msg"] = cpu_ns / 1e3 / messages
        out[f"{layer}.calls"] = totals.calls
        out[f"{layer}.bytes_in"] = totals.bytes_in
        out[f"{layer}.bytes_out"] = totals.bytes_out
    for layer in metrics.PUMP_LAYERS:
        out[f"{layer}.pump_calls"] = tracer.totals[layer].pump_calls

    goodput, _latency = _live_estimates(spec, plain)
    out["bench.trace_overhead_pct"] = 100 * (
        1 - window.at_reference("higher") / goodput.value
    )
    if plain.rtts_ns:
        p99 = statistics.quantiles(plain.rtts_ns, n=100)[98] / 1e3
        out["bench.rtt_p99_us"] = p99 / statistics.median(
            s.slowdown for s in plain.rtt_p50_ms
        )
    out.update(_host_facts(host, plain.goodput_mbps, goodput))
    print(f"  traced window {tracer.window_ns / 1e6:.0f} ms, "
          f"{len(tracer.spans)} spans kept, {tracer.dropped} dropped")
    for layer, share in sorted(tracer.shares().items(), key=lambda kv: -kv[1]):
        print(f"    {layer:28s} self_share {share:.3f}")
    return out


def write_trace(name: str, tracer) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{name}.json", "w") as handle:
        json.dump(
            {
                "workload": name,
                "window_ns": tracer.window_ns,
                "dropped": tracer.dropped,
                "cpu_ns": dict(tracer.cpu_ns),
                "spans": [span.record() for span in tracer.spans],
            },
            handle,
        )


# -- simulator workloads ------------------------------------------------------


def _sim_steps(name: str, args) -> list:
    import sim

    if name == "sim_packet":
        return sim.packet_steps(args.seed, args.quick)
    return sim.fleet_steps(args.seed, args.quick)


def _sim_set_seconds(rounds: list) -> Estimate:
    """Seconds per scenario set: each call scaled by its own host speed."""
    return Estimate(
        [sum(s.at_reference("lower") for s in r.samples.values()) for r in rounds],
        [sum(s.value for s in r.samples.values()) for r in rounds],
        "lower",
    )


def _check_figs(name: str, rounds: list, tally) -> None:
    import sim

    if name == "sim_packet":
        facts = {n: o.facts for n, o in rounds[0].outcomes.items()}
        for failure in sim.check_fig_bands(facts):
            tally.fail(failure)


def sim_end_to_end(name: str, args, tally, host, imports: Sample) -> dict:
    import sim

    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        steps = _sim_steps(name, args)
        end = time.perf_counter()
        setup.append(host.sample(end - start, start, end))
    count = 1 if args.quick else max(1, int(args.seconds / sim.ROUND_S[name]))
    rounds = sim.run_rounds(steps, count, tally, host)
    _check_figs(name, rounds, tally)
    seconds = _sim_set_seconds(rounds)
    payload = sum(o.payload_bytes for o in rounds[0].outcomes.values())
    latency = seconds.converted(lambda s: 1e3 * s, "lower")
    goodput = seconds.converted(lambda s: payload / s / 1e6, "higher")
    slowest_step = [
        max(r.samples.values(), key=lambda s: s.value) for r in rounds
    ]
    _print_rounds(slowest_step,
                  ("goodput_MBps", goodput), ("latency_ms", latency))
    return {
        "goodput_MBps": goodput.value,
        "latency_ms": latency.value,
        "setup_s": imports.at_reference("lower") + Estimate.of(setup, "lower").value,
        "peak_rss_MB": harness.peak_rss_mb(),
    }


def sim_per_layer(name: str, args, tally, host) -> dict:
    import sim
    from shims import Tracer

    tracer = Tracer()
    steps = _sim_steps(name, args)
    if name == "sim_packet":
        steps.append(sim.session_off_step(args.seed))
    tracer.start()
    rounds = sim.run_rounds(steps, 1, tally, host, span=tracer.span)
    tracer.stop()
    write_trace(name, tracer)
    _check_figs(name, rounds, tally)
    walls = {n: s.at_reference("lower") for n, s in rounds[0].samples.items()}
    facts = {n: o.facts for n, o in rounds[0].outcomes.items()}
    out = {}
    if name == "sim_packet":
        figs = [n for n in walls if n.startswith("fig")]
        fig_wall = sum(walls[n] for n in figs)
        packets = sum(facts[n]["packets"] for n in figs)
        out["simnet.tcp.fig_wall_s"] = fig_wall
        out["simnet.link.packets"] = packets
        out["simnet.link.packets_per_wall_s"] = packets / fig_wall
        out["simnet.engine.sim_s_per_wall_s"] = (
            sum(facts[n]["sim_seconds"] for n in figs) / fig_wall
        )
        for n in figs:
            out[f"sim.{n}.MBps_sim"] = facts[n]["MBps_sim"]
        out["core.session.scenario_wall_s"] = (
            walls["wan_transfer"] - walls["wan_transfer.plain"]
        )
        out["core.session.replayed_bytes"] = facts["wan_transfer"][
            "session_replayed_bytes"
        ]
        out["core.relay.scenario_wall_s"] = walls["wan_transfer_routed"]
        out["core.relay.forwarded_bytes"] = facts["wan_transfer_routed"][
            "relay_forwarded_bytes"
        ]
        for scenario, layer in (
            ("mux_fanin", "mux.endpoint"), ("ipl_fanin", "ipl.runtime"),
        ):
            if scenario in walls:  # --quick leaves them out
                out[f"{layer}.scenario_wall_s"] = walls[scenario]
    else:
        fleet = facts["fleet_fanin"]
        out["simnet.flow.scenario_wall_s"] = walls["fleet_fanin"]
        out["simnet.flow.rate_resolves"] = fleet["rate_resolves"]
        out["simnet.flow.flows_per_wall_s"] = (
            fleet["flows_completed"] / walls["fleet_fanin"]
        )
        out["chaos.fleet.endpoints"] = fleet["endpoints"]
    out.update(_host_facts(
        host, list(rounds[0].samples.values()), _sim_set_seconds(rounds)
    ))
    return out


# -- one workload, one process ------------------------------------------------


def run_workload(args, host: HostSpeed) -> int:
    imports = timed_imports(host)
    import layers
    import live
    from repro import obs

    if obs.tracer() is not None:
        raise RuntimeError("an obs exporter is installed; the numbers would carry it")
    name = args.workload
    tally = live.Tally()
    is_live = name in live.LIVE
    print(f"{name}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    if args.trace:
        declared = metrics.PER_LAYER
        values = dict.fromkeys((m.name for m in declared), 0.0)
        measured = (live_per_layer if is_live else sim_per_layer)(
            name, args, tally, host
        )
        measured.update(layers.direct_calls(args.seed, host, args.quick))
        measured.update(layers.waterfall(args.seed, tally, host, args.quick))
        measured["bench.failed_ops_share"] = tally.failed / max(tally.attempted, 1)
        undeclared = set(measured) - set(values)
        if undeclared:
            raise RuntimeError(f"undeclared per-layer metrics: {sorted(undeclared)}")
        values.update(measured)
    else:
        declared = metrics.END_TO_END
        values = (live_end_to_end if is_live else sim_end_to_end)(
            name, args, tally, host, imports
        )
    for metric in declared:
        print(f"  {metric.name:40s} {values[metric.name]:>16.6g} "
              f"{metric.unit:6s} {metric.clock}")
    for error in tally.errors:
        print(f"  FAILED: {error}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in declared
        },
    }))
    return 0 if tally.failed == 0 else 1


# -- the ledger: every workload, both passes ----------------------------------


def _child(args, name: str, trace: int) -> tuple:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        if not line.startswith("#"):
            print("   ", line)
    if done.returncode != 0 and not lines:
        print(done.stderr, file=sys.stderr)
        raise RuntimeError(f"{name} (trace={trace}) exited {done.returncode}")
    host = [json.loads(l[6:]) for l in lines if l.startswith("#host ")]
    return json.loads(lines[-1]), host[0] if host else {}


def run_ledger(args) -> int:
    started = time.perf_counter()
    results, hosts, ok = {}, {}, True
    for name in metrics.WORKLOADS:
        for trace in (0, 1):
            result, host = _child(args, name, trace)
            results[name, trace] = result
            ok = ok and result["correct"]
            if trace == 0:
                hosts[name] = host
    fastest = min(h["fastest_round"] for h in hosts.values())
    print(f"\n== end to end (seed {args.seed}; wall values at reference host speed) ==")
    for metric in metrics.END_TO_END:
        print(f"# {metric.name}: {metric.meaning}")
    for name in metrics.WORKLOADS:
        result = results[name, 0]
        # never saw the host at the speed other workloads did: the scaling
        # carried these numbers further than it carried theirs
        slow = hosts[name]["fastest_round"] > 1.10 * fastest
        print(f"{name}: attempted={result['attempted']} failed={result['failed']} "
              f"failed_ops_share={result['failed'] / result['attempted']:.6f}"
              + ("  host_slow: true" if slow else ""))
        for metric in metrics.END_TO_END:
            value = result["metrics"][metric.name]["value"]
            note = (f"  [{metrics.OPERATION[name]}]"
                    if metric.name == "latency_ms" else "")
            print(f"  {metric.name:14s} {value:>14.6g} {metric.unit:5s} "
                  f"{metric.clock:5s}{note}")
    print("\n== per layer (traced pass; 0 = the layer is not in that workload) ==")
    print(f"{'metric':42s} {'unit':6s} {'clock':5s} "
          + " ".join(f"{n:>12s}" for n in metrics.WORKLOADS))
    for metric in metrics.PER_LAYER:
        row = [results[n, 1]["metrics"][metric.name]["value"] for n in metrics.WORKLOADS]
        print(f"{metric.name:42s} {metric.unit:6s} {metric.clock:5s} "
              + " ".join(f"{v:>12.5g}" for v in row))
    print(f"\nledger {'OK' if ok else 'FAILED'} in {time.perf_counter() - started:.0f} s")
    return 0 if ok else 1


# -- selftest: the failure counters must have the right polarity --------------


def run_selftest(host: HostSpeed) -> int:
    timed_imports(host)
    import live
    import stacks
    from shims import FlipLink, NoShims

    class Flipping(NoShims):
        """Flips one byte, in flight, under ``tcp_block``."""

        @staticmethod
        def link(inner):
            return FlipLink(inner, nth=3)

    class Leaking(NoShims):
        """Starts a task during establishment that nothing ever ends."""

        @staticmethod
        def channel(inner):
            asyncio.ensure_future(asyncio.sleep(3600))
            return inner

    async def one_round(name: str, wrap) -> live.Tally:
        spec = live.LIVE[name]._replace(connects=1)
        tally = live.Tally()
        fx = await stacks.Fixture.build(spec.rung, wrap)
        try:
            messages = live.make_payloads(spec.message_size, 1)
            await live.run_rounds(
                spec, fx, wrap, messages, 0, tally, host, phase_s=0.3
            )
        finally:
            fx.close()
        return tally

    checks = []

    def check(what: str, tally: live.Tally, needle: str) -> None:
        hit = tally.failed > 0 and any(needle in e for e in tally.errors)
        checks.append(hit)
        print(f"{'ok  ' if hit else 'FAIL'} {what}: failed={tally.failed} "
              f"of {tally.attempted}; {tally.errors[:1]}")

    clean = asyncio.run(one_round("bulk_plain", NoShims))
    checks.append(clean.failed == 0)
    print(f"{'ok  ' if clean.failed == 0 else 'FAIL'} clean bulk_plain round: "
          f"failed={clean.failed} of {clean.attempted}")
    check("bulk_plain, one byte flipped in flight is counted",
          asyncio.run(one_round("bulk_plain", Flipping)), "differs")
    check("bulk_secure, one byte flipped in flight fails record authentication",
          asyncio.run(one_round("bulk_secure", Flipping)),
          "record authentication failed")
    check("a round that leaks an asyncio task fails",
          asyncio.run(one_round("bulk_plain", Leaking)), "leaked a task")
    return 0 if all(checks) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one short round per workload: the schema, not the numbers")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        manifest = json.loads((REPO / "BENCHMARK.json").read_text())
        args.seconds = manifest["run_seconds"]
    if args.workload is None and not args.selftest:
        return run_ledger(args)
    with HostSpeed() as host:
        return run_selftest(host) if args.selftest else run_workload(args, host)


if __name__ == "__main__":
    sys.exit(main())
