"""End-to-end reproducibility: identical runs produce identical results.

EXPERIMENTS.md promises bit-for-bit reproducibility; these tests hold the
whole stack to it — same seeds, same event ordering, same numbers.
"""

import gc
import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

from repro.chaos import run_chaos
from repro.core.scenarios import GridScenario
from repro.core.utilization import StackSpec
from repro.simnet.testing import run_transfer, wan_pair
from repro.workloads import payload_with_ratio

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKET_FACTS = ROOT / "goldens" / "sim" / "packet_facts.json"
PINNED_SEEDS = (1, 7)


def _establishment_run(seed):
    sc = GridScenario(seed=seed)
    sc.add_site("A", "open")
    sc.add_site("B", "broken_nat")
    sc.add_node("A", "a")
    sc.add_node("B", "b")
    res = sc.establish_pair("a", "b", until=400)
    return (res["method"], res["delay"], tuple(res["initiator_log"]))


def test_establishment_is_deterministic():
    assert _establishment_run(123) == _establishment_run(123)


def test_different_seeds_may_differ_but_still_succeed():
    a = _establishment_run(1)
    b = _establishment_run(2)
    assert a[0] == b[0] == "socks_proxy"  # outcome stable across seeds


def _throughput_run(seed):
    inet, a, b = wan_pair(capacity=2e6, one_way_delay=0.01, loss=0.01, seed=seed)
    result = run_transfer(inet, a, b, 1_000_000)
    return result["throughput"], result["seconds"]


def test_lossy_transfer_is_deterministic():
    assert _throughput_run(7) == _throughput_run(7)


def test_stacked_transfer_is_deterministic():
    def run():
        sc = GridScenario(seed=99)
        for name in ("x", "y"):
            sc.add_site(name, "firewall", access_bandwidth=2e6, access_delay=0.01)
        sc.add_node("x", "src")
        sc.add_node("y", "dst")
        payload = payload_with_ratio(1 << 18, 3.0, seed=1)
        r = sc.measure_stack_throughput(
            "src", "dst", StackSpec.parallel(2).with_compression(),
            payload, 1_500_000,
        )
        return r["throughput"], r["seconds"], r["received"]

    assert run() == run()


def test_workload_generators_are_deterministic():
    assert payload_with_ratio(65536, 2.5, seed=4) == payload_with_ratio(
        65536, 2.5, seed=4
    )


# -- the packet tier against pinned facts -----------------------------------
#
# The tests above compare a run with itself, so a change that shifts every
# run equally passes them.  These compare with facts recorded once, from
# the calls ``benchmarks/perf/sim.py::packet_steps`` makes (the Fig. 9/10
# transfers cut to two messages per stack to keep a seed under 5 s).
# Floats are pinned as ``repr``: the same simulation means the same bits.
# Regenerate with ``PYTHONPATH=src python tests/test_determinism.py`` --
# only from a commit whose simulation is the reference.

_FIG_MESSAGE = 256 * 1024
_FIG_TOTAL = 2 * _FIG_MESSAGE
_LINK_SEED = 9
_CHAOS_CALLS = {
    "wan_transfer": dict(sessions=True, plan="link_down@3:site=B,for=30"),
    # a bandwidth and a loss retune while packets are queued, then the heals
    "wan_transfer.retune": dict(
        scenario="wan_transfer",
        sessions=True,
        plan="wan_degrade@2:site=B,scale=4,for=5;loss_burst@8:site=B,loss=0.3,for=3",
    ),
    "wan_transfer_routed": {},
    "mux_fanin": {},
    "ipl_fanin": {},
}


def _paperlinks():
    spec = importlib.util.spec_from_file_location(
        "paperlinks", ROOT / "benchmarks" / "paperlinks.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def packet_facts(seed):
    paperlinks = _paperlinks()
    payload = payload_with_ratio(1 << 20, paperlinks.PAYLOAD_RATIO, seed=seed)
    links = {
        "fig9": paperlinks.AMSTERDAM_RENNES,
        "fig10": paperlinks.DELFT_SOPHIA,
    }
    stacks = {
        "tcp": StackSpec.tcp(),
        "parallel4": StackSpec.parallel(4),
        "compress_parallel4": StackSpec.parallel(4).with_compression(),
    }
    facts = {}
    for fig, link in links.items():
        for stack, spec in stacks.items():
            gc.collect()
            scenario = paperlinks.build_paper_wan(link, seed=_LINK_SEED)
            res = scenario.measure_stack_throughput(
                "src", "dst", spec, payload, _FIG_TOTAL,
                message_size=_FIG_MESSAGE,
            )
            facts[f"{fig}.{stack}"] = {
                "received": res["received"],
                "throughput": repr(res["throughput"]),
                "seconds": repr(res["seconds"]),
                "tx_packets": sum(
                    direction.stats.tx_packets
                    for duplex in scenario.backend.links
                    for direction in (duplex.a_to_b, duplex.b_to_a)
                ),
            }
    with tempfile.TemporaryDirectory() as tmp:
        for name, kwargs in _CHAOS_CALLS.items():
            kwargs = dict(kwargs)
            scenario = kwargs.pop("scenario", name)
            trace = pathlib.Path(tmp) / f"{name}.jsonl"
            # an earlier run's abandoned processes, collected during this
            # one, would end their spans in this one's trace
            gc.collect()
            report = run_chaos(
                scenario=scenario, seed=seed, trace_path=str(trace), **kwargs
            )
            records = sorted(trace.read_text().splitlines())
            facts[name] = {
                "ok": report.ok,
                "received": sum(c["received_bytes"] for c in report.channels),
                "stats": dict(report.stats),
                # every metric and span of the run, sim timestamps included
                "trace_sha256": hashlib.sha256(
                    "\n".join(records).encode()
                ).hexdigest(),
            }
    return facts


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_packet_tier_matches_pinned_facts(seed):
    pinned = json.loads(PACKET_FACTS.read_text())[str(seed)]
    facts = packet_facts(seed)
    assert sorted(facts) == sorted(pinned)
    for name in pinned:
        assert facts[name] == pinned[name], name


def test_proxy_restart_is_the_same_run_in_every_process(tmp_path):
    """``SocksServer`` severs its streams in accept order, not in the hash
    order of a set of sockets — which is their address, so it differed
    from process to process (the reports agreed; the traces did not).
    Two fresh interpreters, two hash seeds: one report, one trace."""
    runs = []
    for hashseed in ("1", "2"):
        trace = tmp_path / f"trace-{hashseed}.jsonl"
        out = subprocess.run(
            [sys.executable, "-m", "repro.chaos", "--scenario",
             "socks_transfer", "--sessions", "--seed", "3", "--plan",
             "proxy_restart@2:site=B,for=2", "--json", "--trace", str(trace)],
            env={**os.environ, "PYTHONHASHSEED": hashseed,
                 "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, check=True, timeout=120,
        )
        runs.append((out.stdout, sorted(trace.read_text().splitlines())))
    report = next(json.loads(line) for line in runs[0][0].splitlines()
                  if line.startswith(b"{"))
    assert report["ok"] and report["injected"][0]["streams"] >= 2
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


if __name__ == "__main__":
    PACKET_FACTS.parent.mkdir(parents=True, exist_ok=True)
    PACKET_FACTS.write_text(
        json.dumps(
            {str(seed): packet_facts(seed) for seed in PINNED_SEEDS},
            indent=1, sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {PACKET_FACTS}")
