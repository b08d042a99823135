"""Golden-trace capture and the live validation gate.

Three canonical live flows — a proxied TLS **handshake** with a framed
echo, a session **resume** across a mid-transfer connection kill, and a
**mux_open** establishing a multiplexed endpoint and opening channels —
are each run under scoped observability, assembled into a causal trace
forest, and boiled down to a structural signature
(:mod:`repro.obs.tracediff`).  ``capture`` freezes those signatures as
goldens under ``goldens/live/``; ``validate`` re-runs the flows and
fails (non-zero exit) on any structural divergence; ``soak`` validates
across several seeds to shake out schedule-dependent flakiness.

The point of the gate: a refactor of the session, mux or TLS layers that
silently drops a resume span, loses event polarity, or orphans trace
records changes the signature even though the bytes still arrive — and
the diff names the exact path that moved.

Refreshing goldens after an *intentional* behaviour change::

    python -m repro.chaos.live capture
    git diff goldens/live/   # review what moved, then commit
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Optional

from .. import obs
from ..obs import (
    MetricsRegistry,
    TraceContext,
    TraceRecorder,
    seed_ids,
)
from ..obs.assemble import assemble
from ..obs.tracediff import SIGNATURE_VERSION, diff, signature
from ..security import CertificateAuthority, Identity

__all__ = [
    "GOLDEN_DIR",
    "GOLDEN_SEED",
    "GoldenError",
    "RESUME_PLAN",
    "capture",
    "capture_flow",
    "flow_names",
    "golden_path",
    "main",
    "soak",
    "validate",
]

#: checked-in goldens live next to the source tree, not inside it
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "goldens" / "live"

#: default seed for captures; validation may use any seed — the whole
#: point of the signature is seed- and schedule-independence
GOLDEN_SEED = 7

#: the canonical resume stimulus: kill the gateway's connections while
#: stage0 is mid-flight, forcing exactly one initiator-side resume
RESUME_PLAN = "conn_kill@0.3:site=B"


class GoldenError(Exception):
    """A golden flow failed to run (distinct from a signature mismatch)."""


# -- flow: handshake -------------------------------------------------------

async def _handshake_flow(seed: int) -> None:
    """TLS handshake + framed echo through the chaos proxy (no faults)."""
    from ..core.utilization import BlockChannel, TcpBlockDriver, TlsDriver
    from ..livenet import ChaosTcpProxy, live_connect, live_listen

    ca = CertificateAuthority("golden-root")
    key, cert = ca.issue_identity("golden-server")
    identity = Identity(key, [cert])
    listener = await live_listen()
    proxy = await ChaosTcpProxy(
        listener.addr, name="golden-gw", seed=seed
    ).start()
    ctx = TraceContext.new()
    done = asyncio.Event()

    async def server() -> None:
        sock = await listener.accept()
        try:
            drv = TlsDriver(TcpBlockDriver(sock))
            await drv.handshake_server(identity)
            channel = BlockChannel(drv)
            message = await channel.recv_message()
            await channel.send_message(message, ctx=channel.last_ctx)
            await done.wait()
        finally:
            sock.close()

    async def client() -> None:
        sock = await live_connect(proxy.addr)
        try:
            drv = TlsDriver(TcpBlockDriver(sock))
            t0 = time.time()
            await drv.handshake_client(
                [ca.certificate], expected_server="golden-server"
            )
            channel = BlockChannel(drv)
            await channel.send_message(b"golden handshake probe", ctx=ctx)
            echo = await channel.recv_message()
            if echo != b"golden handshake probe":
                raise GoldenError("handshake flow: echo mismatch")
            obs.record_span(
                "golden.handshake", t0, time.time(), ctx=ctx,
                node="client", backend="live", outcome="ok",
                peer=drv.peer_subject,
            )
        finally:
            done.set()
            sock.close()

    server_task = asyncio.ensure_future(server())
    try:
        await asyncio.wait_for(client(), timeout=15.0)
        await asyncio.wait_for(server_task, timeout=5.0)
    finally:
        server_task.cancel()
        proxy.close()
        listener.close()


# -- flow: mux_open --------------------------------------------------------

async def _mux_open_flow(seed: int) -> None:
    """Mux establish + two channel opens with echoes, through the proxy."""
    from ..livenet import ChaosTcpProxy, live_connect, live_listen
    from ..livenet.mux import AsyncMuxEndpoint

    listener = await live_listen()
    proxy = await ChaosTcpProxy(
        listener.addr, name="golden-gw", seed=seed
    ).start()
    ctx = TraceContext.new()
    endpoints = []

    async def server() -> None:
        sock = await listener.accept()
        endpoint = await AsyncMuxEndpoint.establish(
            sock, AsyncMuxEndpoint.RESPONDER, node="responder"
        )
        endpoints.append(endpoint)
        for _ in range(2):
            channel = await endpoint.accept_channel()
            data = await channel.recv_exactly(12)
            await channel.send_all(data)

    async def client() -> None:
        sock = await live_connect(proxy.addr)
        t0 = time.time()
        endpoint = await AsyncMuxEndpoint.establish(
            sock, AsyncMuxEndpoint.INITIATOR, node="initiator", ctx=ctx
        )
        endpoints.append(endpoint)
        for i in range(2):
            channel = await endpoint.open_channel(
                tag=f"golden-{i}".encode(), ctx=ctx
            )
            await channel.send_all(b"golden probe")
            echo = await channel.recv_exactly(12)
            if echo != b"golden probe":
                raise GoldenError("mux_open flow: echo mismatch")
        obs.record_span(
            "golden.mux_open", t0, time.time(), ctx=ctx,
            node="initiator", backend="live", outcome="ok",
        )

    server_task = asyncio.ensure_future(server())
    try:
        await asyncio.wait_for(client(), timeout=15.0)
        await asyncio.wait_for(server_task, timeout=5.0)
    finally:
        server_task.cancel()
        for endpoint in endpoints:
            endpoint.close()
        proxy.close()
        listener.close()


def _capture_scoped(flow, seed: int) -> dict:
    """Run an async flow under scoped obs; return its assembled forest."""
    registry = MetricsRegistry()
    recorder = TraceRecorder()
    prev_registry = obs.set_registry(registry)
    prev_recorder = obs.set_tracer(recorder)
    seed_ids(seed)
    try:
        asyncio.run(flow(seed))
    finally:
        obs.set_registry(prev_registry)
        obs.set_tracer(prev_recorder)
    return assemble(list(recorder.records))


# -- flow: resume ----------------------------------------------------------

def _capture_resume(seed: int, plan: Optional[str] = None) -> dict:
    """Session transfer through a connection kill, via the chaos runner.

    ``plan`` overrides the fault plan — the gate's own self-test runs
    the flow with an empty plan (no kill, so no resume span) and checks
    that the signature diff catches the missing ``session.resume``.
    """
    from .runner import run_chaos

    with tempfile.TemporaryDirectory(prefix="golden-resume-") as tmp:
        trace_path = os.path.join(tmp, "trace.jsonl")
        report = run_chaos(
            scenario="wan_transfer",
            seed=seed,
            plan=RESUME_PLAN if plan is None else plan,
            sessions=True,
            until=30.0,
            backend="live",
            trace_path=trace_path,
        )
        if not report.ok:
            raise GoldenError(
                f"resume flow run failed: {report.violations}"
            )
        with open(trace_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    return assemble(records)


_FLOWS = {
    "handshake": lambda seed, plan=None: _capture_scoped(
        _handshake_flow, seed
    ),
    "resume": _capture_resume,
    "mux_open": lambda seed, plan=None: _capture_scoped(
        _mux_open_flow, seed
    ),
}


def flow_names() -> list:
    return sorted(_FLOWS)


def capture_flow(name: str, seed: int = GOLDEN_SEED,
                 plan: Optional[str] = None) -> dict:
    """Run one golden flow and return its structural signature."""
    if name not in _FLOWS:
        raise GoldenError(
            f"unknown golden flow {name!r} (have: {', '.join(flow_names())})"
        )
    return signature(_FLOWS[name](seed, plan=plan))


def golden_path(name: str, root: Optional[Path] = None) -> Path:
    return (root or GOLDEN_DIR) / f"{name}.json"


# -- capture / validate / soak --------------------------------------------

def capture(names=None, seed: int = GOLDEN_SEED,
            root: Optional[Path] = None) -> list:
    """Capture goldens for the given flows; returns the paths written."""
    root = root or GOLDEN_DIR
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for name in names or flow_names():
        sig = capture_flow(name, seed)
        path = golden_path(name, root)
        payload = {
            "flow": name,
            "seed": seed,
            "version": SIGNATURE_VERSION,
            "signature": sig,
        }
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        written.append(path)
    return written


def validate(names=None, seed: int = GOLDEN_SEED,
             root: Optional[Path] = None,
             plan: Optional[str] = None) -> dict:
    """Re-run flows and diff against goldens.

    Returns ``{flow: [divergence lines]}`` — every value empty means the
    gate passes.  A missing golden file is itself a failure (the gate
    must never silently pass because nothing was checked).
    """
    root = root or GOLDEN_DIR
    results: dict = {}
    for name in names or flow_names():
        path = golden_path(name, root)
        if not path.exists():
            results[name] = [
                f"golden missing: {path} (run `python -m repro.chaos.live "
                f"capture` and commit the result)"
            ]
            continue
        golden = json.loads(path.read_text(encoding="utf-8"))["signature"]
        try:
            observed = capture_flow(name, seed, plan=plan)
        except GoldenError as exc:
            results[name] = [f"flow failed to run: {exc}"]
            continue
        results[name] = diff(golden, observed)
    return results


def soak(seeds, names=None, root: Optional[Path] = None) -> dict:
    """Validate every flow across several seeds; returns failures only."""
    failures: dict = {}
    for seed in seeds:
        results = validate(names, seed=seed, root=root)
        for name, lines in results.items():
            if lines:
                failures[f"{name}@seed={seed}"] = lines
    return failures


# -- CLI -------------------------------------------------------------------

def _report(results: dict) -> int:
    status = 0
    for name in sorted(results):
        lines = results[name]
        if lines:
            status = 1
            print(f"FAIL {name}: {len(lines)} divergence(s)")
            for line in lines:
                print(f"  {line}")
        else:
            print(f"ok   {name}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.live",
        description="Golden-trace gate for the live chaos backend.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p):
        p.add_argument(
            "--flow", action="append", choices=flow_names(), default=None,
            help="restrict to one flow (repeatable; default: all)",
        )
        p.add_argument(
            "--dir", type=Path, default=None,
            help=f"golden directory (default: {GOLDEN_DIR})",
        )

    p_cap = sub.add_parser("capture", help="(re)record golden signatures")
    _common(p_cap)
    p_cap.add_argument("--seed", type=int, default=GOLDEN_SEED)

    p_val = sub.add_parser("validate", help="diff live runs against goldens")
    _common(p_val)
    p_val.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p_val.add_argument(
        "--plan", default=None,
        help="override the resume flow's fault plan (self-test knob: "
        "an empty plan drops the resume and must trip the gate)",
    )

    p_soak = sub.add_parser(
        "soak", help="validate across several seeds"
    )
    _common(p_soak)
    p_soak.add_argument(
        "--seeds", default="1,2,3",
        help="comma-separated seed list (default: 1,2,3)",
    )

    args = parser.parse_args(argv)
    if args.command == "capture":
        for path in capture(args.flow, seed=args.seed, root=args.dir):
            print(f"wrote {path}")
        return 0
    if args.command == "validate":
        return _report(
            validate(args.flow, seed=args.seed, root=args.dir,
                     plan=args.plan)
        )
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    failures = soak(seeds, args.flow, root=args.dir)
    if not failures:
        print(f"soak ok: {len(seeds)} seed(s), "
              f"{len(args.flow or flow_names())} flow(s)")
        return 0
    return _report(failures)
