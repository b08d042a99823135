#!/usr/bin/env python
"""Fleet-scale flow-tier smoke: 100k endpoints, partition, <60s, <190 MB.

Runs the ``fleet_fanin`` chaos scenario at 100k endpoints on the
flow-level fidelity tier, with a mid-run fleet partition and the session
layer on, and asserts:

* every invariant passed (delivery, resources, exactly-once completion
  per endpoint, session resume accounting, relay byte accounting);
* every flow completed and the session layer resumed a non-trivial
  number of stalled transfers across the partition heal;
* wall-clock stayed under the budget (default 60 s) — the whole point
  of the flow tier;
* the process never held more than ``RSS_BUDGET_MB`` of peak RSS, which
  is what 100k endpoints are allowed: ≈ 108 MB measured, ≈ 190 MB while
  the fleet wrote a mux ledger of three counters per endpoint, 376 MB
  before the flow tier's object diet.

Usage::

    python scripts/smoke_flow.py [--endpoints N] [--budget SECONDS]
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

#: peak RSS a 100k-endpoint run may reach (MB)
RSS_BUDGET_MB = 190.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--endpoints", type=int, default=100_000)
    parser.add_argument("--waves", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--budget", type=float, default=60.0, help="wall-clock limit (s)"
    )
    args = parser.parse_args(argv)

    os.environ["REPRO_FLEET_ENDPOINTS"] = str(args.endpoints)
    os.environ["REPRO_FLEET_WAVES"] = str(args.waves)
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from repro.chaos import run_chaos

    t0 = time.monotonic()
    report = run_chaos(
        scenario="fleet_fanin",
        seed=args.seed,
        plan="link_down@12:site=hub,for=5",
        sessions=True,
        until=600.0,
    )
    wall = time.monotonic() - t0
    # ru_maxrss is KiB on Linux, bytes on macOS
    unit = 1 if sys.platform == "darwin" else 1024
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit / 1e6

    print(report.summary())
    stats = report.stats
    print(
        f"  endpoints={stats['endpoints']} "
        f"flows_completed={stats['flows_completed']} "
        f"bytes={stats['relay_forwarded_bytes']} "
        f"resumes={stats['reconnects']} "
        f"rate_resolves={stats['rate_resolves']} "
        f"sim={stats['sim_seconds']:.0f}s wall={wall:.1f}s "
        f"ru_maxrss={rss:.0f}MB"
    )

    failures = []
    if not report.ok:
        failures.append(f"invariants violated: {report.violations[:5]}")
    if stats["flows_completed"] != args.endpoints:
        failures.append(
            f"{stats['flows_completed']}/{args.endpoints} flows completed"
        )
    if stats["reconnects"] <= 0:
        failures.append("partition exercised no session resumes")
    if wall > args.budget:
        failures.append(f"wall-clock {wall:.1f}s exceeds {args.budget}s budget")
    if rss > RSS_BUDGET_MB:
        failures.append(f"peak RSS {rss:.0f}MB exceeds {RSS_BUDGET_MB}MB budget")

    for failure in failures:
        print(f"SMOKE FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"smoke-flow OK: {args.endpoints} endpoints in {wall:.1f}s, "
            f"{rss:.0f}MB peak"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
