"""Run chaos scenarios from the command line.

Examples::

    python -m repro.chaos --seed 1 \
        --plan "relay_crash@2:for=8;link_down@12:site=A,for=0.4"
    python -m repro.chaos --seeds 1-20 --plan "relay_crash@2:for=8"

Exits non-zero if any run violates an invariant, printing the
``(scenario, seed, plan)`` triple needed to replay it.
"""

from __future__ import annotations

import argparse
import sys

from .faults import FaultPlanError
from .registry import scenario_names
from .runner import run_chaos


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--scenario", default="wan_transfer", choices=scenario_names(),
    )
    parser.add_argument(
        "--backend", choices=("sim", "live"), default="sim",
        help="run in the deterministic simulator (default) or on real "
        "loopback sockets with wall-clock fault scheduling",
    )
    parser.add_argument(
        "--seed", "--seeds", dest="seeds", default="1",
        help="seed, comma list, or inclusive range: 7 | 1,2,5 | 1-20",
    )
    parser.add_argument(
        "--plan", default="",
        help='fault plan, e.g. "relay_crash@2:for=8;link_down@12:site=A,for=0.4"',
    )
    parser.add_argument(
        "--no-retries", action="store_true",
        help="disable the retry/backoff layer (expect failures under faults)",
    )
    parser.add_argument(
        "--sessions", action="store_true",
        help="wrap data channels in survivable sessions "
        "(mid-stream faults are recovered by reconnect + replay)",
    )
    parser.add_argument(
        "--until", type=float, default=900.0, help="simulated-seconds budget"
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="export obs trace JSONL (single-seed runs only)",
    )
    parser.add_argument(
        "--export-dir", metavar="DIR",
        help="write per-node JSONL exports (+ run.jsonl) for "
        "`python -m repro.obs.assemble` (single-seed runs only)",
    )
    parser.add_argument(
        "--telemetry", metavar="PATH",
        help="write the run's streaming-telemetry capture as JSONL "
        "(scenarios with the telemetry plane enabled; tail it with "
        "`python -m repro.obs.watch`) (single-seed runs only)",
    )
    parser.add_argument(
        "--bundle", metavar="DIR",
        help="on invariant failure, dump a postmortem bundle "
        "(plan, report, per-node flight recorders, assembled trace) here",
    )
    parser.add_argument("--json", action="store_true", help="print full reports")
    args = parser.parse_args(argv)

    seeds = _parse_seeds(args.seeds)
    trace_path = args.trace if len(seeds) == 1 else None
    export_dir = args.export_dir if len(seeds) == 1 else None
    telemetry_path = args.telemetry if len(seeds) == 1 else None
    failures = 0
    for seed in seeds:
        try:
            report = run_chaos(
                scenario=args.scenario,
                seed=seed,
                plan=args.plan,
                retries=not args.no_retries,
                sessions=args.sessions,
                until=args.until,
                backend=args.backend,
                trace_path=trace_path,
                export_dir=export_dir,
                bundle_dir=args.bundle,
                telemetry_path=telemetry_path,
            )
        except FaultPlanError as exc:  # refused the same way for every seed
            parser.error(f"--plan: {exc}")
        print(report.summary())
        if args.json:
            print(report.to_json())
        if not report.ok:
            failures += 1
            print(f"  replay: {report.triple()!r}", file=sys.stderr)
    print(f"{len(seeds) - failures}/{len(seeds)} chaos runs passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
