#!/usr/bin/env python3
"""Is the simulator's behaviour at this tree identical to ``BASE``'s?

Checks ``BASE`` out into a temporary directory and runs the reference
chaos cells (docs/TESTING.md lists them) at both trees, each with
``--seed 3 --json --trace`` and the cell's environment, if it has one.  A
cell is identical when the report on stdout is the same bytes and the
trace is the same set of JSONL records.  Prints ``identical`` per cell, or
the first record only one side has, and exits 1 on any difference.  A
``fleet_fanin`` cell that partitions the hub also fails when its report
counts no reconnect: that partition heals nothing.

``--strip-label KEY`` removes ``KEY`` from every metric's label set and
every event's and span's attrs, on both sides, before comparing: for a
change whose one stated delta is that label.

    python scripts/sim_identical.py HEAD^
    python scripts/sim_identical.py 5582627 --strip-label backend
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Cell(NamedTuple):
    scenario: str
    plan: str
    sessions: bool  # run with --sessions
    env: tuple = ()  # (name, value) pairs set for the run at both trees


CELLS = [
    ("wan_transfer", "link_down@3:site=B,for=30", True),
    ("wan_transfer_routed", "relay_crash@2:for=8", True),
    ("mesh_failover", "relay_kill@2:relay=r1;relay_kill@2.2:relay=r2", True),
    ("relay_chain", "relay_partition@2:relay=r2,peers=r3,for=2", True),
    ("mux_fanin", "", False),
    ("socks_transfer", "proxy_restart@2:site=B,for=2", True),
    ("ipl_fanin", "", False),
    # link retunes mid-flight: a bandwidth step and a loss step while packets
    # are queued, then both heals (Transmitter.retune)
    (
        "wan_transfer",
        "wan_degrade@2:site=B,scale=4,for=5;loss_burst@8:site=B,loss=0.3,for=3",
        True,
    ),
    ("tune_degrade", "wan_degrade@5:site=S,scale=5,for=5", False),
    # the flow-tier cells: at the default 2 000 endpoints the endpoint
    # uplinks bind nearly every solve; at 5 000 in two waves the hub does,
    # as it does at the 100 000 endpoints sim_fleet runs.  Its waves start
    # at t = 1 and 6 and finish before 12: the partition at 3 cuts wave 0's
    # transfers in flight and holds wave 1's back until 8
    ("fleet_fanin", "link_down@12:site=hub,for=5", True),
    (
        "fleet_fanin",
        "link_down@3:site=hub,for=5",
        True,
        (("REPRO_FLEET_ENDPOINTS", "5000"), ("REPRO_FLEET_WAVES", "2")),
    ),
    # faults on single endpoints, not the hub: one access link cut while
    # its wave-0 transfer is in flight, and a loss burst on another that
    # its wave-1 transfer starts under (FlowLink and FlowPipe per endpoint)
    (
        "fleet_fanin",
        "link_down@1.1:site=ep000007,for=2;"
        "loss_burst@5.5:site=ep000211,loss=0.3,for=3",
        True,
    ),
]
CELLS = [Cell(*cell) for cell in CELLS]


def checkout(base: str, into: Path) -> None:
    """``base``'s committed files under ``into`` (the repository itself is
    left untouched: no worktree entry to prune if a run is interrupted)."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", base], capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def run_cell(tree: Path, cell: Cell, trace: Path, strip: list) -> tuple:
    """``(report bytes, sorted trace records)`` of one cell at ``tree``."""
    command = [
        sys.executable, "-m", "repro.chaos", "--scenario", cell.scenario,
        "--seed", "3", "--plan", cell.plan, "--json", "--trace", str(trace),
    ]  # fmt: skip
    if cell.sessions:
        command.append("--sessions")
    done = subprocess.run(
        command,
        cwd=tree,
        env={**os.environ, **dict(cell.env), "PYTHONPATH": str(tree / "src")},
        capture_output=True,
        timeout=600,
    )
    if done.returncode:
        sys.stderr.write(done.stderr.decode())
        raise SystemExit(f"{cell.scenario} exited {done.returncode} at {tree}")
    records = []
    for line in trace.read_text().splitlines():
        record = json.loads(line)
        for key in strip:
            record.get("labels", {}).pop(key, None)
            record.get("attrs", {}).pop(key, None)
        records.append(json.dumps(record, sort_keys=True))
    return done.stdout, sorted(records)


def heals_nothing(cell: Cell, report: bytes) -> bool:
    """Whether ``cell`` partitions the fleet's hub and yet its report
    counts no resumed session: a partition that misses every transfer
    exercises no heal, and the cell would compare nothing of it."""
    if cell.scenario != "fleet_fanin" or "site=hub" not in cell.plan:
        return False
    line = next(line for line in report.splitlines() if line.startswith(b"{"))
    return json.loads(line)["stats"]["reconnects"] == 0


def first_difference(base: tuple, here: tuple) -> str:
    """What differs: the report, or the first record only one side has."""
    if base[0] != here[0]:
        return "the report on stdout differs"
    only_base = sorted((Counter(base[1]) - Counter(here[1])).elements())
    only_here = sorted((Counter(here[1]) - Counter(base[1])).elements())
    return (
        f"{len(only_base)} records only at base, {len(only_here)} only here\n"
        f"  base: {only_base[0] if only_base else '-'}\n"
        f"  here: {only_here[0] if only_here else '-'}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the revision to compare this tree against")
    parser.add_argument(
        "--strip-label", action="append", default=[], metavar="KEY",
        help="drop KEY from metric labels and event/span attrs on both sides",
    )  # fmt: skip
    args = parser.parse_args(argv)
    different = 0
    with tempfile.TemporaryDirectory(prefix="sim-identical-") as tmp:
        base_tree = Path(tmp) / "base"
        base_tree.mkdir()
        checkout(args.base, base_tree)
        for cell in CELLS:
            runs = [
                run_cell(tree, cell, Path(tmp) / f"{side}.jsonl", args.strip_label)
                for side, tree in (("base", base_tree), ("here", ROOT))
            ]
            name = cell.scenario + (f" + {cell.plan}" if cell.plan else "")
            name += "".join(f" {key}={value}" for key, value in cell.env)
            if heals_nothing(cell, runs[1][0]):
                different += 1
                print(f"HEALS NOTHING  {name}: its hub partition resumes "
                      "no session (reconnects == 0); move the fault into "
                      "the waves' transfers")
            elif runs[0] == runs[1]:
                print(f"identical  {name}  ({len(runs[1][1])} records)")
            else:
                different += 1
                print(f"DIFFERENT  {name}: {first_difference(*runs)}")
    return 1 if different else 0


if __name__ == "__main__":
    raise SystemExit(main())
