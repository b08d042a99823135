#!/usr/bin/env python3
"""Is the simulator's behaviour at this tree identical to ``BASE``'s?

Checks ``BASE`` out into a temporary directory and runs the reference
chaos cells (``.claude/skills/verify/SKILL.md`` lists them) at both trees,
each with ``--seed 3 --json --trace``.  A cell is identical when the
report on stdout is the same bytes and the trace is the same set of JSONL
records.  Prints ``identical`` per cell, or the first record only one
side has, and exits 1 on any difference.

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

ROOT = Path(__file__).resolve().parents[1]

#: (scenario, fault plan, run with --sessions)
CELLS = [
    ("wan_transfer", "link_down@3:site=B,for=30", True),
    ("wan_transfer_routed", "relay_crash@2:for=8", True),
    ("mesh_failover", "relay_kill@2:relay=r1;relay_kill@2.2:relay=r2", True),
    ("relay_chain", "relay_partition@2:relay=r2,peers=r3,for=2", True),
    ("mux_fanin", "", False),
    ("socks_transfer", "proxy_restart@2:site=B,for=2", True),
    ("ipl_fanin", "", False),
    # the one flow-tier cell, at the default 2 000 endpoints
    ("fleet_fanin", "link_down@12:site=hub,for=5", True),
]


def checkout(base: str, into: Path) -> None:
    """``base``'s committed files under ``into`` (the repository itself is
    left untouched: no worktree entry to prune if a run is interrupted)."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", base], capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def run_cell(tree: Path, cell: tuple, trace: Path, strip: list) -> tuple:
    """``(report bytes, sorted trace records)`` of one cell at ``tree``."""
    scenario, plan, sessions = cell
    command = [
        sys.executable, "-m", "repro.chaos", "--scenario", scenario,
        "--seed", "3", "--plan", plan, "--json", "--trace", str(trace),
    ]  # fmt: skip
    if sessions:
        command.append("--sessions")
    done = subprocess.run(
        command,
        cwd=tree,
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
        capture_output=True,
        timeout=600,
    )
    if done.returncode:
        sys.stderr.write(done.stderr.decode())
        raise SystemExit(f"{scenario} exited {done.returncode} at {tree}")
    records = []
    for line in trace.read_text().splitlines():
        record = json.loads(line)
        for key in strip:
            record.get("labels", {}).pop(key, None)
            record.get("attrs", {}).pop(key, None)
        records.append(json.dumps(record, sort_keys=True))
    return done.stdout, sorted(records)


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
            name = cell[0] + (f" + {cell[1]}" if cell[1] else "")
            if runs[0] == runs[1]:
                print(f"identical  {name}  ({len(runs[1][1])} records)")
            else:
                different += 1
                print(f"DIFFERENT  {name}: {first_difference(*runs)}")
    return 1 if different else 0


if __name__ == "__main__":
    raise SystemExit(main())
