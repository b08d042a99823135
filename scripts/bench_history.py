#!/usr/bin/env python3
"""The perf ledger as a trajectory: ``BENCH_history.jsonl``, one line per run.

    python3 scripts/bench_history.py record [--seed N] [--repo DIR]
    python3 scripts/bench_history.py diff [OLD NEW]
    python3 scripts/bench_history.py pairs --base DIR --workload W --pairs N

``record`` runs every workload ``BENCHMARK.json`` declares once, untraced
(``<command> --workload W --trace 0 --seed N --seconds S``), reads the
contract line each run prints last, and appends one JSON object: the
commit, whether the tree was dirty, date, interpreter, seed, seconds, and
per workload the end-to-end metric values with ``attempted``/``failed``.
``--repo`` runs another checkout's benchmark (the parent commit's, for a
before/after pair from one box) and still appends to this repo's history.

``diff`` compares the last two entries, or the last entries of two
commits (a hash prefix; ``-dirty`` appended selects a dirty-tree run),
metric by metric against the directions and bounds ``BENCHMARK.json``
declares.  It exits non-zero when any end-to-end metric is worse than its
bound or a larger share of operations failed.  One run a side is a
trajectory point, not evidence for a claimed gain: that takes paired,
alternating runs (``benchmarks/perf/README.md``).

``pairs`` takes them: it runs one workload's unmodified benchmark at two
trees, ``--base DIR`` (the parent, say, a ``git clone`` or ``git archive``
of it) and this checkout, ``N`` times each, and prints per end-to-end
metric each side's median and interquartile range and in how many pairs
this tree did better.  The order alternates, the base first in odd pairs:
on a small host whichever tree runs first in a pair was measured ≈ 4–8 %
faster on ``bulk_routed`` (4/4 pairs each way), so a fixed order would put
that into every pair.  Nothing is appended to the history.

Standard library only; nothing under ``benchmarks/perf/`` is imported.
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import platform
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
HISTORY = REPO / "BENCH_history.jsonl"


def _git(repo: pathlib.Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=repo, capture_output=True, text=True, check=True
    ).stdout.strip()


def entry_id(entry: dict) -> str:
    return entry["commit"][:12] + ("-dirty" if entry["dirty"] else "")


def record(repo: pathlib.Path, seed: int, history: pathlib.Path) -> None:
    manifest = json.loads((repo / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in manifest["end_to_end"]]
    seconds = manifest["run_seconds"]
    entry = {
        "commit": _git(repo, "rev-parse", "HEAD"),
        "dirty": bool(_git(repo, "status", "--porcelain")),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "seed": seed,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in manifest["workloads"]):
        command = manifest["command"] + [
            "--workload", workload, "--trace", "0",
            "--seed", str(seed), "--seconds", str(seconds),
        ]
        done = subprocess.run(command, cwd=repo, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError(f"{workload} exited {done.returncode}:\n{done.stderr}")
        result = json.loads(lines[-1])
        row = {name: result["metrics"][name]["value"] for name in names}
        row["attempted"], row["failed"] = result["attempted"], result["failed"]
        entry["workloads"][workload] = row
        print(f"{workload}: " + "  ".join(f"{k}={v:.6g}" for k, v in row.items()))
    with open(history, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"appended {entry_id(entry)} to {history}")


def run_workload(repo: pathlib.Path, manifest: dict, workload: str,
                 extra: list) -> dict:
    """Run ``repo``'s benchmark on one workload, untraced; the contract line
    it prints last, parsed."""
    command = manifest["command"] + [
        "--workload", workload, "--trace", "0", *extra]
    done = subprocess.run(command, cwd=repo, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)``, by linear interpolation between ranks."""
    ordered = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(ordered) - 1)
        low = int(pos)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)

    return at(0.25), at(0.5), at(0.75)


def pairs(base: pathlib.Path, change: pathlib.Path, workload: str, count: int,
          extra: list) -> list:
    """``count`` pairs of runs of ``workload``, the base first in odd pairs
    (1, 3, ...) and the change first in even ones; each side is run with
    its own tree's ``BENCHMARK.json`` command.  Returns one dict per pair:
    ``{"base": result, "change": result, "first": "base"|"change"}``."""
    manifests = {side: json.loads((repo / "BENCHMARK.json").read_text())
                 for side, repo in (("base", base), ("change", change))}
    trees = {"base": base, "change": change}
    done = []
    for index in range(1, count + 1):
        order = ("base", "change") if index % 2 else ("change", "base")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_workload(trees[side], manifests[side], workload, extra)
        done.append(pair)
        print(f"pair {index}/{count} ({order[0]} first): " + "  ".join(
            f"{side} {name}={pair[side]['metrics'][name]['value']:.6g}"
            for side in ("base", "change")
            for name in sorted(pair[side]["metrics"])
            if name in _end_to_end(manifests["change"])), flush=True)
    return done


def _end_to_end(manifest: dict) -> dict:
    return {metric["name"]: metric for metric in manifest["end_to_end"]}


def summarize(done: list, manifest: dict) -> list:
    """One row per end-to-end metric both sides report:
    ``(metric, base quartiles, change quartiles, wins)``, where ``wins`` is
    the pairs in which the change was better in the metric's direction."""
    rows = []
    for name, metric in _end_to_end(manifest).items():
        try:
            values = [(p["base"]["metrics"][name]["value"],
                       p["change"]["metrics"][name]["value"]) for p in done]
        except KeyError:
            continue
        higher = metric["better"] == "higher"
        wins = sum(1 for b, c in values if (c > b if higher else c < b))
        rows.append((name, quartiles([b for b, _ in values]),
                     quartiles([c for _, c in values]), wins))
    return rows


def print_pairs(done: list, manifest: dict) -> None:
    failed = {side: sum(p[side]["failed"] for p in done) for side in ("base", "change")}
    print(f"{'metric':14s} {'base median':>12s} {'IQR':>10s} "
          f"{'change median':>14s} {'IQR':>10s} {'change/base':>12s}  better in")
    for name, (bq1, bmed, bq3), (cq1, cmed, cq3), wins in summarize(done, manifest):
        ratio = cmed / bmed if bmed else float("nan")
        print(f"{name:14s} {bmed:12.6g} {bq3 - bq1:10.4g} {cmed:14.6g} "
              f"{cq3 - cq1:10.4g} {ratio:12.4f}  {wins}/{len(done)}")
    print(f"failed operations: base {failed['base']}, change {failed['change']}")


def load(history: pathlib.Path) -> list:
    return [json.loads(line) for line in history.read_text().splitlines() if line]


def pick(entries: list, wanted: str) -> dict:
    """The last entry of a commit (hash prefix, ``-dirty`` for a dirty tree)."""
    prefix, dirty = wanted.removesuffix("-dirty"), wanted.endswith("-dirty")
    for entry in reversed(entries):
        if entry["commit"].startswith(prefix) and entry["dirty"] == dirty:
            return entry
    raise SystemExit(f"no entry for {wanted!r} in the history")


def compare(old: dict, new: dict, manifest: dict) -> tuple:
    """``(rows, regressed)``: one row per workload and end-to-end metric.

    A row is ``(workload, metric, old, new, ratio, verdict)``; the verdict is
    ``better`` or ``worse`` when the value moved by more than the metric's
    bound (a share of the old value) in that direction, else ``within
    bound``.  A failed share higher than the old entry's is a ``worse`` row
    of its own.
    """
    rows, regressed = [], False
    for workload, before in old["workloads"].items():
        after = new["workloads"].get(workload)
        if after is None:
            continue
        for metric in manifest["end_to_end"]:
            a, b = before[metric["name"]], after[metric["name"]]
            gain = (b - a) / a if metric["better"] == "higher" else (a - b) / a
            verdict = (
                "better" if gain > metric["bound"]
                else "worse" if gain < -metric["bound"]
                else "within bound"
            )
            regressed = regressed or verdict == "worse"
            rows.append((workload, metric["name"], a, b, b / a, verdict))
        shares = [r["failed"] / max(r["attempted"], 1) for r in (before, after)]
        if shares[1] > shares[0]:
            regressed = True
            rows.append((workload, "failed_share", *shares, float("inf"), "worse"))
    return rows, regressed


def diff(history: pathlib.Path, commits: list, manifest: dict) -> int:
    entries = load(history)
    if commits:
        old, new = (pick(entries, commit) for commit in commits)
    elif len(entries) >= 2:
        old, new = entries[-2:]
    else:
        raise SystemExit(f"{history} holds fewer than two entries")
    rows, regressed = compare(old, new, manifest)
    for side, entry in (("old", old), ("new", new)):
        print(f"{side}: {entry_id(entry)}  {entry['date']}  python {entry['python']}  "
              f"seed {entry['seed']}  {entry['seconds']} s")
    print(f"{'workload':12s} {'metric':14s} {'old':>12s} {'new':>12s} {'new/old':>9s}  verdict")
    for workload, metric, a, b, ratio, verdict in rows:
        print(f"{workload:12s} {metric:14s} {a:12.6g} {b:12.6g} {ratio:9.3f}  {verdict}")
    print("bench-diff:", "REGRESSED" if regressed else "ok")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--history", type=pathlib.Path, default=HISTORY)
    commands = parser.add_subparsers(dest="command", required=True)
    rec = commands.add_parser("record", help="run every workload once and append an entry")
    rec.add_argument("--seed", type=int, default=1)
    rec.add_argument("--repo", type=pathlib.Path, default=REPO,
                     help="checkout whose benchmark is run (default: this one)")
    cmp_ = commands.add_parser("diff", help="compare two entries against the declared bounds")
    cmp_.add_argument("commits", nargs="*", metavar="COMMIT",
                      help="OLD NEW (default: the last two entries)")
    par = commands.add_parser(
        "pairs", help="alternating runs of one workload at two trees")
    par.add_argument("--base", type=pathlib.Path, required=True,
                     help="the other checkout (the parent commit's, say)")
    par.add_argument("--repo", type=pathlib.Path, default=REPO,
                     help="the changed checkout (default: this one)")
    par.add_argument("--workload", required=True)
    par.add_argument("--pairs", type=int, default=10)
    par.add_argument("--seconds", type=float, default=None,
                     help="per run (default: BENCHMARK.json's run_seconds)")
    par.add_argument("--seed", type=int, default=None,
                     help="passed on when given (default: the benchmark's)")
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.repo.resolve(), args.seed, args.history)
        return 0
    if args.command == "pairs":
        manifest = json.loads((args.repo / "BENCHMARK.json").read_text())
        seconds = args.seconds or manifest["run_seconds"]
        extra = ["--seconds", f"{seconds:g}"]
        if args.seed is not None:
            extra += ["--seed", str(args.seed)]
        done = pairs(args.base.resolve(), args.repo.resolve(), args.workload,
                     args.pairs, extra)
        print_pairs(done, manifest)
        return 0
    if len(args.commits) not in (0, 2):
        parser.error("diff takes no commits or exactly two")
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    return diff(args.history, args.commits, manifest)


if __name__ == "__main__":
    sys.exit(main())
