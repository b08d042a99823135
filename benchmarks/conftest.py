"""Shared benchmark infrastructure.

Every benchmark reproduces one table or figure of the paper (see
DESIGN.md's experiment index).  Besides the pytest-benchmark timing, each
writes its paper-comparison table to ``benchmarks/results/<name>.txt``;
those tables are echoed into the terminal summary so the full report
appears in captured bench output.

Benchmarks that track the perf trajectory additionally record their
headline numbers through the ``bench_json`` fixture; the session merges
them into ``BENCH_obs.json`` at the repo root (a flat machine-readable
file, versioned and uploaded as a CI artifact) so throughput and
tracing-overhead regressions are diffable across commits without parsing
tables.  Every section names its clock: ``sim`` numbers are simulated
seconds (fidelity to the paper), ``wall`` numbers are what our own code
costs on this host — the two kinds of "throughput" never share a section.
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_obs.json"
CLOCKS = ("sim", "wall")

_written: list[pathlib.Path] = []
_bench: dict[str, dict] = {}


@pytest.fixture
def report():
    """``report(name, text)`` — persist and register a results table."""

    def _write(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text)
        _written.append(path)
        print(f"\n{text}")

    return _write


@pytest.fixture
def bench_json():
    """``bench_json(name, clock="sim"|"wall", **metrics)`` — record
    numbers for BENCH_obs.json.

    Metrics are plain scalars (floats/ints/strings) measured on ``clock``;
    one flat dict per benchmark name, so a benchmark with numbers on both
    clocks records two sections.  Recording the same name twice in a
    session merges the dicts (later keys win).
    """

    def _record(name: str, *, clock: str, **metrics) -> None:
        if clock not in CLOCKS:
            raise ValueError(f"clock must be one of {CLOCKS}, not {clock!r}")
        _bench.setdefault(name, {}).update(metrics, clock=clock)

    return _record


def pytest_sessionfinish(session, exitstatus):
    if not _bench:
        return
    # Merge with an existing file so partial runs (CI shards, -k filters)
    # accumulate rather than clobber each other's sections.
    data = {"schema": 2, "benchmarks": {}}
    if BENCH_JSON.exists():
        try:
            previous = json.loads(BENCH_JSON.read_text())
            data["benchmarks"].update(previous.get("benchmarks", {}))
        except (ValueError, OSError):
            pass
    for name, metrics in _bench.items():
        data["benchmarks"].setdefault(name, {}).update(metrics)
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _written and not _bench:
        return
    terminalreporter.section("paper reproduction tables")
    for path in _written:
        terminalreporter.write_line(f"--- {path.name} ---")
        for line in path.read_text().splitlines():
            terminalreporter.write_line(line)
        terminalreporter.write_line("")
    if _bench:
        terminalreporter.write_line(f"--- {BENCH_JSON.name} sections updated ---")
        for name in sorted(_bench):
            terminalreporter.write_line(f"  {name}")


def once(benchmark, fn):
    """Run an (expensive, deterministic) experiment exactly once."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
