"""``scripts/bench_history.py``: ``diff`` on synthetic entries, ``pairs``
over a fake benchmark command; no benchmark runs."""

import copy
import importlib.util
import json
import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_history", REPO / "scripts" / "bench_history.py"
)
bench_history = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_history)

MANIFEST = {
    "end_to_end": [
        {"name": "goodput_MBps", "better": "higher", "bound": 0.2},
        {"name": "latency_ms", "better": "lower", "bound": 0.2},
    ]
}


def _entry(commit, dirty=False, **workloads):
    return {
        "commit": commit * 40, "dirty": dirty, "date": "2026-01-01T00:00:00+00:00",
        "python": "3.11.7", "seed": 1, "seconds": 15,
        "workloads": {
            name: {"goodput_MBps": goodput, "latency_ms": latency,
                   "attempted": 100, "failed": failed}
            for name, (goodput, latency, failed) in workloads.items()
        },
    }


BASE = _entry("a", secure=(0.43, 113.0, 0), plain=(600.0, 1.8, 0))


def _verdicts(old, new, manifest=MANIFEST):
    rows, regressed = bench_history.compare(old, new, manifest)
    return {(w, m): verdict for w, m, *_values, verdict in rows}, regressed


def test_gain_beyond_the_bound_is_better_and_passes():
    new = _entry("b", secure=(15.0, 112.0, 0), plain=(590.0, 1.9, 0))
    verdicts, regressed = _verdicts(BASE, new)
    assert not regressed
    assert verdicts == {
        ("secure", "goodput_MBps"): "better",
        ("secure", "latency_ms"): "within bound",
        ("plain", "goodput_MBps"): "within bound",
        ("plain", "latency_ms"): "within bound",
    }


@pytest.mark.parametrize(
    "secure, metric",
    [((0.30, 113.0, 0), "goodput_MBps"), ((0.43, 140.0, 0), "latency_ms")],
    ids=["higher-is-better fell", "lower-is-better rose"],
)
def test_loss_beyond_the_bound_is_worse_and_fails(secure, metric):
    new = _entry("b", secure=secure, plain=(600.0, 1.8, 0))
    verdicts, regressed = _verdicts(BASE, new)
    assert regressed
    assert verdicts["secure", metric] == "worse"
    assert sum(v == "worse" for v in verdicts.values()) == 1


def test_the_bound_itself_is_not_a_regression():
    new = _entry("b", secure=(0.43 * 0.81, 113.0 * 1.19, 0), plain=(600.0, 1.8, 0))
    verdicts, regressed = _verdicts(BASE, new)
    assert not regressed
    assert set(verdicts.values()) == {"within bound"}


def test_higher_failed_share_fails_even_when_every_metric_holds():
    new = copy.deepcopy(BASE)
    new["workloads"]["plain"]["failed"] = 1
    verdicts, regressed = _verdicts(BASE, new)
    assert regressed
    assert verdicts["plain", "failed_share"] == "worse"


def test_diff_command_exit_status_and_commit_selection(tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    good = _entry("a", dirty=True, secure=(15.0, 112.0, 0), plain=(600.0, 1.8, 0))
    bad = _entry("c", secure=(0.2, 113.0, 0), plain=(600.0, 1.8, 0))
    history.write_text("".join(json.dumps(e) + "\n" for e in (BASE, good, bad)))
    # default: the last two entries (good -> bad regresses)
    assert bench_history.diff(history, [], MANIFEST) == 1
    assert "REGRESSED" in capsys.readouterr().out
    # by commit; "-dirty" tells the clean and dirty runs of one commit apart
    assert bench_history.diff(history, ["aaaa", "aaaa-dirty"], MANIFEST) == 0
    out = capsys.readouterr().out
    assert "secure       goodput_MBps" in out and "better" in out and "worse" not in out
    assert bench_history.diff(history, ["aaaa-dirty", "cccc"], MANIFEST) == 1
    with pytest.raises(SystemExit):
        bench_history.diff(history, ["aaaa", "dddd"], MANIFEST)


def test_committed_history_shows_the_first_row_that_improved():
    """The two entries this repo ships: parent, then the lane-parallel kernel."""
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    old, new = bench_history.load(REPO / "BENCH_history.jsonl")[:2]
    verdicts, regressed = _verdicts(old, new, manifest)
    assert not regressed
    assert verdicts["bulk_secure", "goodput_MBps"] == "better"


_FAKE_RUN = '''
import json, pathlib, sys
here = pathlib.Path(__file__).parent
log = here.parent / "runs.log"
runs = log.read_text().splitlines() if log.exists() else []
mine = sum(1 for line in runs if line.startswith(here.name + " "))
log.write_text("".join(line + "\\n" for line in runs)
               + here.name + " " + " ".join(sys.argv[1:]) + "\\n")
latency = json.loads((here / "latency.json").read_text())[mine]
print("a progress line the contract line follows")
print(json.dumps({"attempted": 10, "failed": 0, "metrics": {
    "latency_ms": {"value": latency},
    "goodput_MBps": {"value": 1.0 / latency},
}}))
'''


def _fake_tree(root, name, latencies):
    tree = root / name
    tree.mkdir()
    (tree / "run.py").write_text(_FAKE_RUN)
    (tree / "latency.json").write_text(json.dumps(latencies))
    (tree / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "run.py"], "run_seconds": 15, **MANIFEST}))
    return tree


def test_pairs_alternate_and_count_the_pairs_each_side_won(tmp_path, capsys):
    base = _fake_tree(tmp_path, "base", [1.0, 1.2, 1.1, 0.9])
    change = _fake_tree(tmp_path, "change", [0.9, 1.0, 0.95, 1.0])
    done = bench_history.pairs(base, change, "rpc_routed", 4,
                               ["--seconds", "2"])
    runs = (tmp_path / "runs.log").read_text().splitlines()
    # the base first in odd pairs, the change first in even ones: an order
    # effect on the host then falls on both sides alike
    assert [line.split()[0] for line in runs] == [
        "base", "change", "change", "base", "base", "change", "change", "base"]
    assert all(line.split()[1:] == ["--workload", "rpc_routed", "--trace", "0",
                                    "--seconds", "2"] for line in runs)
    assert [pair["first"] for pair in done] == ["base", "change"] * 2
    rows = {row[0]: row[1:] for row in bench_history.summarize(done, MANIFEST)}
    (bq1, bmed, bq3), (cq1, cmed, cq3), wins = rows["latency_ms"]
    assert (bmed, cmed) == (pytest.approx(1.05), pytest.approx(0.975))
    assert (bq3 - bq1, cq3 - cq1) == (pytest.approx(0.15), pytest.approx(0.0625))
    assert wins == 3  # lower is better: the fourth pair went to the base
    assert rows["goodput_MBps"][2] == 3  # higher is better: the same pairs
    bench_history.print_pairs(done, MANIFEST)
    out = capsys.readouterr().out
    assert "latency_ms" in out and "3/4" in out
    assert "failed operations: base 0, change 0" in out
