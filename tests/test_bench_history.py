"""``scripts/bench_history.py diff`` on synthetic entries: no benchmark runs."""

import copy
import importlib.util
import json
import pathlib

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
