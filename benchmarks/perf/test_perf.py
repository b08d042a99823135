"""Self-checks of the benchmark itself (``pytest benchmarks/perf -q``).

Not part of tier-1's ``testpaths``: these test the measuring code, not
the program.
"""

import asyncio
import json
import re
import statistics
import subprocess
import sys

import pytest

import run  # noqa: F401  (puts src/ and benchmarks/ on sys.path)
import harness
import metrics
import shims

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


# -- span self-time arithmetic ------------------------------------------------


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = shims.Tracer(clock=clock)
    tracer.start()
    with tracer.span("upper", "send") as outer:
        clock.now += 10
        with tracer.span("lower", "send") as inner:
            clock.now += 20
        clock.now += 5
    clock.now += 7  # between spans: the event loop's
    tracer.stop()
    assert (outer.start, outer.end, outer.cpu_ns) == (0, 35, 15)
    assert (inner.start, inner.end, inner.cpu_ns) == (10, 30, 20)
    assert inner.parent == outer.id and outer.parent is None
    assert tracer.cpu_ns == {"upper": 15, "lower": 20, shims.LOOP_LAYER: 7}
    assert sum(tracer.cpu_ns.values()) == tracer.window_ns == 42
    assert abs(sum(tracer.shares().values()) - 1) < 1e-12


def test_suspended_time_goes_to_whoever_runs_and_pumps_have_no_parent():
    clock = FakeClock()
    tracer = shims.Tracer(clock=clock)
    wake = None
    seen = {}

    async def application():
        with tracer.span("livenet.mux", "send_all", 100) as span:
            clock.now += 10
            await wake.wait()  # suspended while the pump runs
            clock.now += 5
        seen["app"] = span

    async def pump():
        clock.now += 100  # the layer's own work, outside any call from above
        with tracer.span("livenet.session", "send_all", 40) as span:
            clock.now += 30
        seen["pump"] = span
        wake.set()

    # the step wrapper names a task's owner from where its code lives
    pump.__code__ = pump.__code__.replace(co_filename="/x/repro/livenet/mux.py")

    async def main():
        nonlocal wake
        wake = asyncio.Event()
        tracer.start()
        await asyncio.gather(application(), pump())
        tracer.stop()

    loop = asyncio.new_event_loop()
    try:
        tracer.install(loop)
        loop.run_until_complete(main())
    finally:
        loop.close()
    assert seen["app"].cpu_ns == 15  # not the 130 the pump spent meanwhile
    assert seen["app"].end - seen["app"].start == 145
    assert seen["pump"].parent is None and seen["pump"].task == "livenet.mux"
    assert tracer.cpu_ns["livenet.mux"] == 15 + 100
    assert tracer.cpu_ns["livenet.session"] == 30
    assert tracer.totals["livenet.mux"].pump_calls == 1
    assert tracer.totals["livenet.session"].bytes_in == 40
    assert sum(tracer.cpu_ns.values()) == tracer.window_ns


def test_task_owner_comes_from_the_module_path():
    assert shims.layer_of_code("/r/src/repro/livenet/mux.py") == "livenet.mux"
    assert shims.layer_of_code("/r/src/repro/livenet/drivers.py") == (
        "livenet.drivers.parallel"
    )
    assert shims.layer_of_code("/usr/lib/python3/asyncio/streams.py") == "bench"


# -- estimator ----------------------------------------------------------------


def test_values_are_reported_at_reference_host_speed():
    half_speed = harness.Sample(100.0, slowdown=2.0)
    assert half_speed.at_reference("higher") == 200.0  # a rate measured there
    assert half_speed.at_reference("lower") == 50.0  # a time measured there


def test_slowdown_is_the_mean_of_the_probes_inside_the_interval():
    host = harness.HostSpeed()
    ref = harness.REFERENCE_MS
    # probes end at t = 0, 1, ... 9; the host ran at 2/3 speed from t = 4 to 6
    host._pair[0].close(), host._pair[1].close()
    host._ends = [float(t) for t in range(10)]
    slow = 1.5 * ref
    host.probes_ms = [ref, ref, ref, ref, slow, slow, slow, ref, ref, ref]
    # the three probes inside and their neighbours: here, all ten
    assert host.slowdown(3.5, 6.5) == pytest.approx((3 * 1.5 + 7 * 1) / 10)
    assert host.slowdown(0.0, 0.5) == pytest.approx((4 * 1 + 3 * 1.5) / 7)
    # one preempted probe is capped at twice the interval's median, not believed
    host.probes_ms[1] = 50 * ref
    assert host.slowdown(0.0, 0.5) == pytest.approx((3 * 1 + 2 * 1.5 + 3 * 1.5) / 7)


def test_estimate_is_the_median_of_the_scaled_values():
    samples = [harness.Sample(v, slowdown=1.0) for v in (10.0, 11.0, 12.0)]
    samples.append(harness.Sample(6.0, slowdown=2.0))  # 12 at reference speed
    estimate = harness.Estimate.of(samples, "higher")
    assert estimate.value == 11.5 and estimate.best == 12.0
    assert harness.Estimate.of(samples[:3], "lower").best == 10.0


def test_spread_is_the_contract_formula():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 30.0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert harness.spread_share(values) == (q3 - q1) / statistics.median(values)
    assert harness.spread_share([5.0]) == 0.0


# -- declarations -------------------------------------------------------------


def test_benchmark_json_matches_the_declared_metrics():
    manifest = json.loads((run.REPO / "BENCHMARK.json").read_text())
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert manifest["paths"] == ["benchmarks/perf"]
    assert manifest["workloads"] == [
        {"name": n, "why": w} for n, w in metrics.WORKLOADS.items()
    ]
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]


def test_names_units_and_limits_fit_the_contract():
    every = metrics.END_TO_END + metrics.PER_LAYER
    names = [m.name for m in every] + list(metrics.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m.unit) for m in every)
    assert all(m.clock in ("wall", "sim", "count", "host") for m in every)
    assert all(m.better in ("higher", "lower") for m in every)
    assert 2 <= len(metrics.WORKLOADS) <= 8
    assert len(metrics.END_TO_END) <= 16 and len(metrics.PER_LAYER) <= 128
    assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)
    assert any(
        (m.name, m.unit, m.better) == ("setup_s", "s", "lower")
        for m in metrics.END_TO_END
    )
    assert all(len(w) <= 200 and "\n" not in w for w in metrics.WORKLOADS.values())
    assert set(metrics.OPERATION) == set(metrics.WORKLOADS)


def test_declared_rungs_and_series_are_the_ones_built():
    import live
    import sim
    import stacks

    assert list(stacks.RUNGS) == metrics.RUNGS
    assert metrics.FIG_SERIES == [
        f"{fig}.{stack}" for fig in sim.FIG_LINKS for stack in sim.FIG_STACKS
    ]
    assert set(sim.ROUND_S) | set(live.LIVE) == set(metrics.WORKLOADS)


# -- the runner, end to end ---------------------------------------------------


def _run(*argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), *argv],
        capture_output=True, text=True, timeout=300,
    )


def test_quick_ledger_prints_the_full_schema():
    done = _run("--quick", "--seed", "3")
    assert done.returncode == 0, done.stdout + done.stderr
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        assert metric.name in done.stdout
    for workload in metrics.WORKLOADS:
        assert f"{workload}: attempted=" in done.stdout
    assert "ledger OK" in done.stdout


def test_one_workload_prints_the_contract_line():
    for trace, declared in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        done = _run("--workload", "bulk_plain", "--seed", "5",
                    "--seconds", "1", "--trace", str(trace), "--quick")
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m.name for m in declared]
        for metric in declared:
            assert result["metrics"][metric.name]["unit"] == metric.unit
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_selftest_shows_failures_are_counted():
    done = _run("--selftest")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "FAIL" not in done.stdout
    assert "record authentication failed" in done.stdout
