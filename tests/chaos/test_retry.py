"""RetryPolicy / retrying(): deterministic jittered backoff on the sim clock."""

import pytest

from repro.core.retry import RetryExhausted, RetryPolicy, retrying
from repro.core.runtime import SimRuntime
from repro.simnet.engine import Simulator


def drive(sim, gen):
    """Run a generator to completion; returns (result, error)."""
    box = {}

    def runner():
        try:
            box["result"] = yield from gen
        except BaseException as exc:  # noqa: BLE001 - test captures it
            box["error"] = exc

    sim.process(runner())
    sim.run()
    return box.get("result"), box.get("error")


# -- policy ------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)


def test_delays_are_deterministic_per_key():
    policy = RetryPolicy(max_attempts=6, base_delay=0.5, jitter=0.3, seed=7)
    assert list(policy.delays("a")) == list(policy.delays("a"))
    assert list(policy.delays("a")) != list(policy.delays("b"))


def test_delays_exponential_and_capped():
    policy = RetryPolicy(
        max_attempts=6, base_delay=1.0, multiplier=2.0, max_delay=4.0, jitter=0.0
    )
    assert list(policy.delays()) == [1.0, 2.0, 4.0, 4.0, 4.0]


def test_jitter_stays_within_fraction():
    policy = RetryPolicy(
        max_attempts=50, base_delay=1.0, multiplier=1.0, max_delay=1.0, jitter=0.2
    )
    delays = list(policy.delays("k"))
    assert all(0.8 <= d <= 1.2 for d in delays)
    assert len(set(delays)) > 1  # actually jittered


# -- retrying() ---------------------------------------------------------------


class Boom(Exception):
    pass


def flaky(fail_times, log):
    """An attempt function failing the first ``fail_times`` calls."""

    def attempt(i):
        log.append(i)
        if i < fail_times:
            raise Boom(f"attempt {i}")
        return "ok"
        yield  # pragma: no cover - makes this a generator

    return attempt


def test_retrying_succeeds_after_failures():
    sim = Simulator()
    log = []
    policy = RetryPolicy(max_attempts=4, base_delay=0.5, multiplier=2.0, jitter=0.0)
    result, error = drive(
        sim, retrying(SimRuntime(sim), flaky(2, log), policy, retry_on=(Boom,))
    )
    assert error is None and result == "ok"
    assert log == [0, 1, 2]
    assert sim.now == pytest.approx(0.5 + 1.0)  # two backoffs elapsed


def test_retrying_exhausts_and_carries_last_error():
    sim = Simulator()
    log = []
    policy = RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0)
    result, error = drive(
        sim, retrying(SimRuntime(sim), flaky(99, log), policy, retry_on=(Boom,))
    )
    assert isinstance(error, RetryExhausted)
    assert isinstance(error.last, Boom)
    assert log == [0, 1, 2]


def test_retrying_propagates_unlisted_exceptions():
    sim = Simulator()

    def attempt(i):
        raise KeyError("not transient")
        yield  # pragma: no cover

    policy = RetryPolicy(max_attempts=5, base_delay=0.1)
    _result, error = drive(
        sim, retrying(SimRuntime(sim), attempt, policy, retry_on=(Boom,))
    )
    assert isinstance(error, KeyError)
    assert sim.now == 0.0  # no backoff was taken


def test_retrying_emits_obs_events():
    from repro import obs

    recorder = obs.set_tracer(obs.TraceRecorder())
    try:
        sim = Simulator()
        log = []
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.0)
        drive(
            sim,
            retrying(SimRuntime(sim), flaky(2, log), policy, retry_on=(Boom,), name="t"),
        )
        active = obs.tracer()
        assert len(active.events("t.retry")) == 2
        assert len(active.events("t.recovered")) == 1
        drive(
            sim,
            retrying(SimRuntime(sim), flaky(99, log), policy, retry_on=(Boom,), name="t"),
        )
        assert len(active.events("t.exhausted")) == 1
    finally:
        obs.set_tracer(recorder)
