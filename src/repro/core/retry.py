"""Shared retry/backoff policy on a runtime's clock.

The paper's establishment machinery has to survive transient wide-area
failures — a relay rebooting, a firewall dropping conntrack state, a peer
whose socket is not bound yet when our SYN lands (§3.2, §6).  Before this
module each call site grew its own ad-hoc loop with hard-coded constants;
now they all share one :class:`RetryPolicy` with jittered exponential
backoff.

Determinism: the jitter stream is drawn from ``random.Random`` seeded with
``f"{policy.seed}:{key}"``, the same convention the link model uses, so a
given (policy, key) pair always produces the same delay sequence and chaos
runs stay bit-for-bit reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import coroutine
from typing import Callable, Generator, Iterator, Optional, Tuple, Type

from .. import obs

__all__ = ["RetryPolicy", "RetryExhausted", "retrying"]


class RetryExhausted(Exception):
    """Every attempt allowed by the policy failed.

    ``last`` carries the exception of the final attempt.
    """

    def __init__(self, message: str, last: Optional[BaseException] = None):
        super().__init__(message)
        self.last = last


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff: delay_i = min(base * mult^i, cap) ± jitter.

    ``jitter`` is a fraction of the nominal delay; the actual delay for
    attempt ``i`` is drawn uniformly from ``[d * (1-jitter), d * (1+jitter)]``.
    ``max_attempts`` counts attempts, not retries (1 means "no retry").
    """

    max_attempts: int = 4
    base_delay: float = 0.25
    multiplier: float = 2.0
    max_delay: float = 8.0
    jitter: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")

    def delays(self, key: str = "") -> Iterator[float]:
        """The deterministic backoff sequence for ``key`` (len: attempts-1)."""
        rng = random.Random(f"{self.seed}:{key}")
        nominal = self.base_delay
        for _ in range(self.max_attempts - 1):
            d = min(nominal, self.max_delay)
            if self.jitter:
                d *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield d
            nominal *= self.multiplier


@coroutine
def retrying(
    runtime,
    attempt: Callable[[int], Generator],
    policy: RetryPolicy,
    retry_on: Tuple[Type[BaseException], ...],
    key: str = "",
    name: str = "retry",
) -> Generator:
    """Run ``attempt(i)`` under ``policy``, backing off between failures
    on ``runtime`` (:mod:`repro.core.runtime`).

    ``attempt`` is called with the zero-based attempt index and must return
    a coroutine to drive.  Exceptions in ``retry_on`` trigger backoff and a
    ``<name>.retry`` obs event; anything else propagates immediately.  When
    the policy is exhausted, :class:`RetryExhausted` is raised carrying the
    last failure.
    """
    delays = policy.delays(key)
    last: Optional[BaseException] = None
    for i in range(policy.max_attempts):
        try:
            result = yield from attempt(i)
            if i:
                obs.event(f"{name}.recovered", key=key, attempt=i + 1)
            return result
        except retry_on as exc:
            last = exc
            delay = next(delays, None)
            if delay is None:
                break
            obs.event(
                f"{name}.retry",
                key=key,
                attempt=i + 1,
                delay=round(delay, 6),
                error=f"{type(exc).__name__}: {exc}",
            )
            yield from runtime.sleep(delay)
    obs.event(
        f"{name}.exhausted",
        key=key,
        attempts=policy.max_attempts,
        error=f"{type(last).__name__}: {last}" if last else "",
    )
    raise RetryExhausted(
        f"{name} {key!r}: {policy.max_attempts} attempts failed "
        f"(last: {type(last).__name__}: {last})",
        last=last,
    )
