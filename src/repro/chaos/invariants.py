"""End-to-end invariants checked after a chaos run.

Three families, mirroring the tentpole spec:

* **delivery** — every payload byte reaches the receiver exactly once and
  in order, per channel.  Each logical channel gets a
  :class:`ChannelAudit`: both endpoints feed the bytes they wrote/read
  into running SHA-256 digests, so reordering, duplication and loss all
  surface as a count or digest mismatch without buffering the payload.
* **resources** — after teardown plus a drain window, the engine holds no
  live TCP connections on any host and no pending events in the heap
  (leaked sockets and timers keep the heap busy or the connection tables
  populated).
* **observability** — obs counters agree with what actually moved: the
  relay's forwarded-byte counter matches the server's own accounting,
  every ``establish.attempt`` span has exactly one attempts counter
  increment, and every successful session resume has exactly one
  initiator-side reconnect counter increment.  A packet-tier session
  records each resume as an ok ``session.resume`` span; the flow tier
  records a healed fleet partition as one ``fleet.heal`` span whose
  ``resumed`` counts the transfers it resumed, so the resumes are the ok
  spans plus the heals' ``resumed``.

Violations are plain sorted strings so a report is byte-identical across
reruns of the same ``(scenario, seed, plan)`` triple.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional

from ..obs import MetricsRegistry, TraceRecorder, is_id

__all__ = ["ChannelAudit", "check_invariants", "obs_consistency_violations"]


class ChannelAudit:
    """Both endpoints' view of one logical channel's payload stream."""

    def __init__(self, name: str):
        self.name = name
        self.sent_bytes = 0
        self.received_bytes = 0
        self._sent_sha = hashlib.sha256()
        self._received_sha = hashlib.sha256()
        self.sender_done = False
        self.receiver_done = False

    # -- endpoint feeds ----------------------------------------------------
    def record_sent(self, data: bytes) -> None:
        self.sent_bytes += len(data)
        self._sent_sha.update(data)

    def record_received(self, data: bytes) -> None:
        self.received_bytes += len(data)
        self._received_sha.update(data)

    def finish_sender(self) -> None:
        self.sender_done = True

    def finish_receiver(self) -> None:
        self.receiver_done = True

    # -- verdicts ----------------------------------------------------------
    @property
    def sent_digest(self) -> str:
        return self._sent_sha.hexdigest()

    @property
    def received_digest(self) -> str:
        return self._received_sha.hexdigest()

    def violations(self) -> list[str]:
        out = []
        if not self.sender_done:
            out.append(f"delivery[{self.name}]: sender did not complete")
        if not self.receiver_done:
            out.append(f"delivery[{self.name}]: receiver did not complete")
        if self.sender_done and self.receiver_done:
            if self.received_bytes != self.sent_bytes:
                out.append(
                    f"delivery[{self.name}]: {self.received_bytes} bytes "
                    f"received, {self.sent_bytes} sent"
                )
            elif self.received_digest != self.sent_digest:
                out.append(
                    f"delivery[{self.name}]: stream digest mismatch "
                    f"(bytes reordered or duplicated)"
                )
        return out

    def summary(self) -> dict:
        return {
            "name": self.name,
            "sent_bytes": self.sent_bytes,
            "received_bytes": self.received_bytes,
            "sent_digest": self.sent_digest,
            "received_digest": self.received_digest,
            "complete": self.sender_done and self.receiver_done,
        }


def _mux_violations(registry: MetricsRegistry) -> list[str]:
    """Credit-conservation and no-leakage checks over mux counters.

    Conservation: every DATA byte a sender put on the wire for a channel
    was delivered to exactly one receiver (summed per channel id across
    the run's nodes, tx == rx — a muxed grid pair shares the channel id
    on both sides).  Credit: no endpoint ever transmitted more than the
    peer granted it — ``mux.credit_granted`` counts the window a channel
    opened with as its first grant, so the check is ``sent <= granted``
    whatever window was asked for — and the flow-control contract held
    for the entire run.  A run without mux counters checks nothing.
    """
    # channel -> every mux counter labelled with it.  Only the counters are
    # held: keeping each one's node beside it costs a tuple per counter
    # (19 MB over the 300k counters of a 100k-channel run) to save the
    # second ``labels`` read below and no measurable time.
    by_channel: dict = {}
    for family in ("mux.tx_bytes", "mux.rx_bytes", "mux.credit_granted"):
        for counter in registry.instruments(family):
            channel = counter.labels.get("channel", "?")
            by_channel.setdefault(channel, []).append(counter)
    out = []
    for ch, counters in by_channel.items():
        sent: dict = {}  # node -> DATA bytes it sent on this channel
        granted: dict = {}  # node -> credit bytes it granted on this channel
        got = 0
        for counter in counters:
            if counter.name == "mux.rx_bytes":
                got += counter.value
                continue
            table = sent if counter.name == "mux.tx_bytes" else granted
            node = counter.labels.get("node", "?")
            table[node] = table.get(node, 0) + counter.value
        total = sum(sent.values())
        if total != got:
            out.append(
                f"mux: channel {ch} conservation broken: "
                f"{total} bytes sent, {got} delivered"
            )
        total = sum(granted.values())
        for node, n in sent.items():
            allowed = total - granted.get(node, 0)
            if n > allowed:
                out.append(
                    f"mux: channel {ch} credit overrun on {node}: "
                    f"{n} bytes sent, {allowed} granted by the peer"
                )
    return out


def check_invariants(
    scenario,
    audits: Iterable[ChannelAudit],
    errors: Iterable[str],
    registry: Optional[MetricsRegistry] = None,
    recorder: Optional[TraceRecorder] = None,
) -> list[str]:
    """Run every invariant; returns a sorted list of violation strings.

    Call after the scenario has been torn down (nodes stopped, relay
    stopped) and the simulation drained past the last TIME_WAIT/timer
    deadline — live connections at that point are leaks, not residue.
    """
    violations = [f"process: {e}" for e in errors]

    for audit in audits:
        violations.extend(audit.violations())

    # Both networks answer the same leak probe, so packet-tier TCP leaks
    # and flow-tier stuck transfers surface identically.
    for leak in scenario.backend.live_connections():
        violations.append(f"resources: leaked connection {leak}")
    pending = scenario.sim.pending
    if pending:
        violations.append(
            f"resources: {pending} events still pending in the engine heap"
        )

    if registry is not None:
        violations.extend(_mux_violations(registry))
        forwarded = sum(
            c.value for c in registry.instruments("relay.forwarded_bytes_total")
        )
        relays = getattr(scenario, "relays", None)
        accounted = (
            sum(r.forwarded_bytes for r in relays.values())
            if relays
            else scenario.relay.forwarded_bytes
        )
        if forwarded != accounted:
            violations.append(
                "obs: relay.forwarded_bytes_total counter "
                f"({forwarded}) != relay accounting "
                f"({accounted})"
            )
    if registry is not None and recorder is not None:
        violations.extend(obs_consistency_violations(registry, recorder))

    return sorted(violations)


def obs_consistency_violations(
    registry: MetricsRegistry, recorder: TraceRecorder
) -> list[str]:
    """Counter/span/identity agreement checks shared by both backends.

    The live chaos runner has no simulated network to probe, but these
    observability invariants are backend-agnostic: counters must agree
    with the spans that narrate them, and every stamped causal identity
    must be well-formed.
    """
    violations: list[str] = []
    counted = sum(
        c.value for c in registry.instruments("establish.attempts_total")
    )
    spans = len(recorder.spans("establish.attempt"))
    if counted != spans:
        violations.append(
            f"obs: establish.attempts_total ({counted}) != "
            f"establish.attempt spans ({spans})"
        )
    # Every successful session resume is driven by the initiator and
    # increments its reconnect counter exactly once — a mismatch means
    # a recovery path bumped the counter without completing (or vice
    # versa).  A packet-tier session narrates its resume as one ok
    # ``session.resume`` span; a flow-tier partition heal narrates all the
    # transfers it resumed as one ``fleet.heal`` span carrying how many.
    reconnects = sum(
        c.value
        for c in registry.instruments("session.reconnects_total")
        if c.labels.get("role") == "initiator"
    )
    resumed = sum(
        1
        for s in recorder.spans("session.resume")
        if s.get("attrs", {}).get("outcome") == "ok"
    )
    healed = sum(
        s.get("attrs", {}).get("resumed", 0)
        for s in recorder.spans("fleet.heal")
    )
    if reconnects != resumed + healed:
        violations.append(
            f"obs: initiator session.reconnects_total ({reconnects}) != "
            f"successful session.resume spans ({resumed}) + "
            f"fleet.heal resumed ({healed})"
        )
    # Causal identity must be well-formed on every stamped record:
    # ids are 16 lowercase hex digits (``is_id``), a parent implies a
    # span, a span implies a trace.  A malformed context means some wire
    # carrier decoded garbage (or an instrumentation site stamped a
    # partial triple).
    malformed = 0
    for record in recorder.records:
        for field in ("trace_id", "span_id", "parent_id"):
            value = record.get(field)
            if value is not None and not is_id(value):
                malformed += 1
                break
        else:
            if ("parent_id" in record and "span_id" not in record) or (
                "span_id" in record and "trace_id" not in record
            ):
                malformed += 1
    if malformed:
        violations.append(
            f"obs: {malformed} trace records carry a malformed "
            "causal identity"
        )
    return violations
