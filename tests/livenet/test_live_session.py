"""AsyncSessionLink: what only real sockets and a real event loop can show.

The protocol scripts shared with the simulator binding live in
``tests/core/test_session.py``; here are the properties of the asyncio
binding itself — establishment cost, close from both ends at once, how
long its tasks outlive the transport, what the listener does with a
connection it cannot place, the observability it shares with sim, and
the ``session`` layer a ``LiveIbis`` port builds.
"""

import asyncio

import pytest

from repro import obs
from repro.core.factory import TlsConfig
from repro.core.retry import RetryPolicy
from repro.core.session_core import RESUME_OK_SIZE, RESUME_SIZE, SessionCore
from repro.core.utilization.spec import StackSpec
from repro.livenet import (
    AsyncSessionError,
    AsyncSessionLink,
    AsyncSessionListener,
    live_connect,
    live_listen,
)
from repro.obs.metrics import MetricsRegistry
from repro.security import CertificateAuthority, Identity

from .conftest import eventually
from .test_live_runtime import grid

pytestmark = pytest.mark.livenet


class _CountingSock:
    """Counts what crosses one transport, per direction."""

    def __init__(self, sock):
        self._sock = sock
        self.writes = []
        self.read = 0

    async def send_all(self, data):
        self.writes.append(len(data))
        await self._sock.send_all(data)

    async def recv_exactly(self, n):
        data = await self._sock.recv_exactly(n)
        self.read += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self._sock, name)


async def _pair(listener, **kwargs):
    sessions = AsyncSessionListener(listener)
    addr = listener.addr

    async def dial():
        return await live_connect(addr)

    a = await AsyncSessionLink.connect(dial, **kwargs)
    return sessions, a, await sessions.accept()


def _session_tasks():
    """Live tasks the session binding or its listener spawned."""
    return [
        task for task in asyncio.all_tasks()
        if not task.done() and task.get_name().startswith("session-")
    ]


def test_establishment_is_one_round_trip(live_run):
    async def main():
        listener = await live_listen()
        sessions = AsyncSessionListener(listener)
        socks = []

        async def dial():
            socks.append(_CountingSock(await live_connect(listener.addr)))
            return socks[-1]

        link = await AsyncSessionLink.connect(dial)
        (sock,) = socks
        # one RESUME out, one RESUME_OK in, and the link is usable
        seen = list(sock.writes), sock.read
        peer = await sessions.accept()
        await link.send_all(b"ready")
        echoed = await peer.recv_exactly(5)
        sessions.close()
        return seen, echoed, link.state

    seen, echoed, state = live_run(main())
    assert seen == ([RESUME_SIZE], RESUME_OK_SIZE)
    assert echoed == b"ready" and state == "active"


def test_simultaneous_aclose_from_both_ends(live_run):
    """Both ends close at once, 200 times: each ``aclose`` returns well
    inside its deadline and both sessions finish — an end whose bytes are
    all acked still waits for its peer's FIN instead of tearing the socket
    down under it (the strand PR 14 hit about once in 350 closes)."""

    async def main():
        listener = await live_listen()
        sessions = AsyncSessionListener(listener)

        async def dial():
            return await live_connect(listener.addr)

        for i in range(200):
            a = await AsyncSessionLink.connect(dial)
            b = await sessions.accept()
            await asyncio.gather(a.send_all(b"x" * (i * 37)), b.send_all(b"y" * i))
            await asyncio.wait_for(asyncio.gather(a.aclose(), b.aclose()), 2.0)
            await eventually(lambda: a.state == b.state == "finished", 2.0)
        sessions.close()
        await eventually(lambda: not _session_tasks(), 2.0)

    live_run(main(), timeout=120.0)


def test_aclose_returns_once_acked_and_the_link_lingers_until_eof(live_run):
    async def main():
        listener = await live_listen()
        sessions, a, b = await _pair(listener)
        await a.send_all(b"payload")
        assert await b.recv_exactly(7) == b"payload"
        await asyncio.wait_for(a.aclose(), 2.0)  # b never closes
        lingering = a.state, bool(_session_tasks())
        sessions.close()  # b goes down with its listener: a reads EOF
        await eventually(lambda: a.state == "finished", 2.0)
        # every task either side started ends with the transport
        await eventually(lambda: not _session_tasks(), 2.0)
        return lingering, await a.recv(10)

    assert live_run(main()) == (("active", True), b"")


def test_close_deadline_ends_a_link_whose_peer_is_gone_silently(live_run):
    async def main():
        listener = await live_listen()
        sessions, a, b = await _pair(listener)
        b._raw.send_all = lambda data: asyncio.sleep(0)  # acks vanish
        with pytest.raises(AsyncSessionError, match="close timed out"):
            await a.aclose(timeout=0.2)
        sessions.close()
        await eventually(lambda: not _session_tasks(), 2.0)
        return a.state

    assert live_run(main()) == "failed"


def test_listener_drops_a_resume_it_cannot_place(live_run):
    async def main():
        listener = await live_listen()
        sessions = AsyncSessionListener(listener)
        lost = SessionCore(0xBEEF, SessionCore.INITIATOR, attached=False)
        lost._rx_off = 4096  # mid-stream: this is no new session
        sock = await live_connect(listener.addr)
        await sock.send_all(lost.resume_request())
        reply = await asyncio.wait_for(sock.recv(64), 2.0)
        sock.close()
        known = dict(sessions.sessions)
        sessions.close()
        return reply, known

    assert live_run(main()) == (b"", {})


class _DeafSock:
    """A transport that can go deaf: once ``deaf``, whatever arrives is
    lost and the reader sees a reset instead."""

    def __init__(self, sock):
        self._sock = sock
        self.deaf = False

    async def recv(self, maxbytes):
        data = await self._sock.recv(maxbytes)
        if self.deaf:
            raise ConnectionResetError("inbound reset")
        return data

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_redial_of_a_finished_session_is_answered_never_reborn(live_run):
    """One-way stream, the responder finishes, and its last FINACK dies
    with the link: the initiator's redial carries ``rx_off == 0`` like a
    new session's opening does, but is answered by the finished session
    (RESUME_OK and the FINACK again) — no second link with the same sid
    surfaces, no byte is delivered twice, and the initiator finishes."""

    async def main():
        listener = await live_listen()
        sessions = AsyncSessionListener(listener)
        socks = []

        async def dial():
            socks.append(_DeafSock(await live_connect(listener.addr)))
            return socks[-1]

        a = await AsyncSessionLink.connect(dial)
        b = await sessions.accept()
        await a.send_all(b"0123456789")
        assert await b.recv_exactly(10) == b"0123456789"
        await asyncio.wait_for(b.aclose(), 2.0)  # b lingers for a's FIN
        socks[0].deaf = True  # b's FINACK will never be read
        await asyncio.wait_for(a.aclose(), 5.0)
        await eventually(lambda: a.state == "finished", 2.0)
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(sessions.accept(), 0.3)
        seen = a.reconnects, b.state, list(sessions.sessions) == [a.sid]
        sessions.close()
        await eventually(lambda: not _session_tasks(), 2.0)
        return seen

    assert live_run(main()) == (1, "finished", True)


def test_a_failed_first_handshake_leaves_no_session_behind(live_run):
    class Unwritable:
        """A listener whose accepted links reset under the first write."""

        def __init__(self, listener):
            self._listener = listener

        async def accept(self):
            sock = _DeafSock(await self._listener.accept())
            sock.send_all = self._reset
            return sock

        async def _reset(self, data):
            raise ConnectionResetError("reset under RESUME_OK")

        def close(self):
            self._listener.close()

    async def main():
        listener = await live_listen()
        sessions = AsyncSessionListener(Unwritable(listener))
        fresh = SessionCore(0xF00D, SessionCore.INITIATOR, attached=False)
        sock = await live_connect(listener.addr)
        await sock.send_all(fresh.resume_request())
        reply = await asyncio.wait_for(sock.recv(64), 2.0)
        sock.close()
        known = dict(sessions.sessions)
        sessions.close()
        return reply, known

    assert live_run(main()) == (b"", {})


def test_recv_on_a_failed_session_is_a_transport_error(live_run):
    async def main():
        listener = await live_listen()
        sessions, a, b = await _pair(
            listener, retry_policy=RetryPolicy(max_attempts=1))
        sessions.close()
        listener.close()
        await eventually(lambda: a.state == "failed", 5.0)
        with pytest.raises(EOFError):
            await a.recv(1)
        with pytest.raises(AsyncSessionError):
            await a.send_all(b"x")

    live_run(main())


def test_live_shares_the_sim_instruments_and_events(live_run):
    """One label set (no ``backend``), the same event names, the resume
    histogram — so report stats and chaos invariants read either backend."""

    async def main():
        listener = await live_listen()
        sessions, a, b = await _pair(listener, node="alice")
        await a.send_all(b"x" * 1000)
        a.abort()
        await a.send_all(b"y" * 1000)
        assert await b.recv_exactly(2000) == b"x" * 1000 + b"y" * 1000
        a.set_max_buffer(4096)
        await asyncio.gather(a.aclose(), b.aclose())
        await eventually(lambda: a.state == "finished")
        sessions.close()

    registry, recorder = MetricsRegistry(), obs.TraceRecorder()
    previous = obs.set_registry(registry), obs.set_tracer(recorder)
    try:
        live_run(main())
    finally:
        obs.set_registry(previous[0])
        obs.set_tracer(previous[1])
    reconnects = registry.instruments("session.reconnects_total")
    assert sorted(c.labels["role"] for c in reconnects) == [
        "initiator", "responder"]
    assert all(set(c.labels) == {"role"} and c.value == 1 for c in reconnects)
    (resume_seconds,) = registry.instruments("session.resume_seconds")
    assert resume_seconds.count == 1
    assert registry.counter("session.retunes_total", role="initiator").value == 1
    names = {r["name"] for r in recorder.events()}
    assert {"session.established", "session.broken", "session.resumed",
            "session.retuned", "session.finished"} <= names
    (span,) = recorder.spans("session.resume")
    assert span["attrs"]["outcome"] == "ok" and span["node"] == "alice"


def test_port_connect_builds_session_and_tls_layers(live_run):
    """``LiveIbis`` builds a ``session`` port the simulator's way — one
    session per data link, registered with the responder node — and a
    ``tls`` one it handshakes with the ``TlsConfig`` it is given."""
    ca = CertificateAuthority("live-root")
    key, cert = ca.issue_identity("live-node")
    tls = TlsConfig([ca.certificate], Identity(key, [cert]))

    async def main():
        async with grid("alice", "bob", tls_config=tls) as (_reg, _rel, alice, bob):
            inbox = await bob.create_receive_port("in")
            survivable = alice.create_send_port("out")
            await survivable.connect("in", StackSpec.tcp().with_session())
            secure = alice.create_send_port("secure")
            await secure.connect("in", StackSpec.tcp().with_tls())
            got = []
            for port, text in ((survivable, "resumable"), (secure, "sealed")):
                message = port.new_message()
                message.write_string(text)
                await message.finish()
                got.append((await inbox.receive()).read_string())
            return got, len(bob.node.sessions), len(alice.node.sessions)

    assert live_run(main()) == (["resumable", "sealed"], 1, 1)
