"""In-process fault-injecting TCP proxy for the live backend.

The sim chaos harness injects faults through hooks the simulated network
exposes (``Link.set_down``, ``StatefulFirewall.flush``, ...).  Real
sockets expose no such hooks, so the live backend gets a *gateway in a
process*: :class:`ChaosTcpProxy` listens on loopback, forwards every
accepted connection to a fixed upstream target, and injects the chaos
fault vocabulary on command:

* **kill** — RST every active connection (``kill_all``);
* **refuse** — reset new connections at accept time (``set_refusing``);
* **stall** — stop reading from both ends so kernel buffers fill and
  the sender backpressures, without any visible error (``set_stall``);
* **black-hole** — keep reading but silently drop everything
  (``set_blackhole``);
* **latency/jitter** — delay each forwarded chunk (``set_latency``),
  jitter drawn from the proxy's seeded RNG;
* **truncate** — forward exactly N more payload bytes, then RST the
  stream mid-flight (``truncate_after``).

Every byte that enters the proxy is accounted for exactly once —
forwarded, dropped (black-hole) or lost (killed/truncated in flight) —
so the live invariant suite can check conservation the way the sim
checks relay byte accounting.
"""

from __future__ import annotations

import asyncio
import random
from typing import Optional, Tuple

from .. import obs
from .transport import LiveListener, LiveSocket, live_connect, live_listen

__all__ = ["ChaosTcpProxy", "ProxyStats"]

Addr = Tuple[str, int]

#: forwarding granularity; small enough that latency injection paces the
#: stream smoothly, large enough to stay cheap in pass-through mode
CHUNK = 16 * 1024


class ProxyStats:
    """Byte-exact accounting of everything the proxy touched."""

    __slots__ = (
        "accepted", "refused", "killed", "truncated",
        "bytes_in", "bytes_forwarded", "bytes_dropped", "bytes_lost",
    )

    def __init__(self):
        self.accepted = 0
        self.refused = 0
        self.killed = 0
        self.truncated = 0
        self.bytes_in = 0
        self.bytes_forwarded = 0
        self.bytes_dropped = 0
        self.bytes_lost = 0

    def conserved(self) -> bool:
        """Every byte read was forwarded, dropped, or lost to a kill."""
        return (
            self.bytes_in
            == self.bytes_forwarded + self.bytes_dropped + self.bytes_lost
        )

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class _ProxyConn:
    """One accepted connection: two sockets, two pump tasks."""

    __slots__ = ("client", "upstream", "tasks")

    def __init__(self, client: LiveSocket, upstream: LiveSocket):
        self.client = client
        self.upstream = upstream
        self.tasks: list = []

    def kill(self) -> None:
        for sock in (self.client, self.upstream):
            sock.abort()

    def close(self) -> None:
        for sock in (self.client, self.upstream):
            sock.close()


class ChaosTcpProxy:
    """A controllable loopback TCP gateway between live endpoints.

    ``target`` is the upstream address every accepted connection is
    forwarded to (typically a node's service listener or the relay).
    All fault switches act on *current and future* connections and are
    safe to flip from timers while traffic is moving.
    """

    def __init__(
        self,
        target: Addr,
        name: str = "chaos-proxy",
        host: str = "127.0.0.1",
        seed: int = 0,
    ):
        self.target = target
        self.name = name
        self.host = host
        self.stats = ProxyStats()
        # obs mirrors of the byte ledger, labelled by proxy name: the
        # telemetry plane streams these as deltas, so SLO monitors can
        # watch conservation drift while the proxy runs
        m = obs.metrics()
        self._m_in = m.counter("proxy.bytes_in_total", proxy=name)
        self._m_fwd = m.counter("proxy.bytes_forwarded_total", proxy=name)
        self._m_drop = m.counter("proxy.bytes_dropped_total", proxy=name)
        self._m_lost = m.counter("proxy.bytes_lost_total", proxy=name)
        self._rng = random.Random(f"{seed}:{name}")
        self._listener: Optional[LiveListener] = None
        self._accept_task: Optional[asyncio.Task] = None
        self._conns: set[_ProxyConn] = set()
        # fault state
        self._refusing = False
        self._blackhole = False
        self._flowing = asyncio.Event()
        self._flowing.set()
        self._latency = 0.0
        self._jitter = 0.0
        self._truncate_remaining: Optional[int] = None
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "ChaosTcpProxy":
        self._listener = await live_listen(self.host, 0)
        self._accept_task = asyncio.ensure_future(self._accept_loop())
        return self

    @property
    def addr(self) -> Addr:
        return self._listener.addr

    @property
    def port(self) -> int:
        return self._listener.port

    def close(self) -> None:
        self._closed = True
        if self._accept_task is not None:
            self._accept_task.cancel()
        if self._listener is not None:
            self._listener.close()
        # un-stall so pumps observe the closing sockets instead of parking
        self._flowing.set()
        for conn in list(self._conns):
            for task in conn.tasks:
                task.cancel()
            conn.close()
        self._conns.clear()

    # -- fault controls ----------------------------------------------------
    def kill_all(self) -> int:
        """RST every active connection; returns how many died."""
        victims = list(self._conns)
        for conn in victims:
            conn.kill()
        self.stats.killed += len(victims)
        obs.event(
            "chaos.proxy.kill", proxy=self.name, connections=len(victims),
            backend="live",
        )
        return len(victims)

    def set_refusing(self, flag: bool) -> None:
        """While set, new connections are reset at accept time."""
        self._refusing = flag

    def set_stall(self, flag: bool) -> None:
        """While set, the proxy stops reading: silent backpressure."""
        if flag:
            self._flowing.clear()
        else:
            self._flowing.set()

    def set_blackhole(self, flag: bool) -> None:
        """While set, bytes are read and silently discarded."""
        self._blackhole = flag

    def set_latency(self, delay: float, jitter: float = 0.0) -> None:
        """Delay every forwarded chunk by ``delay`` (+ up to ``jitter``)."""
        self._latency = delay
        self._jitter = jitter

    def truncate_after(self, nbytes: int) -> None:
        """Forward exactly ``nbytes`` more payload bytes, then RST.

        One-shot: once the cut fires, forwarding returns to normal for
        every other (and every future) connection.
        """
        self._truncate_remaining = nbytes

    # -- forwarding --------------------------------------------------------
    async def _accept_loop(self) -> None:
        while True:
            client = await self._listener.accept()
            if self._refusing:
                self.stats.refused += 1
                client.abort()
                continue
            asyncio.ensure_future(self._open_conn(client))

    async def _open_conn(self, client: LiveSocket) -> None:
        try:
            upstream = await live_connect(self.target)
        except (ConnectionError, OSError):
            client.abort()
            self.stats.refused += 1
            return
        conn = _ProxyConn(client, upstream)
        self._conns.add(conn)
        self.stats.accepted += 1
        conn.tasks = [
            asyncio.ensure_future(self._pump(conn, client, upstream)),
            asyncio.ensure_future(self._pump(conn, upstream, client)),
        ]

    async def _pump(self, conn: _ProxyConn, src: LiveSocket, dst: LiveSocket) -> None:
        try:
            while True:
                await self._flowing.wait()
                data = await src.recv(CHUNK)
                # what else has arrived rides along: latency is per chunk
                while data and len(data) < CHUNK and src.buffered:
                    data += await src.recv(CHUNK - len(data))
                if not data:
                    # graceful EOF: half-close toward the destination so
                    # the peer sees the same stream shape it would have
                    # seen without the proxy in the path
                    dst.write_eof()
                    return
                self.stats.bytes_in += len(data)
                self._m_in.inc(len(data))
                try:
                    if self._blackhole:
                        self.stats.bytes_dropped += len(data)
                        self._m_drop.inc(len(data))
                        continue
                    delay = self._latency
                    if self._jitter:
                        delay += self._rng.random() * self._jitter
                    if delay > 0:
                        await asyncio.sleep(delay)
                    if self._truncate_remaining is not None:
                        if len(data) >= self._truncate_remaining:
                            keep = data[: self._truncate_remaining]
                            lost = len(data) - len(keep)
                            # one-shot: later connections forward normally,
                            # so a session-layer resume can actually succeed
                            self._truncate_remaining = None
                            if keep:
                                await dst.send_all(keep)
                                self.stats.bytes_forwarded += len(keep)
                                self._m_fwd.inc(len(keep))
                            self.stats.bytes_lost += lost
                            self._m_lost.inc(lost)
                            self.stats.truncated += 1
                            conn.kill()
                            return
                        self._truncate_remaining -= len(data)
                    await dst.send_all(data)
                    self.stats.bytes_forwarded += len(data)
                    self._m_fwd.inc(len(data))
                except (ConnectionError, OSError):
                    # destination died with a chunk in hand
                    self.stats.bytes_lost += len(data)
                    self._m_lost.inc(len(data))
                    raise
                except asyncio.CancelledError:
                    self.stats.bytes_lost += len(data)
                    self._m_lost.inc(len(data))
                    raise
        except (EOFError, ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            if conn in self._conns and all(
                t.done() or t is asyncio.current_task() for t in conn.tasks
            ):
                self._conns.discard(conn)
                conn.close()
