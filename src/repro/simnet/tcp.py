"""A from-scratch TCP for the simulated network.

This implements the mechanisms the paper's arguments rest on:

* RFC 793 connection establishment — the asymmetric **client/server
  handshake** *and* **simultaneous open** ("TCP splicing", paper §3.2,
  Figure 1): a socket in SYN_SENT that receives a bare SYN answers with
  SYN+ACK and completes symmetrically.
* Reno-style congestion control — slow start, congestion avoidance, fast
  retransmit/recovery on three duplicate ACKs, retransmission timeout with
  exponential backoff and Karn's rule for RTT sampling.  Together with the
  receive-window limit (OS socket buffers, paper §4.2) this produces the
  WAN throughput behaviour of Figures 9 and 10.
* Flow control — advertised windows derived from receive-buffer occupancy,
  zero-window persist probes.

The API is event-based: operations return :class:`~repro.simnet.engine.Event`
objects that simulation processes yield on.  The blocking-style wrappers
live in :mod:`repro.simnet.sockets`.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from .engine import Event, Simulator
from .packet import Addr, Segment

__all__ = [
    "TcpConfig",
    "TcpStack",
    "TcpSocket",
    "ListenSocket",
    "TcpError",
    "ConnectTimeout",
    "ConnectRefused",
    "ConnectionReset",
    "SocketClosed",
]


class TcpError(Exception):
    """Base class for simulated TCP errors."""


class ConnectTimeout(TcpError):
    """SYN retries exhausted without an answer (e.g. dropped by a firewall)."""


class ConnectRefused(TcpError):
    """The peer answered with RST (no listener on that port)."""


class ConnectionReset(TcpError):
    """The established connection was reset."""


class SocketClosed(TcpError):
    """Operation on a closed socket."""


class TcpConfig:
    """Tunables, modelled on a 2004-era OS default configuration.

    ``sndbuf``/``rcvbuf`` default to 64 KiB — the operating-system socket
    buffer limit whose effect on WAN throughput motivates parallel streams
    in the paper (§4.2).
    """

    __slots__ = (
        "mss",
        "sndbuf",
        "rcvbuf",
        "initial_cwnd",
        "rto_initial",
        "rto_min",
        "rto_max",
        "syn_rto",
        "syn_retries",
        "msl",
        "persist_interval",
        "nodelay",
        "delayed_ack",
    )

    def __init__(
        self,
        mss: int = 1460,
        sndbuf: int = 65536,
        rcvbuf: int = 65536,
        initial_cwnd: int = 2,
        rto_initial: float = 1.0,
        rto_min: float = 0.2,
        rto_max: float = 60.0,
        syn_rto: float = 0.5,
        syn_retries: int = 6,
        msl: float = 1.0,
        persist_interval: float = 0.5,
        nodelay: bool = True,
        delayed_ack: float = 0.0,
    ):
        self.mss = mss
        self.sndbuf = sndbuf
        self.rcvbuf = rcvbuf
        self.initial_cwnd = initial_cwnd
        self.rto_initial = rto_initial
        self.rto_min = rto_min
        self.rto_max = rto_max
        self.syn_rto = syn_rto
        self.syn_retries = syn_retries
        self.msl = msl
        self.persist_interval = persist_interval
        #: TCP_NODELAY: True disables Nagle (the library default — §4.1:
        #: user-space aggregation "allows disabling TCP_DELAY")
        self.nodelay = nodelay
        #: delayed-ACK timeout in seconds; 0 acknowledges immediately
        self.delayed_ack = delayed_ack

    def copy(self, **changes) -> "TcpConfig":
        kwargs = {name: getattr(self, name) for name in self.__slots__}
        kwargs.update(changes)
        return TcpConfig(**kwargs)


# The cancellable timer now lives in the engine; keep the private alias the
# TCP internals were written against.
from .engine import Timer as _Timer  # noqa: E402


# Connection states -----------------------------------------------------------
CLOSED = "CLOSED"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT_1 = "FIN_WAIT_1"
FIN_WAIT_2 = "FIN_WAIT_2"
CLOSING = "CLOSING"
CLOSE_WAIT = "CLOSE_WAIT"
LAST_ACK = "LAST_ACK"
TIME_WAIT = "TIME_WAIT"


class TcpStack:
    """Per-host TCP: demultiplexes segments to sockets and listeners."""

    EPHEMERAL_BASE = 49152

    def __init__(self, host, config: Optional[TcpConfig] = None):
        self.host = host
        self.sim: Simulator = host.sim
        self.config = config or TcpConfig()
        self._conns: dict[tuple[Addr, Addr], TcpSocket] = {}
        self._listeners: dict[int, ListenSocket] = {}
        self._next_ephemeral = self.EPHEMERAL_BASE
        # port -> bind count (a port may be shared by several connections
        # with distinct 4-tuples, like SO_REUSEADDR)
        self._bound_ports: dict[int, int] = {}
        self._isn_rng = random.Random(f"{host.name}:isn")

    # -- port management ------------------------------------------------------
    def allocate_port(self) -> int:
        for _ in range(16384):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral >= 65536:
                self._next_ephemeral = self.EPHEMERAL_BASE
            if port not in self._bound_ports:
                self._bound_ports[port] = 1
                return port
        raise TcpError("out of ephemeral ports")

    def bind_port(self, port: int, reuse: bool = False) -> int:
        if port == 0:
            return self.allocate_port()
        if port in self._bound_ports and not reuse:
            raise TcpError(f"port {port} already bound on {self.host.name}")
        self._bound_ports[port] = self._bound_ports.get(port, 0) + 1
        return port

    def release_port(self, port: int) -> None:
        count = self._bound_ports.get(port, 0)
        if count <= 1:
            self._bound_ports.pop(port, None)
        else:
            self._bound_ports[port] = count - 1

    # -- API --------------------------------------------------------------------
    def listen(self, port: int, backlog: int = 64) -> "ListenSocket":
        """Open a passive socket on ``port`` (0 picks an ephemeral port)."""
        port = self.bind_port(port)
        listener = ListenSocket(self, port, backlog)
        self._listeners[port] = listener
        return listener

    def connect(
        self,
        raddr: Addr,
        lport: int = 0,
        config: Optional[TcpConfig] = None,
        laddr_ip: Optional[str] = None,
        reuse: bool = False,
    ) -> "TcpSocket":
        """Start an active open to ``raddr``; wait on ``sock.connected``.

        Binding ``lport`` explicitly supports splicing, where the port pair
        is agreed via brokering beforehand.  The same call performs either a
        client/server handshake (if the peer listens) or a simultaneous open
        (if the peer connects to us at the same time) — exactly as in real
        TCP, the initiator cannot tell the difference.
        """
        lport = self.bind_port(lport, reuse=reuse)
        laddr = (laddr_ip or self.host.ip, lport)
        sock = TcpSocket(self, laddr, raddr, config or self.config)
        self._register(sock)
        sock._active_open()
        return sock

    # -- demux -----------------------------------------------------------------
    def _register(self, sock: "TcpSocket") -> None:
        key = (sock.laddr, sock.raddr)
        if key in self._conns:
            raise TcpError(f"duplicate connection {key}")
        self._conns[key] = sock

    def _unregister(self, sock: "TcpSocket") -> None:
        self._conns.pop((sock.laddr, sock.raddr), None)
        self.release_port(sock.laddr[1])

    def receive(self, segment: Segment) -> None:
        """Entry point for segments addressed to this host."""
        key = (segment.dst, segment.src)
        sock = self._conns.get(key)
        if sock is not None:
            sock._input(segment)
            return
        listener = self._listeners.get(segment.dst[1])
        if listener is not None:
            listener._input(segment)
            return
        # No socket: answer non-RST segments with RST (connection refused).
        if not segment.rst:
            self._send_rst(segment)

    def _send_rst(self, cause: Segment) -> None:
        rst = Segment(
            src=cause.dst,
            dst=cause.src,
            seq=cause.ack if cause.ack_flag else 0,
            ack=cause.seq + cause.seg_len,
            rst=True,
            ack_flag=True,
            window=0,
        )
        self.host.send_segment(rst)

    def _isn(self) -> int:
        # Small ISNs keep traces readable; uniqueness per connection is
        # all the simulation needs.
        return self._isn_rng.randrange(1000, 100_000)


class ListenSocket:
    """A passive (server) socket: queues established child connections."""

    def __init__(self, stack: TcpStack, port: int, backlog: int):
        self.stack = stack
        self.port = port
        self.backlog = backlog
        self._accept_queue: list[TcpSocket] = []
        self._waiters: list[Event] = []
        self._embryonic: dict[tuple[Addr, Addr], TcpSocket] = {}
        self.closed = False

    @property
    def addr(self) -> Addr:
        return (self.stack.host.ip, self.port)

    def accept(self) -> Event:
        """Event yielding the next established :class:`TcpSocket`."""
        ev = self.stack.sim.event()
        if self.closed:
            ev.fail(SocketClosed("listener closed"))
        elif self._accept_queue:
            ev.succeed(self._accept_queue.pop(0))
        else:
            self._waiters.append(ev)
        return ev

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.stack._listeners.pop(self.port, None)
        self.stack.release_port(self.port)
        for ev in self._waiters:
            ev.fail(SocketClosed("listener closed"))
        self._waiters.clear()
        # A closed listener resets what it never handed out: half-open
        # (embryonic) handshakes and established-but-unaccepted children.
        # Otherwise a dial racing the close completes its handshake into
        # a connection nobody owns — a leak on both ends.
        for sock in list(self._embryonic.values()):
            sock.abort()
        self._embryonic.clear()
        for sock in self._accept_queue:
            sock.abort()
        self._accept_queue.clear()

    # -- internal ---------------------------------------------------------------
    def _input(self, segment: Segment) -> None:
        if self.closed:
            return
        if segment.rst:
            return
        if segment.syn and not segment.ack_flag:
            if len(self._embryonic) + len(self._accept_queue) >= self.backlog:
                return  # silently drop: client will retransmit the SYN
            laddr = segment.dst
            sock = TcpSocket(self.stack, laddr, segment.src, self.stack.config)
            self.stack._register(sock)
            self._embryonic[(sock.laddr, sock.raddr)] = sock
            sock._passive_open(segment, self)
            return
        if segment.ack_flag:
            # RFC 793: an ACK on a port in LISTEN belongs to no connection
            # this host knows about — answer with RST.  This matters beyond
            # protocol hygiene: when a peer's NAT mapping expires and its
            # segments start arriving from a fresh external port, this reset
            # is the only signal that tells the peer its connection is dead.
            self.stack._send_rst(segment)
        # Anything else (bare non-SYN, non-ACK): ignore as a stray.

    def _child_established(self, sock: "TcpSocket") -> None:
        self._embryonic.pop((sock.laddr, sock.raddr), None)
        if self._waiters:
            self._waiters.pop(0).succeed(sock)
        else:
            self._accept_queue.append(sock)

    def _child_aborted(self, sock: "TcpSocket") -> None:
        self._embryonic.pop((sock.laddr, sock.raddr), None)


class TcpSocket:
    """One TCP connection endpoint."""

    def __init__(self, stack: TcpStack, laddr: Addr, raddr: Addr, config: TcpConfig):
        self.stack = stack
        self.sim = stack.sim
        self.cfg = config
        self.laddr = laddr
        self.raddr = raddr
        self.state = CLOSED

        # Send sequence space.
        self.iss = stack._isn()
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.snd_max = self.iss  # highest sequence ever sent (go-back-N aware)
        self.snd_wnd = config.mss  # peer-advertised; learned from handshake
        self._sndbuf = bytearray()  # bytes from snd_una_data onward
        self._snd_fin = False  # app requested close (FIN after drain)
        self._fin_seq: Optional[int] = None

        # Receive sequence space.
        self.irs = 0
        self.rcv_nxt = 0
        self._rcvbuf = bytearray()  # in-order bytes awaiting the app
        self._ooo: dict[int, bytes] = {}  # out-of-order segments
        self._ooo_bytes = 0
        self._rcv_fin_seq: Optional[int] = None
        self._eof = False

        # Congestion control (Reno).
        self.cwnd = config.initial_cwnd * config.mss
        self.ssthresh = 1 << 30
        self._dupacks = 0
        # RFC 6582 "recover": highest sequence sent when loss recovery last
        # began.  Fast retransmit is only re-entered once snd_una passes it,
        # preventing spurious cascades of window halvings from dupacks that
        # duplicate go-back-N retransmissions produce.
        self._recover = 0
        self._in_recovery = False
        self._recovery_flight = 0  # flight size at recovery entry (caps inflation)
        self._partial_acks = 0  # partial ACKs seen in the current recovery
        #: maximum segments transmitted per send opportunity (BSD-style
        #: TCP_MAXBURST): prevents ack-clock-free megabursts after recovery.
        self.max_burst = 6

        # RTT estimation (RFC 6298).
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = config.rto_initial
        self._rtt_probe: Optional[tuple[int, float]] = None  # (end_seq, sent_at)

        # Timers.
        self._rexmit_timer = _Timer(self.sim, self._on_rto)
        self._persist_timer = _Timer(self.sim, self._on_persist)
        self._time_wait_timer = _Timer(self.sim, self._on_time_wait_done)
        self._syn_timer = _Timer(self.sim, self._on_syn_rto)
        self._delack_timer = _Timer(self.sim, self._on_delack)
        self._delack_pending = 0
        self._syn_tries = 0

        # App rendezvous.
        self.connected: Event = self.sim.event()
        self._recv_waiters: list[tuple[Event, int]] = []
        self._send_waiters: list[tuple[Event, bytes]] = []
        self._listener: Optional[ListenSocket] = None
        self._error: Optional[TcpError] = None

        # Counters (observable in tests/benches).
        self.bytes_sent = 0
        self.bytes_received = 0
        self.retransmits = 0
        self.fast_retransmits = 0
        self.timeouts = 0

    # ------------------------------------------------------------------ utils
    def _set_state(self, state: str) -> None:
        host = self.stack.host
        if host.net.tracers:
            host.net.trace(
                "tcp-state", host=host, socket=self, old=self.state, new=state
            )
        self.state = state

    def _send(self, **kwargs) -> None:
        seg = Segment(src=self.laddr, dst=self.raddr, window=self._rcv_window(), **kwargs)
        self.stack.host.send_segment(seg)

    def _rcv_window(self) -> int:
        free = self.cfg.rcvbuf - len(self._rcvbuf) - self._ooo_bytes
        return max(0, free)

    @property
    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def send_space(self) -> int:
        return max(0, self.cfg.sndbuf - len(self._sndbuf))

    # ----------------------------------------------------------------- opening
    def _active_open(self) -> None:
        self._set_state(SYN_SENT)
        self._syn_tries = 0
        self._send_syn()

    def _send_syn(self, with_ack: bool = False) -> None:
        self._syn_tries += 1
        self.snd_nxt = self.iss + 1
        self.snd_max = max(self.snd_max, self.snd_nxt)
        if with_ack:
            self._send(seq=self.iss, syn=True, ack=self.rcv_nxt, ack_flag=True)
        else:
            self._send(seq=self.iss, syn=True)
        self._syn_timer.start(self.cfg.syn_rto * (2 ** (self._syn_tries - 1)))

    def _on_syn_rto(self) -> None:
        if self.state not in (SYN_SENT, SYN_RCVD):
            return
        if self._syn_tries >= self.cfg.syn_retries:
            self._abort(ConnectTimeout(f"connect to {self.raddr} timed out"))
            return
        self._send_syn(with_ack=(self.state == SYN_RCVD))

    def _passive_open(self, syn: Segment, listener: ListenSocket) -> None:
        self._listener = listener
        self.irs = syn.seq
        self.rcv_nxt = syn.seq + 1
        self.snd_wnd = syn.window
        self._set_state(SYN_RCVD)
        self._syn_tries = 0
        self._send_syn(with_ack=True)

    def _establish(self) -> None:
        self._syn_timer.cancel()
        self._set_state(ESTABLISHED)
        if self._listener is not None:
            self._listener._child_established(self)
            self._listener = None
        if not self.connected.triggered:
            self.connected.succeed(self)

    # ------------------------------------------------------------------- input
    def _input(self, seg: Segment) -> None:
        if seg.rst:
            self._on_rst(seg)
            return
        state = self.state
        if state == SYN_SENT:
            self._input_syn_sent(seg)
        elif state == SYN_RCVD:
            self._input_syn_rcvd(seg)
        elif state != CLOSED:
            self._input_established(seg)

    def _on_rst(self, seg: Segment) -> None:
        if self.state in (SYN_SENT, SYN_RCVD):
            self._abort(ConnectRefused(f"connection to {self.raddr} refused"))
        elif self.state not in (CLOSED, TIME_WAIT):
            self._abort(ConnectionReset(f"connection to {self.raddr} reset"))

    def _input_syn_sent(self, seg: Segment) -> None:
        if seg.syn and seg.ack_flag:
            if seg.ack != self.iss + 1:
                self._send(seq=seg.ack, rst=True)  # bad ACK: reset
                return
            self.irs = seg.seq
            self.rcv_nxt = seg.seq + 1
            self.snd_una = seg.ack
            self.snd_wnd = seg.window
            self._establish()
            self._send(seq=self.snd_nxt, ack=self.rcv_nxt, ack_flag=True)
            self._output()
        elif seg.syn:
            # Simultaneous open (TCP splicing, Figure 1 right): both ends
            # sent SYN; answer with SYN+ACK and wait for the peer's SYN+ACK.
            self.irs = seg.seq
            self.rcv_nxt = seg.seq + 1
            self.snd_wnd = seg.window
            self._set_state(SYN_RCVD)
            self._syn_timer.cancel()
            self._syn_tries = 0
            self._send_syn(with_ack=True)

    def _input_syn_rcvd(self, seg: Segment) -> None:
        if seg.ack_flag and seg.ack == self.iss + 1:
            self.snd_una = seg.ack
            self.snd_wnd = seg.window
            self._establish()
            if seg.syn:
                # Peer's SYN+ACK in a simultaneous open: ACK it.
                self._send(seq=self.snd_nxt, ack=self.rcv_nxt, ack_flag=True)
            if seg.payload or seg.fin:
                self._input_established(seg)
            else:
                self._output()
        elif seg.syn and not seg.ack_flag:
            # Duplicate SYN (our SYN+ACK was lost): re-answer.
            self._send_syn(with_ack=True)

    def _input_established(self, seg: Segment) -> None:
        if seg.syn:
            return  # stray duplicate handshake segment
        if seg.ack_flag:
            self._process_ack(seg)
        if seg.payload or seg.fin:
            self._process_data(seg)
        if self.state == FIN_WAIT_1 and self._fin_seq is not None and self.snd_una > self._fin_seq:
            # Our FIN is acknowledged.
            if self._rcv_fin_seq is not None and self.rcv_nxt > self._rcv_fin_seq:
                self._enter_time_wait()
            else:
                self._set_state(FIN_WAIT_2)
        elif self.state == CLOSING and self._fin_seq is not None and self.snd_una > self._fin_seq:
            self._enter_time_wait()
        elif self.state == LAST_ACK and self._fin_seq is not None and self.snd_una > self._fin_seq:
            self._teardown()

    # -------------------------------------------------------------------- ACKs
    def _process_ack(self, seg: Segment) -> None:
        ack = seg.ack
        if ack > self.snd_max:
            # Beyond anything we tracked: the receiver accepted a
            # zero-window probe byte.  Clamp so the window update still
            # takes effect; the byte is re-sent as ordinary data and
            # discarded as a duplicate at the receiver.
            ack = self.snd_max
        if ack > self.snd_nxt:
            # Valid cumulative ACK for pre-rollback data (go-back-N):
            # jump forward instead of re-sending what already arrived.
            self.snd_nxt = ack
        if ack > self.snd_una:
            self._ack_advances(ack, seg)
        elif (
            ack == self.snd_una
            and self.flight_size > 0
            and not seg.payload
            and not seg.fin
            and seg.window <= self.snd_wnd
        ):
            # A duplicate ACK.  Window *increases* are pure window updates
            # and don't count; a shrinking window accompanies out-of-order
            # data piling up at the receiver, which is exactly the loss
            # signal fast retransmit exists for.
            self._dupack()
        # Window update regardless.
        self.snd_wnd = seg.window
        self._output()

    def _ack_advances(self, ack: int, seg: Segment) -> None:
        newly_acked = ack - self.snd_una

        # RTT sample (Karn: only if the probe segment was never retransmitted).
        if self._rtt_probe is not None and ack >= self._rtt_probe[0]:
            self._rtt_sample(self.sim.now - self._rtt_probe[1])
            self._rtt_probe = None

        # Trim acknowledged payload bytes from the retransmission buffer.
        data_acked = newly_acked
        if self._fin_seq is not None and ack > self._fin_seq:
            data_acked -= 1  # the FIN consumed one sequence number
        if data_acked > 0:
            del self._sndbuf[:data_acked]
        self.snd_una = ack
        self.snd_wnd = seg.window

        in_recovery = self._in_recovery and self.snd_una <= self._recover
        if self._in_recovery and self.snd_una > self._recover:
            # Full recovery: deflate.
            self.cwnd = self.ssthresh
            self._in_recovery = False
            self._dupacks = 0
            self._partial_acks = 0
        elif in_recovery:
            # NewReno partial ACK: retransmit the next hole, keep recovering.
            self._partial_acks += 1
            self._retransmit_head()
            self.cwnd = max(self.cfg.mss, self.cwnd - newly_acked + self.cfg.mss)
        else:
            self._dupacks = 0
            if self.cwnd < self.ssthresh:
                self.cwnd += min(newly_acked, self.cfg.mss)  # slow start
            else:
                self.cwnd += max(1, self.cfg.mss * self.cfg.mss // self.cwnd)

        if self.flight_size > 0:
            # RFC 6582 "Impatient": during recovery only the *first* partial
            # ACK resets the retransmit timer, so a many-hole episode is cut
            # short by an RTO + go-back-N instead of crawling one hole per
            # RTT ("TCP's inert recovery from lost packets", paper §4.2).
            if not in_recovery or self._partial_acks <= 1:
                self._rexmit_timer.start(self.rto)
        else:
            self._rexmit_timer.cancel()

        self._wake_senders()

    def _dupack(self) -> None:
        self._dupacks += 1
        if self._in_recovery:
            # Fast recovery: each dupack signals a departed segment.  Cap
            # the inflation at the flight size when recovery started — with
            # go-back-N retransmissions the receiver emits dupacks for
            # duplicate data too, and uncapped inflation would re-burst.
            if self.cwnd < self.ssthresh + self._recovery_flight:
                self.cwnd += self.cfg.mss
            return
        if self._dupacks >= 3 and self.snd_una <= self._recover:
            # RFC 6582: still inside the sequence range of the previous
            # loss event — these dupacks echo our own retransmissions, not
            # a new loss.  Do not halve again.
            return
        if self._dupacks == 3:
            self.fast_retransmits += 1
            self.ssthresh = max(self.flight_size // 2, 2 * self.cfg.mss)
            self._recover = self.snd_nxt
            self._in_recovery = True
            self._recovery_flight = self.flight_size
            self._partial_acks = 0
            self._retransmit_head()
            self.cwnd = self.ssthresh + 3 * self.cfg.mss
            self._rexmit_timer.start(self.rto)

    def _rtt_sample(self, rtt: float) -> None:
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.rto = min(
            self.cfg.rto_max,
            max(self.cfg.rto_min, self.srtt + max(0.01, 4 * self.rttvar)),
        )

    # ------------------------------------------------------------ retransmits
    def _on_rto(self) -> None:
        if self.flight_size <= 0 or self.state in (CLOSED, TIME_WAIT):
            return
        self.timeouts += 1
        self.ssthresh = max(self.flight_size // 2, 2 * self.cfg.mss)
        self.cwnd = self.cfg.mss
        self._dupacks = 0
        # RFC 6582: block fast retransmit until the whole outstanding
        # window at timeout time has been recovered.
        self._recover = self.snd_max
        self._in_recovery = False
        self._partial_acks = 0
        self._rtt_probe = None  # Karn: no sampling across retransmits
        self.rto = min(self.cfg.rto_max, self.rto * 2)
        # Go-back-N (classic BSD behaviour): everything past snd_una is
        # presumed lost; roll snd_nxt back so slow start re-drives the ACK
        # clock instead of waiting one backed-off RTO per hole.
        self.snd_nxt = self.snd_una
        if self._fin_seq is not None and self._fin_seq >= self.snd_una:
            self._fin_seq = None  # FIN will be re-emitted after the drain
        self._retransmit_head()
        self.snd_nxt = self.snd_una + min(self.cfg.mss, len(self._sndbuf))
        if not self._sndbuf and self._snd_fin:
            # Only a FIN was outstanding: _output re-emits it below.
            pass
        self._rexmit_timer.start(self.rto)
        self._output()

    def _retransmit_head(self) -> None:
        """Retransmit the segment starting at snd_una."""
        self.retransmits += 1
        # Karn's rule in full: once anything is retransmitted, a pending RTT
        # probe can be satisfied by the copy — discard it.  (Without this,
        # cumulative ACKs that crawl through a recovery episode produce
        # seconds-long "RTT" samples and blow up the RTO.)
        self._rtt_probe = None
        offset = 0
        length = min(self.cfg.mss, len(self._sndbuf) - offset)
        if length > 0:
            payload = bytes(self._sndbuf[offset : offset + length])
            self._send(
                seq=self.snd_una,
                ack=self.rcv_nxt,
                ack_flag=True,
                payload=payload,
            )
        elif self._fin_seq is not None and self.snd_una == self._fin_seq:
            self._send(seq=self._fin_seq, fin=True, ack=self.rcv_nxt, ack_flag=True)

    def _on_persist(self) -> None:
        if self.snd_wnd > 0 or not self._sndbuf or self.state == CLOSED:
            return
        # Zero-window probe: one byte beyond the window, *without* counting
        # it as flight — probe loss must not trigger the congestion
        # machinery (real persist timers never back off into cwnd collapse).
        # If the receiver accepts the byte, its ACK is clamped to snd_max
        # and the byte simply gets re-sent as ordinary data.
        sent = self.snd_nxt - self.snd_una
        if sent < len(self._sndbuf):
            payload = bytes(self._sndbuf[sent : sent + 1])
            self._send(seq=self.snd_nxt, ack=self.rcv_nxt, ack_flag=True, payload=payload)
        self._persist_timer.start(self.cfg.persist_interval)

    # ------------------------------------------------------------------ output
    def _output(self, limit_burst: bool = True) -> None:
        """Transmit as much buffered data as windows allow.

        ``limit_burst`` caps segments per call (TCP_MAXBURST) on the ACK
        path; application-triggered sends are only window-gated, like real
        stacks.
        """
        if self.state not in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT_1, CLOSING, LAST_ACK):
            return
        window = min(self.cwnd, max(self.snd_wnd, 0))
        burst = 0
        max_burst = self.max_burst if limit_burst else 1 << 30
        while burst < max_burst:
            in_flight = self.snd_nxt - self.snd_una
            unsent = len(self._sndbuf) - in_flight
            if unsent <= 0:
                break
            room = window - in_flight
            if room <= 0:
                break
            length = min(self.cfg.mss, unsent, room)
            if length <= 0:
                break
            if (
                not self.cfg.nodelay
                and length < self.cfg.mss
                and unsent < self.cfg.mss
                and self.snd_nxt > self.snd_una
            ):
                # Nagle: hold a runt while data is outstanding, until either
                # a full segment accumulates or everything is ACKed.
                break
            burst += 1
            start = in_flight
            payload = bytes(self._sndbuf[start : start + length])
            seq = self.snd_nxt
            fresh = seq >= self.snd_max  # first transmission of these bytes
            self.snd_nxt += length
            self.snd_max = max(self.snd_max, self.snd_nxt)
            self.bytes_sent += length
            if self._rtt_probe is None and fresh:
                # Karn's rule: never sample bytes that may be re-sent copies
                # (after a go-back-N rollback earlier bytes are retransmits).
                self._rtt_probe = (self.snd_nxt, self.sim.now)
            self._send(seq=seq, ack=self.rcv_nxt, ack_flag=True, payload=payload)
            if not self._rexmit_timer.running:
                self._rexmit_timer.start(self.rto)

        # Pending FIN once the buffer drained.
        if (
            self._snd_fin
            and self._fin_seq is None
            and self.snd_nxt - self.snd_una == len(self._sndbuf)
            and not self._sndbuf
        ):
            self._fin_seq = self.snd_nxt
            self.snd_nxt += 1
            self.snd_max = max(self.snd_max, self.snd_nxt)
            self._send(seq=self._fin_seq, fin=True, ack=self.rcv_nxt, ack_flag=True)
            if not self._rexmit_timer.running:
                self._rexmit_timer.start(self.rto)

        # Zero-window persist.
        if self.snd_wnd == 0 and self._sndbuf and not self._persist_timer.running:
            self._persist_timer.start(self.cfg.persist_interval)

    # -------------------------------------------------------------------- data
    def _process_data(self, seg: Segment) -> None:
        seq = seg.seq
        payload = seg.payload
        advanced = False

        if payload:
            end = seq + len(payload)
            if end <= self.rcv_nxt:
                pass  # complete duplicate
            elif seq <= self.rcv_nxt:
                # Overlapping or exactly next: take the new part.
                take = payload[self.rcv_nxt - seq :]
                free = self.cfg.rcvbuf - len(self._rcvbuf) - self._ooo_bytes
                take = take[:free]
                if take:
                    self._rcvbuf.extend(take)
                    self.rcv_nxt += len(take)
                    self.bytes_received += len(take)
                    advanced = True
                    self._drain_ooo()
            else:
                # Out of order: stash if it fits.
                free = self.cfg.rcvbuf - len(self._rcvbuf) - self._ooo_bytes
                if len(payload) <= free and seq not in self._ooo:
                    self._ooo[seq] = payload
                    self._ooo_bytes += len(payload)

        if seg.fin:
            fin_seq = seq + len(payload)
            self._rcv_fin_seq = fin_seq
        if self._rcv_fin_seq is not None and self.rcv_nxt == self._rcv_fin_seq:
            self.rcv_nxt += 1
            self._on_fin_received()
            advanced = True

        # Acknowledge.  Default: every data segment triggers an immediate
        # ACK (tight ACK clock).  With delayed ACKs configured, the ACK is
        # held until a second segment arrives or the timer fires (RFC 1122).
        if self.cfg.delayed_ack > 0:
            self._delack_pending += 1
            if self._delack_pending >= 2 or seg.fin:
                self._send_ack_now()
            elif not self._delack_timer.running:
                self._delack_timer.start(self.cfg.delayed_ack)
        else:
            self._send(seq=self.snd_nxt, ack=self.rcv_nxt, ack_flag=True)
        if advanced:
            self._wake_receivers()

    def _send_ack_now(self) -> None:
        self._delack_pending = 0
        self._delack_timer.cancel()
        self._send(seq=self.snd_nxt, ack=self.rcv_nxt, ack_flag=True)

    def _on_delack(self) -> None:
        if self._delack_pending and self.state not in (CLOSED, TIME_WAIT):
            self._send_ack_now()

    def _drain_ooo(self) -> None:
        while self._ooo:
            nxt = None
            for s in self._ooo:
                if s <= self.rcv_nxt < s + len(self._ooo[s]):
                    nxt = s
                    break
                if s == self.rcv_nxt:
                    nxt = s
                    break
            if nxt is None:
                # Drop any now-stale segments fully below rcv_nxt.
                stale = [s for s in self._ooo if s + len(self._ooo[s]) <= self.rcv_nxt]
                for s in stale:
                    self._ooo_bytes -= len(self._ooo[s])
                    del self._ooo[s]
                if not stale:
                    return
                continue
            chunk = self._ooo.pop(nxt)
            self._ooo_bytes -= len(chunk)
            take = chunk[self.rcv_nxt - nxt :]
            self._rcvbuf.extend(take)
            self.rcv_nxt += len(take)
            self.bytes_received += len(take)

    def _on_fin_received(self) -> None:
        self._eof = True
        if self.state == ESTABLISHED:
            self._set_state(CLOSE_WAIT)
        elif self.state == FIN_WAIT_1:
            if self._fin_seq is not None and self.snd_una > self._fin_seq:
                self._enter_time_wait()
            else:
                self._set_state(CLOSING)
        elif self.state == FIN_WAIT_2:
            self._enter_time_wait()
        self._wake_receivers()

    # ----------------------------------------------------------------- app API
    def send(self, data: bytes) -> Event:
        """Queue ``data`` for transmission.

        The event triggers once *all* of ``data`` has entered the send
        buffer (it may still be in flight).  This models a blocking
        ``send()`` loop: backpressure propagates to the application when
        the send buffer is full.
        """
        ev = self.sim.event()
        if self._error is not None:
            ev.fail(self._error)
            return ev
        if self.state not in (ESTABLISHED, CLOSE_WAIT, SYN_SENT, SYN_RCVD):
            ev.fail(SocketClosed(f"send on {self.state} socket"))
            return ev
        if self._snd_fin:
            ev.fail(SocketClosed("send after close"))
            return ev
        self._send_waiters.append((ev, bytes(data)))
        self._pump_senders()
        return ev

    def _pump_senders(self) -> None:
        while self._send_waiters:
            ev, data = self._send_waiters[0]
            space = self.send_space
            if space <= 0:
                break
            take = data[:space]
            self._sndbuf.extend(take)
            rest = data[len(take):]
            if rest:
                self._send_waiters[0] = (ev, rest)
                break
            self._send_waiters.pop(0)
            ev.succeed(len(data))
        if self.state in (ESTABLISHED, CLOSE_WAIT):
            self._output(limit_burst=False)

    def _wake_senders(self) -> None:
        self._pump_senders()

    def recv(self, maxbytes: int) -> Event:
        """Event yielding up to ``maxbytes`` of data (b"" at EOF)."""
        ev = self.sim.event()
        if maxbytes <= 0:
            ev.succeed(b"")
            return ev
        if self._error is not None and not self._rcvbuf:
            ev.fail(self._error)
            return ev
        if self._rcvbuf:
            self._fulfill_recv(ev, maxbytes)
        elif self._eof:
            ev.succeed(b"")
        elif self.state in (CLOSED, TIME_WAIT, LAST_ACK):
            ev.succeed(b"")
        else:
            self._recv_waiters.append((ev, maxbytes))
        return ev

    def _fulfill_recv(self, ev: Event, maxbytes: int) -> None:
        window_before = self._rcv_window()
        take = bytes(self._rcvbuf[:maxbytes])
        del self._rcvbuf[: len(take)]
        ev.succeed(take)
        # Window update: only when the window had shrunk enough that the
        # peer may be stalled on it (real stacks update at an MSS or half
        # the buffer of new space) — avoids doubling ACK traffic.
        if (
            take
            and window_before < max(2 * self.cfg.mss, self.cfg.rcvbuf // 2)
            and self.state in (ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2)
        ):
            self._send(seq=self.snd_nxt, ack=self.rcv_nxt, ack_flag=True)

    def _wake_receivers(self) -> None:
        while self._recv_waiters and (self._rcvbuf or self._eof):
            ev, maxbytes = self._recv_waiters.pop(0)
            if self._rcvbuf:
                self._fulfill_recv(ev, maxbytes)
            else:
                ev.succeed(b"")

    def close(self) -> None:
        """Graceful close: FIN after the send buffer drains."""
        if self.state in (CLOSED, TIME_WAIT, FIN_WAIT_1, FIN_WAIT_2, CLOSING, LAST_ACK):
            return
        if self.state in (SYN_SENT, SYN_RCVD):
            self._abort(SocketClosed("closed during handshake"), quiet=True)
            return
        self._snd_fin = True
        if self.state == ESTABLISHED:
            self._set_state(FIN_WAIT_1)
        elif self.state == CLOSE_WAIT:
            self._set_state(LAST_ACK)
        self._output()

    def abort(self) -> None:
        """Hard close: send RST, drop all state."""
        if self.state not in (CLOSED, TIME_WAIT):
            self._send(seq=self.snd_nxt, rst=True, ack=self.rcv_nxt, ack_flag=True)
        self._abort(ConnectionReset("aborted locally"), quiet=True)

    # -------------------------------------------------------------- teardown
    def _enter_time_wait(self) -> None:
        self._set_state(TIME_WAIT)
        self._rexmit_timer.cancel()
        self._persist_timer.cancel()
        self._time_wait_timer.start(2 * self.cfg.msl)
        self._wake_receivers()

    def _on_time_wait_done(self) -> None:
        self._teardown()

    def _teardown(self) -> None:
        self._set_state(CLOSED)
        self._rexmit_timer.cancel()
        self._persist_timer.cancel()
        self._syn_timer.cancel()
        self.stack._unregister(self)
        self._eof = True
        self._wake_receivers()

    def _abort(self, error: TcpError, quiet: bool = False) -> None:
        self._error = error
        self._set_state(CLOSED)
        self._rexmit_timer.cancel()
        self._persist_timer.cancel()
        self._syn_timer.cancel()
        self.stack._unregister(self)
        if self._listener is not None:
            self._listener._child_aborted(self)
            self._listener = None
        if not self.connected.triggered:
            self.connected.fail(error)
            # Passive-open children have no waiter on `connected`; keep an
            # orphaned failure from crashing the event loop.
            self.connected.defused = True
        for ev, _ in self._send_waiters:
            ev.fail(error)
        self._send_waiters.clear()
        self._eof = True
        for ev, maxbytes in self._recv_waiters:
            if self._rcvbuf:
                take = bytes(self._rcvbuf[:maxbytes])
                del self._rcvbuf[: len(take)]
                ev.succeed(take)
            elif quiet:
                ev.succeed(b"")
            else:
                ev.fail(error)
        self._recv_waiters.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TcpSocket {self.laddr[0]}:{self.laddr[1]} -> "
            f"{self.raddr[0]}:{self.raddr[1]} {self.state}>"
        )
