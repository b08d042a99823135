"""Parallel TCP streams (paper §4.2).

"On such high latency WANs, using multiple TCP streams — or parallel
streams — for a single logical connection can improve the achievable
bandwidth by increasing the window size beyond the operating-system
limits. ... sender and receiver have to fragment and multiplex the data
over the underlying, individual TCP streams."

Striping scheme: block *n*'s length header travels on stream ``n % N``;
its fragments of at most ``fragment`` bytes follow round-robin starting on
that same stream.  Because every stream is an ordered byte pipe and the
assignment is a pure function of the block counter, the receiver needs no
per-fragment metadata at all — reassembly is deterministic.

Each stream has its own writer task behind a bounded queue, so a
momentarily backlogged stream does not head-of-line-block the others —
all N congestion windows stay filled concurrently, which is the whole
point of striping.  Backpressure still propagates: ``send_block`` waits
when the *target* stream's queue is full.

Fragmentation work (the extra copy per byte that striping costs) is
charged to the host CPU model as ``serialize`` work when one is attached.

The drivers are written once for both backends, as generator-based
coroutines over :mod:`repro.core.runtime` (the simulator's comes with the
links; ``repro.livenet.drivers`` subclasses name the asyncio one).
"""

from __future__ import annotations

import struct
from types import coroutine
from typing import Generator, Optional, Sequence

from ... import obs
from ...simnet.cpu import charge
from ..links import Link
from ..runtime import Bound
from .base import BlockMeters, Driver, DriverError

__all__ = [
    "ParallelStreamsDriver",
    "RebalancingParallelDriver",
    "DEFAULT_FRAGMENT",
]

DEFAULT_FRAGMENT = 16384

_CLOSE = object()


class _StreamWriter:
    """Bounded outbound queue + writer task for one stream."""

    def __init__(self, driver, link: Link, limit_bytes: int, on_error=None):
        self._runtime = driver.runtime
        self.link = link
        self.limit = limit_bytes
        self.on_error = on_error
        self.written = 0
        self.closed = False
        self._queue: list = []
        self._queued_bytes = 0
        #: "space": ``put`` callers over the limit; "data": the idle writer
        self._waiters: dict = {}
        self.error: Optional[BaseException] = None
        self._task = driver._spawn(self._run(), "stripe-writer")

    @coroutine
    def put(self, data: bytes) -> Generator:
        """Enqueue ``data``; blocks while the queue is over its limit."""
        while self._queued_bytes >= self.limit and self.error is None:
            yield from self._runtime.park(self._waiters, "space")
        if self.error is not None:
            raise self.error
        if self.closed:
            raise DriverError("stream writer closed")
        self._queue.append(data)
        self._queued_bytes += len(data)
        self._kick()

    def close(self) -> None:
        self._queue.append(_CLOSE)
        self._kick()

    def _kick(self) -> None:
        self._runtime.unpark(self._waiters, "data")

    @coroutine
    def _run(self) -> Generator:
        try:
            while True:
                while not self._queue:
                    yield from self._runtime.park(self._waiters, "data")
                item = self._queue.pop(0)
                if item is _CLOSE:
                    self.closed = True
                    self.link.close()
                    return
                self._queued_bytes -= len(item)
                self._runtime.unpark(self._waiters, "space")
                yield from self.link.send_all(item)
                self.written += len(item)
        except BaseException as exc:
            self.error = exc
            self._runtime.unpark(self._waiters, "space")
            if self.on_error is not None:
                self.on_error(exc)


class _StreamReader:
    """Eager reader task for one stream.

    Drains the socket as data arrives — keeping the TCP advertised window
    open — into a bounded local reassembly buffer the driver consumes from
    (the user-space reader thread a real striping implementation has).
    """

    def __init__(self, driver, link: Link, limit_bytes: int):
        self._runtime = driver.runtime
        self.link = link
        self.limit = limit_bytes
        self._buf = bytearray()
        self._eof = False
        self.error: Optional[BaseException] = None
        #: bytes the parked ``take`` is waiting for (None: nobody parked)
        self._want: Optional[int] = None
        #: "data": the consumer; "drain": the reader over its limit
        self._waiters: dict = {}
        self._task = driver._spawn(self._run(), "stripe-reader")

    @coroutine
    def take(self, n: int) -> Generator:
        """Exactly ``n`` bytes from this stream (in arrival order)."""
        while len(self._buf) < n:
            if self.error is not None:
                raise self.error
            if self._eof:
                raise EOFError(
                    f"stream ended with {n - len(self._buf)} bytes missing"
                )
            self._want = n
            yield from self._runtime.park(self._waiters, "data")
        out = bytes(self._buf[:n])
        del self._buf[:n]
        if len(self._buf) < self.limit:
            self._runtime.unpark(self._waiters, "drain")
        return out

    def _wake_consumer(self) -> None:
        n = self._want
        if n is not None and (
                len(self._buf) >= n or self._eof or self.error is not None):
            self._want = None
            self._runtime.unpark(self._waiters, "data")

    @coroutine
    def _run(self) -> Generator:
        try:
            while True:
                if len(self._buf) >= self.limit:
                    yield from self._runtime.park(self._waiters, "drain")
                    continue
                data = yield from self.link.recv(65536)
                if not data:
                    self._eof = True
                    self._wake_consumer()
                    return
                self._buf.extend(data)
                self._wake_consumer()
        except BaseException as exc:
            self.error = exc
            self._wake_consumer()


class _Striping(Bound, Driver):
    """A driver over N links, with per-stream tasks on their runtime."""

    name = "parallel"

    @property
    def sim(self):
        return self.links[0].sim


class ParallelStreamsDriver(_Striping):
    """Stripe blocks over N established links."""

    def __init__(
        self,
        links: Sequence[Link],
        host=None,
        fragment: int = DEFAULT_FRAGMENT,
        queue_limit: int = 131072,
    ):
        if not links:
            raise DriverError("parallel driver needs at least one link")
        if fragment <= 0:
            raise DriverError("fragment size must be positive")
        self.links = list(links)
        self.host = host
        self.fragment = fragment
        self._send_seq = 0
        self._recv_seq = 0
        self.blocks_sent = 0
        self.blocks_received = 0
        self._writers: Optional[list[_StreamWriter]] = None
        self._readers: Optional[list[_StreamReader]] = None
        self._queue_limit = queue_limit
        self._closed = False
        self._tx = BlockMeters(self.name, "tx")
        self._rx = BlockMeters(self.name, "rx")
        self._streams = obs.metrics().gauge("driver.streams", driver=self.name)
        self._streams.set(len(self.links))

    @property
    def nstreams(self) -> int:
        return len(self.links)

    def _ensure_writers(self):
        if self._writers is None:
            self._writers = [
                _StreamWriter(self, link, self._queue_limit) for link in self.links
            ]
        return self._writers

    @coroutine
    def send_block(self, block: bytes) -> Generator:
        if self._closed:
            raise DriverError("driver closed")
        writers = self._ensure_writers()
        n = self.nstreams
        start = self._send_seq % n
        self._send_seq += 1
        if self.host is not None:
            yield charge(self.host, "serialize", len(block))
        yield from writers[start].put(struct.pack("!I", len(block)))
        for i, offset in enumerate(range(0, len(block), self.fragment)):
            writer = writers[(start + i) % n]
            yield from writer.put(block[offset : offset + self.fragment])
        self.blocks_sent += 1
        self._tx.record(len(block))

    def _ensure_readers(self):
        if self._readers is None:
            self._readers = [
                _StreamReader(self, link, self._queue_limit) for link in self.links
            ]
        return self._readers

    @coroutine
    def recv_block(self) -> Generator:
        readers = self._ensure_readers()
        n = self.nstreams
        start = self._recv_seq % n
        self._recv_seq += 1
        header = yield from readers[start].take(4)
        length = struct.unpack("!I", header)[0]
        parts = []
        remaining = length
        i = 0
        while remaining > 0:
            take = min(self.fragment, remaining)
            reader = readers[(start + i) % n]
            parts.append((yield from reader.take(take)))
            remaining -= take
            i += 1
        block = b"".join(parts)
        if self.host is not None:
            yield charge(self.host, "serialize", len(block))
        self.blocks_received += 1
        self._rx.record(len(block))
        return block

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._writers is not None:
            for writer in self._writers:
                writer.close()  # links close after their queues drain
        else:
            for link in self.links:
                link.close()

    def abort(self) -> None:
        self._closed = True
        for link in self.links:
            link.abort()


#: self-describing frame header in rebalance mode: block seq, payload length
_REBAL_HDR = struct.Struct("!QI")

#: sanity bound on a rebalance-mode frame (blocks are block_size-bounded
#: far below this; anything larger is stream corruption)
_REBAL_MAX = 1 << 26


class RebalancingParallelDriver(_Striping):
    """Parallel streams that survive member death (``rebalance=1``).

    Deterministic striping (:class:`ParallelStreamsDriver`) needs every
    stream alive forever: reassembly is a pure function of the block
    counter, so one dead member kills the transfer.  This variant trades
    a little framing overhead for survivability — each block travels
    whole on one stream behind a self-describing ``(seq, len)`` header,
    and the receiver reassembles from a reorder map keyed by ``seq``, so
    *which* stream carried a block stops mattering.

    Every sent block stays in a per-member pending set until it is known
    delivered — for :class:`~repro.core.session.SessionLink` members the
    peer's cumulative ack (``acked_tx``) is the authority, for raw links
    completion of the write is the best available signal.  When a member
    dies (for session members: the session could not be resumed), its
    pending blocks are retransmitted over the surviving members and the
    receiver's dedup drops any copies that did arrive.  The transfer
    fails only when *no* member survives.

    Clean end-of-stream still requires every member to terminate; a
    member wedged in unresumable recovery on the receive side stalls the
    EOF signal, so message boundaries above (``BlockChannel`` frames)
    remain the authority on completeness mid-stream.
    """

    def __init__(
        self,
        links: Sequence[Link],
        host=None,
        fragment: int = DEFAULT_FRAGMENT,
        queue_limit: int = 131072,
    ):
        if not links:
            raise DriverError("parallel driver needs at least one link")
        self.links = list(links)
        self.host = host
        self.fragment = fragment  # accepted for spec symmetry; blocks go whole
        self.blocks_sent = 0
        self.blocks_received = 0
        self.rebalanced_blocks = 0
        self._queue_limit = queue_limit
        self._closed = False
        self._fatal: Optional[BaseException] = None
        # tx side
        self._send_seq = 0
        self._rr = 0
        self._alive = [True] * len(self.links)
        #: tuner-quiesced members: alive but not dealt new blocks
        self._quiesced = [False] * len(self.links)
        self._pending: list[dict[int, tuple[int, bytes]]] = [
            {} for _ in self.links
        ]
        self._put_bytes = [0] * len(self.links)
        self._writers: Optional[list[_StreamWriter]] = None
        # rx side
        self._readers: Optional[list[_StreamReader]] = None
        self._reorder: dict[int, bytes] = {}
        self._deliver_seq = 0
        self._dead_rx = 0
        self._rx_error: Optional[BaseException] = None
        #: "rx": ``recv_block`` callers waiting for the next block in order
        self._waiters: dict = {}
        self._tx = BlockMeters(self.name, "tx")
        self._rx = BlockMeters(self.name, "rx")
        self._streams = obs.metrics().gauge("driver.streams", driver=self.name)
        self._streams.set(len(self.links))

    @property
    def nstreams(self) -> int:
        return len(self.links)

    @property
    def alive_members(self) -> int:
        return sum(self._alive)

    @property
    def active_streams(self) -> int:
        """Members currently dealt new blocks (alive and not quiesced)."""
        active = sum(
            1 for index in range(len(self.links))
            if self._alive[index] and not self._quiesced[index]
        )
        if active:
            return active
        return self.alive_members  # all quiesced: survivability fallback

    def set_active_streams(self, n: int) -> None:
        """Grow or shrink live membership without tearing anything down.

        Shrinking *quiesces* members (their links stay open and their
        pending blocks drain normally; they just stop being dealt new
        blocks) so growth is instant and free — no re-establishment.
        The count is clamped to ``[1, alive_members]``; dead members can
        never be reactivated.
        """
        n = max(1, min(int(n), len(self.links)))
        before = self.active_streams
        # Activate lowest-indexed alive members first, quiesce the rest.
        remaining = n
        for index in range(len(self.links)):
            if not self._alive[index]:
                continue
            if remaining > 0:
                self._quiesced[index] = False
                remaining -= 1
            else:
                self._quiesced[index] = True
        after = self.active_streams
        if after != before:
            obs.metrics().counter("parallel.retunes_total").inc()
            self._streams.set(after)
            obs.event("parallel.streams_retuned", before=before, after=after)

    # -- sending -----------------------------------------------------------------
    def _ensure_writers(self) -> list[_StreamWriter]:
        if self._writers is None:
            self._writers = [
                _StreamWriter(
                    self,
                    link,
                    self._queue_limit,
                    on_error=lambda exc, i=i: self._writer_died(i),
                )
                for i, link in enumerate(self.links)
            ]
        return self._writers

    @coroutine
    def send_block(self, block: bytes) -> Generator:
        if self._closed:
            raise DriverError("driver closed")
        if self._fatal is not None:
            raise DriverError("all parallel members dead") from self._fatal
        self._ensure_writers()
        self._prune_pending()
        if self.host is not None:
            yield charge(self.host, "serialize", len(block))
        seq = self._send_seq
        self._send_seq += 1
        frame = _REBAL_HDR.pack(seq, len(block)) + block
        yield from self._put_frame([(seq, frame)])
        self.blocks_sent += 1
        self._tx.record(len(block))

    @coroutine
    def _put_frame(self, backlog: list[tuple[int, bytes]]) -> Generator:
        """Place frames on alive members, absorbing member deaths."""
        writers = self._ensure_writers()
        while backlog:
            seq, frame = backlog.pop(0)
            while True:
                index = self._next_alive()
                writer = writers[index]
                try:
                    yield from writer.put(frame)
                except Exception:
                    backlog.extend(self._member_died(index))
                    continue
                self._put_bytes[index] += len(frame)
                self._pending[index][seq] = (self._put_bytes[index], frame)
                break

    def _next_alive(self) -> int:
        n = len(self.links)
        fallback = None
        for _ in range(n):
            index = self._rr % n
            self._rr += 1
            if not self._alive[index]:
                continue
            if not self._quiesced[index]:
                return index
            if fallback is None:
                fallback = index
        if fallback is not None:
            # every alive member is quiesced — survivability trumps tuning
            return fallback
        self._fatal = self._fatal or DriverError("all parallel members dead")
        raise DriverError("all parallel members dead")

    def _prune_pending(self) -> None:
        writers = self._writers or []
        for index, writer in enumerate(writers):
            if not self._alive[index] or not self._pending[index]:
                continue
            threshold = getattr(self.links[index], "acked_tx", None)
            if threshold is None:
                threshold = writer.written
            pending = self._pending[index]
            for seq in [s for s, (end, _) in pending.items() if end <= threshold]:
                del pending[seq]

    def _member_died(self, index: int) -> list[tuple[int, bytes]]:
        """Mark a member dead; returns its pending frames for requeueing."""
        if not self._alive[index]:
            return []
        self._alive[index] = False
        orphans = sorted(
            (seq, frame) for seq, (_end, frame) in self._pending[index].items()
        )
        self._pending[index].clear()
        self.rebalanced_blocks += len(orphans)
        reg = obs.metrics()
        reg.counter("parallel.member_deaths_total").inc()
        reg.counter("parallel.rebalanced_blocks_total").inc(len(orphans))
        obs.event(
            "parallel.member_dead",
            member=index,
            survivors=self.alive_members,
            rebalanced=len(orphans),
        )
        return orphans

    def _writer_died(self, index: int) -> None:
        """Async death (writer process, not a ``put`` call): rebalance in
        the background so tail blocks are recovered even when the sender
        never touches this member again."""
        if not self._alive[index]:
            return
        orphans = self._member_died(index)
        if not orphans:
            return

        @coroutine
        def requeue() -> Generator:
            try:
                yield from self._put_frame(orphans)
            except DriverError:
                pass  # no survivors; send_block reports via self._fatal

        self._spawn(requeue(), "stripe-rebalance")

    # -- receiving ---------------------------------------------------------------
    def _ensure_readers(self) -> list[_StreamReader]:
        if self._readers is None:
            self._readers = [
                _StreamReader(self, link, self._queue_limit) for link in self.links
            ]
            for reader in self._readers:
                self._spawn(self._parse(reader), "stripe-parser")
        return self._readers

    @coroutine
    def _parse(self, reader: _StreamReader) -> Generator:
        """Per-stream frame parser feeding the shared reorder map."""
        try:
            while True:
                head = yield from reader.take(_REBAL_HDR.size)
                seq, length = _REBAL_HDR.unpack(head)
                if length > _REBAL_MAX:
                    raise DriverError(f"bad rebalance frame length {length}")
                payload = yield from reader.take(length)
                if seq >= self._deliver_seq and seq not in self._reorder:
                    self._reorder[seq] = payload
                    self._wake_rx()
        except BaseException as exc:
            self._dead_rx += 1
            if not isinstance(exc, EOFError):
                self._rx_error = exc
            self._wake_rx()

    def _wake_rx(self) -> None:
        self.runtime.unpark(self._waiters, "rx")

    @coroutine
    def recv_block(self) -> Generator:
        readers = self._ensure_readers()
        while True:
            if self._deliver_seq in self._reorder:
                block = self._reorder.pop(self._deliver_seq)
                self._deliver_seq += 1
                if self.host is not None:
                    yield charge(self.host, "serialize", len(block))
                self.blocks_received += 1
                self._rx.record(len(block))
                return block
            if self._dead_rx >= len(readers):
                if self._reorder:
                    raise DriverError(
                        f"{len(self._reorder)} blocks lost with all "
                        f"members dead (next seq {self._deliver_seq})"
                    ) from self._rx_error
                if self._rx_error is not None:
                    raise self._rx_error
                raise EOFError("all parallel members closed")
            yield from self.runtime.park(self._waiters, "rx")

    # -- teardown ----------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._writers is None:
            for link in self.links:
                link.close()
            return
        # Unlike deterministic striping, close must linger: a member death
        # after the last send_block requeues orphaned frames onto the
        # survivors, and closing the survivors' writers too early would
        # trap those frames behind the close marker.
        self._spawn(self._graceful_close(), "stripe-close")

    @coroutine
    def _graceful_close(self) -> Generator:
        writers = self._writers or []
        while self._fatal is None:
            busy = any(
                self._alive[index]
                and (writer._queue or writer.written < self._put_bytes[index])
                for index, writer in enumerate(writers)
            )
            if not busy:
                break
            yield from self.runtime.sleep(0.05)
        for index, writer in enumerate(writers):
            if self._alive[index] and not writer.closed:
                writer.close()  # links close after their queues drain
            elif not self._alive[index]:
                try:
                    self.links[index].abort()
                except Exception:
                    pass

    def abort(self) -> None:
        self._closed = True
        for link in self.links:
            link.abort()
