"""Routed-link dispatching: separates service channels from brokered data
channels arriving at a node's relay client (and, on a live node, at its
one port: a direct link names the same purpose first).

Every routed channel is opened with a purpose tag (see
:meth:`~repro.core.relay.RelayClient.open_link`):

* ``b"service"`` — a peer establishing its service link to us.
* ``b"data:<nonce>"`` — a brokered data-link attempt falling back to
  routed messages; matched to the negotiation that expects it.
* ``b"sessres:<sid>"`` — a session initiator re-establishing a broken
  data link (see :mod:`~repro.core.session`); handed to the node's
  :class:`~repro.core.session.SessionRegistry`.

A channel that arrives before anyone asks for it is held, but no longer
than :attr:`RoutedDispatcher.early_ttl` and no more than
:attr:`RoutedDispatcher.early_max` of each purpose at once; the rest are
closed, oldest first.  A channel tagged with anything else is closed:
nothing here serves it.
Written once on :mod:`repro.core.runtime`, for whichever runtime the node
names.
"""

from __future__ import annotations

__all__ = ["RoutedDispatcher", "SERVICE_TAG", "RESUME_PREFIX", "data_tag", "resume_tag"]

SERVICE_TAG = b"service"
RESUME_PREFIX = b"sessres:"
_DATA_PREFIX = b"data:"


def data_tag(nonce: int) -> bytes:
    return _DATA_PREFIX + b"%016x" % nonce


def resume_tag(sid: int) -> bytes:
    return RESUME_PREFIX + b"%016x" % sid


class RoutedDispatcher:
    """Accept-loop over ``node``'s relay client, routing channels by purpose
    tag; the loop is one of the node's tasks."""

    #: seconds a channel nobody has asked for is held (the
    #: :meth:`await_data` timeout), and how many of a purpose at once
    early_ttl = 30.0
    early_max = 64

    def __init__(self, node):
        self.client = node.relay_client
        self.runtime = node.runtime
        self._service_queue: list = []
        self._service_waiters: list = []
        self._resume_queue: list = []
        self._resume_waiters: list = []
        self._data_waiters: dict = {}
        self._early_data: dict = {}
        node._spawn(self._loop(), f"dispatch-{node.node_id}")

    async def _loop(self):
        while True:
            link = await self.client.accept_link()
            self.route(link, link.open_payload)

    def route(self, link, tag: bytes) -> None:
        """Hand ``link``, opened with purpose ``tag``, to whoever serves it
        (a live node's direct listener routes its links here too)."""
        if tag.startswith(_DATA_PREFIX):
            waiter = self._data_waiters.pop(tag, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(link)
            else:
                self._hold(tag, link)
        elif tag.startswith(RESUME_PREFIX):
            self._hand(link, self._resume_queue, self._resume_waiters)
        elif tag == SERVICE_TAG:
            self._hand(link, self._service_queue, self._service_waiters)
        else:
            link.close()

    def _hold(self, tag: bytes, link) -> None:
        """Keep ``link`` for :meth:`await_data`; close the held links that
        are over age or over count, oldest first (checked on arrival, so
        the sweep schedules nothing)."""
        now = self.runtime.now()
        early = self._early_data
        stale = early.pop(tag, None)
        if stale is not None:
            stale[1].close()
        early[tag] = (now, link)
        for old_tag, (since, old) in list(early.items()):
            if len(early) <= self.early_max and now - since < self.early_ttl:
                break
            del early[old_tag]
            old.close()

    def _hand(self, link, queue: list, waiters: list) -> None:
        """``link`` to the first waiter still waiting, else onto ``queue``,
        closing the queued links that are over age or over count, oldest
        first, as :meth:`_hold` does."""
        while waiters:
            waiter = waiters.pop(0)
            if not waiter.done():  # else: its task was cancelled
                waiter.set_result(link)
                return
        now = self.runtime.now()
        queue.append((now, link))
        while queue and (len(queue) > self.early_max
                         or now - queue[0][0] >= self.early_ttl):
            queue.pop(0)[1].close()

    def close(self) -> None:
        """Close the data channels no negotiation claimed."""
        for _since, link in self._early_data.values():
            link.close()
        self._early_data.clear()

    def accept_service(self):
        """Wait for a peer-initiated service channel."""
        return self._take(self._service_queue, self._service_waiters)

    def accept_resume(self):
        """Wait for a peer re-establishing a broken session link."""
        return self._take(self._resume_queue, self._resume_waiters)

    async def await_data(self, nonce: int, timeout: float = 30.0):
        """Wait for the routed data channel of negotiation ``nonce``."""
        tag = data_tag(nonce)
        early = self._early_data.pop(tag, None)
        if early is not None:
            return early[1]
        event = self.runtime.event()
        self._data_waiters[tag] = event

        async def arrival():
            return await self.runtime.wait(event)

        try:
            return await self.runtime.bounded(arrival(), timeout)
        except TimeoutError:
            self._data_waiters.pop(tag, None)
            raise TimeoutError(
                f"routed data channel for nonce {nonce} never arrived") from None

    async def _take(self, queue: list, waiters: list):
        event = self.runtime.event()
        if queue:
            event.set_result(queue.pop(0)[1])
        else:
            waiters.append(event)
        return await self.runtime.wait(event)

