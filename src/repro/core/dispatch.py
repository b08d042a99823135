"""Routed-link dispatching: separates service channels from brokered data
channels arriving at a node's relay client.

Every routed channel is opened with a purpose tag (see
:meth:`~repro.core.relay.RelayClient.open_link`):

* ``b"service"`` — a peer establishing its service link to us.
* ``b"data:<nonce>"`` — a brokered data-link attempt falling back to
  routed messages; matched to the negotiation that expects it.
* ``b"sessres:<sid>"`` — a session initiator re-establishing a broken
  data link (see :mod:`~repro.core.session`); handed to the node's
  :class:`~repro.core.session.SessionRegistry`.

A channel tagged with anything else is closed: nothing here serves it.
Written once on :mod:`repro.core.runtime`, for whichever runtime the node
names.
"""

from __future__ import annotations

from types import coroutine
from typing import Generator

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

    @coroutine
    def _loop(self) -> Generator:
        while True:
            link = yield from self.client.accept_link()
            tag = link.open_payload
            if tag.startswith(_DATA_PREFIX):
                waiter = self._data_waiters.pop(tag, None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(link)
                else:
                    self._early_data[tag] = link
            elif tag.startswith(RESUME_PREFIX):
                _hand(link, self._resume_queue, self._resume_waiters)
            elif tag == SERVICE_TAG:
                self.offer_service(link)
            else:
                link.close()

    def offer_service(self, link) -> None:
        """Hand a service link to :meth:`accept_service` (a live node's
        direct listener offers the ones that did not come routed)."""
        _hand(link, self._service_queue, self._service_waiters)

    def accept_service(self) -> Generator:
        """Wait for a peer-initiated service channel."""
        return self._take(self._service_queue, self._service_waiters)

    def accept_resume(self) -> Generator:
        """Wait for a peer re-establishing a broken session link."""
        return self._take(self._resume_queue, self._resume_waiters)

    @coroutine
    def await_data(self, nonce: int, timeout: float = 30.0) -> Generator:
        """Wait for the routed data channel of negotiation ``nonce``."""
        tag = data_tag(nonce)
        early = self._early_data.pop(tag, None)
        if early is not None:
            return early
        event = self.runtime.event()
        self._data_waiters[tag] = event
        try:
            return (yield from self.runtime.bounded(
                self.runtime.wait(event), timeout))
        except TimeoutError:
            self._data_waiters.pop(tag, None)
            raise TimeoutError(
                f"routed data channel for nonce {nonce} never arrived") from None

    @coroutine
    def _take(self, queue: list, waiters: list) -> Generator:
        event = self.runtime.event()
        if queue:
            event.set_result(queue.pop(0))
        else:
            waiters.append(event)
        return (yield from self.runtime.wait(event))


def _hand(link, queue: list, waiters: list) -> None:
    """``link`` to the first waiter still waiting, else onto ``queue``."""
    while waiters:
        waiter = waiters.pop(0)
        if not waiter.done():  # else: its task was cancelled
            waiter.set_result(link)
            return
    queue.append(link)
