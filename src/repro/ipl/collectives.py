"""WAN-aware collective operations over the IPL (MagPIe-style).

The paper's group cites the authors' MagPIe library: "optimizes the
performance of MPI's collective operations in grid systems" by ensuring
every wide-area link is traversed at most once — a broadcast crosses the
WAN once per remote *cluster* (to a coordinator that fans out locally)
instead of once per remote *member*.

:class:`CollectiveGroup` implements that structure on top of IPL send and
receive ports: a static two-level tree rooted at a designated member, with
one coordinator per cluster.  ``broadcast``, ``reduce`` and ``barrier``
are provided; a flat (cluster-oblivious) mode serves as the baseline the
ablation benchmark compares against.  Written on :mod:`repro.core.runtime`:
a group runs over the simulated ``Ibis`` and over ``LiveIbis`` alike.
"""

from __future__ import annotations

from typing import Callable, Optional

from .ports import ReceivePort, SendPort
from .runtime import Ibis

__all__ = ["CollectiveGroup", "CollectiveError"]


class CollectiveError(Exception):
    """Group misconfiguration or protocol failure."""


class CollectiveGroup:
    """One member's view of a collective group.

    Every member constructs the group with identical parameters
    (deterministic topology) and calls :meth:`setup`; afterwards the
    collective operations can be invoked in the same order on every
    member (standard collective semantics).

    Parameters
    ----------
    ibis:
        This member's runtime.
    name:
        Group name (namespaces the ports).
    members:
        All member node names.
    clusters:
        ``member -> cluster name`` (e.g. derived from sites).
    root:
        The tree root (defaults to the first member).
    wan_aware:
        If False, a flat topology is used — the root talks to every member
        directly across the WAN (the baseline MagPIe improves on).
    """

    def __init__(
        self,
        ibis: Ibis,
        name: str,
        members: list[str],
        clusters: dict[str, str],
        root: Optional[str] = None,
        wan_aware: bool = True,
    ):
        if sorted(set(members)) != sorted(members):
            raise CollectiveError("duplicate members")
        if set(clusters) != set(members):
            raise CollectiveError("clusters must cover exactly the members")
        self.ibis = ibis
        self.name = name
        self.members = list(members)
        self.clusters = dict(clusters)
        self.root = root or members[0]
        if self.root not in members:
            raise CollectiveError(f"root {self.root!r} not a member")
        self.me = ibis.name
        if self.me not in members:
            raise CollectiveError(f"{self.me!r} not in the group")
        self.wan_aware = wan_aware
        self._receive_port: Optional[ReceivePort] = None
        self._send_ports: dict[str, SendPort] = {}
        self._op_seq = 0
        # (op, seq) -> [(origin, payload)]: messages that arrived ahead of
        # the operation this member is currently executing (a fast sender
        # may race ahead to its next collective)
        self._pending: dict[tuple, list] = {}

    # -- topology ---------------------------------------------------------
    def coordinator(self, cluster: str) -> str:
        """The cluster's coordinator: the root if it lives there, else the
        first member of the cluster."""
        if self.clusters[self.root] == cluster:
            return self.root
        return min(m for m in self.members if self.clusters[m] == cluster)

    @property
    def my_cluster(self) -> str:
        return self.clusters[self.me]

    @property
    def is_coordinator(self) -> bool:
        return self.coordinator(self.my_cluster) == self.me

    def children(self) -> list[str]:
        """Members this node sends to in a root-to-leaves sweep."""
        if not self.wan_aware:
            return [m for m in self.members if m != self.root] if self.me == self.root else []
        if self.me == self.root:
            remote_coords = [
                self.coordinator(c)
                for c in sorted(set(self.clusters.values()))
                if c != self.my_cluster
            ]
            local = [
                m
                for m in self.members
                if self.clusters[m] == self.my_cluster and m != self.me
            ]
            return remote_coords + local
        if self.is_coordinator:
            return [
                m
                for m in self.members
                if self.clusters[m] == self.my_cluster and m != self.me
            ]
        return []

    def parent(self) -> Optional[str]:
        """The member this node receives from in a root-to-leaves sweep."""
        if self.me == self.root:
            return None
        if not self.wan_aware:
            return self.root
        coord = self.coordinator(self.my_cluster)
        if self.me == coord:
            return self.root
        return coord

    # -- wiring ------------------------------------------------------------
    def _port_name(self, member: str) -> str:
        return f"coll:{self.name}:{member}"

    async def setup(self):
        """Create this member's port and connect the tree edges.

        Every edge is wired in both directions (down-sweep for broadcast,
        up-sweep for reduce/barrier).
        """
        self._receive_port = await self.ibis.create_receive_port(
            self._port_name(self.me)
        )
        neighbours = list(self.children())
        if self.parent() is not None:
            neighbours.append(self.parent())
        for peer in neighbours:
            port = self.ibis.create_send_port(f"coll:{self.name}:to:{peer}")
            while True:
                try:
                    await port.connect(self._port_name(peer))
                    break
                except Exception:
                    await self.ibis.runtime.sleep(0.2)
            self._send_ports[peer] = port

    # -- primitives ----------------------------------------------------------
    async def _send(self, peer: str, op: str, seq: int, payload):
        message = self._send_ports[peer].new_message()
        message.write_string(op)
        message.write_int(seq)
        message.write_object(payload)
        await message.finish()

    async def _recv(self, op: str, seq: int):
        key = (op, seq)
        stash = self._pending.get(key)
        if stash:
            item = stash.pop(0)
            if not stash:
                del self._pending[key]
            return item
        while True:
            message = await self._receive_port.receive()
            got_op = message.read_string()
            got_seq = message.read_int()
            payload = message.read_object()
            if (got_op, got_seq) == key:
                return message.origin, payload
            if got_seq < seq:
                raise CollectiveError(
                    f"stale collective message {got_op}#{got_seq} "
                    f"while executing {op}#{seq}"
                )
            # A sender raced ahead: park its message for the later op.
            self._pending.setdefault((got_op, got_seq), []).append(
                (message.origin, payload)
            )

    # -- operations -----------------------------------------------------------
    async def broadcast(self, value=None):
        """Root's ``value`` delivered to every member; returns it."""
        self._op_seq += 1
        seq = self._op_seq
        if self.me != self.root:
            _origin, value = await self._recv("bcast", seq)
        for child in self.children():
            await self._send(child, "bcast", seq, value)
        return value

    async def reduce(self, value, op: Callable):
        """Combine every member's ``value`` with ``op`` at the root.

        Returns the reduction at the root, None elsewhere.  ``op`` must be
        associative and commutative (partial reductions happen at
        coordinators — the MagPIe trick that keeps WAN traffic at one
        message per cluster).
        """
        self._op_seq += 1
        seq = self._op_seq
        accumulated = value
        for _child in self.children():
            _origin, contribution = await self._recv("reduce", seq)
            accumulated = op(accumulated, contribution)
        parent = self.parent()
        if parent is not None:
            await self._send(parent, "reduce", seq, accumulated)
            return None
        return accumulated

    async def barrier(self):
        """All members arrive before any leaves (reduce + broadcast)."""
        self._op_seq += 1
        seq = self._op_seq
        for _child in self.children():
            await self._recv("barrier-up", seq)
        parent = self.parent()
        if parent is not None:
            await self._send(parent, "barrier-up", seq, None)
            _origin, _none = await self._recv("barrier-down", seq)
        for child in self.children():
            await self._send(child, "barrier-down", seq, None)

    async def allreduce(self, value, op: Callable):
        """Reduce followed by broadcast: everyone gets the result."""
        reduced = await self.reduce(value, op)
        result = await self.broadcast(reduced)
        return result
