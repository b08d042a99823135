"""Link model: serialization, propagation, queueing, loss."""

import random

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.link import Link, Transmitter
from repro.simnet.packet import SEGMENT_OVERHEAD, Segment


class _Sink:
    def __init__(self):
        self.got = []

    def __call__(self, seg):
        self.got.append(seg)


def _seg(n=0):
    return Segment(src=("1.1.1.1", 1), dst=("2.2.2.2", 2), payload=b"x" * n)


def _tx(sim, delay=0.01, bandwidth=1e6, queue=10**9, loss=0.0, seed=0):
    tx = Transmitter(sim, delay, bandwidth, queue, loss, random.Random(seed))
    sink = _Sink()
    tx.deliver = sink
    return tx, sink


def test_delivery_time_is_serialization_plus_propagation():
    sim = Simulator()
    tx, sink = _tx(sim, delay=0.01, bandwidth=1e6)
    seg = _seg(960)  # 1000 bytes on the wire
    tx.transmit(seg)
    sim.run()
    # 1000 B / 1e6 B/s = 1 ms serialization + 10 ms propagation
    assert sim.now == pytest.approx(0.011)
    assert sink.got == [seg]


def test_back_to_back_packets_serialize_sequentially():
    sim = Simulator()
    tx, sink = _tx(sim, delay=0.0, bandwidth=1e6)
    times = []
    tx.deliver = lambda seg: times.append(sim.now)
    for _ in range(3):
        tx.transmit(_seg(960))
    sim.run()
    assert times == [pytest.approx(0.001 * (i + 1)) for i in range(3)]


def test_queue_drop_tail():
    sim = Simulator()
    seg_size = SEGMENT_OVERHEAD + 960
    tx, sink = _tx(sim, bandwidth=1e6, queue=2 * seg_size)
    for _ in range(5):
        tx.transmit(_seg(960))
    sim.run()
    assert len(sink.got) == 2
    assert tx.stats.drops_queue == 3


def test_loss_is_deterministic_per_seed():
    def run(seed):
        sim = Simulator()
        tx, sink = _tx(sim, loss=0.5, seed=seed)
        for _ in range(50):
            tx.transmit(_seg(10))
        sim.run()
        return len(sink.got), tx.stats.drops_loss

    assert run(1) == run(1)
    delivered, dropped = run(1)
    assert delivered + dropped == 50
    assert 0 < dropped < 50


def test_counters_track_bytes():
    sim = Simulator()
    tx, sink = _tx(sim)
    tx.transmit(_seg(100))
    sim.run()
    assert tx.stats.tx_bytes == SEGMENT_OVERHEAD + 100
    assert tx.stats.delivered_bytes == SEGMENT_OVERHEAD + 100


def test_invalid_parameters_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Transmitter(sim, -1, 1e6, 10, 0.0, random.Random())
    with pytest.raises(ValueError):
        Transmitter(sim, 0.0, 0, 10, 0.0, random.Random())
    with pytest.raises(ValueError):
        Transmitter(sim, 0.0, 1e6, 10, 1.0, random.Random())


def test_retune_validates_as_the_constructor_does():
    tx, _ = _tx(Simulator())
    with pytest.raises(ValueError):
        tx.retune(bandwidth=0)
    with pytest.raises(ValueError):
        tx.retune(loss=1.0)
    with pytest.raises(ValueError):
        tx.retune(loss=-0.1)
    assert (tx.bandwidth, tx.loss) == (1e6, 0.0)


@pytest.mark.parametrize("name", ["bandwidth", "loss", "down", "queue_bytes"])
def test_link_parameters_change_only_through_retune(name):
    tx, _ = _tx(Simulator())
    with pytest.raises(AttributeError):
        setattr(tx, name, getattr(tx, name))


def test_a_transmission_is_one_heap_entry():
    sim = Simulator()
    tx, sink = _tx(sim)
    for _ in range(3):
        tx.transmit(_seg(960))
    assert sim.pending == 3
    sim.run(until=0.0005)
    tx.retune(bandwidth=5e5)  # re-times the two behind the wire
    assert sim.pending == 5
    sim.run()
    assert len(sink.got) == 3


def test_link_default_queue_is_bdp_floored():
    sim = Simulator()
    link = Link(sim, delay=0.1, bandwidth=1e7)
    assert link.a_to_b.queue_bytes == int(1e7 * 0.1)
    small = Link(sim, delay=0.0001, bandwidth=1e6)
    assert small.a_to_b.queue_bytes == 65536


def test_link_directions_independent():
    sim = Simulator()
    link = Link(sim, delay=0.01, bandwidth=1e6, name="t")

    class FakeIface:
        def __init__(self):
            self.got = []

        def attach(self, link, tx):
            self.tx = tx

        def receive(self, seg):
            self.got.append(seg)

    fa, fb = FakeIface(), FakeIface()
    link.connect(fa, fb)
    fa.tx.transmit(_seg(10))
    fa.tx.transmit(_seg(10))
    fb.tx.transmit(_seg(10))
    sim.run()
    assert len(fb.got) == 2
    assert len(fa.got) == 1


def test_repr_of_an_asymmetric_link_names_both_halves():
    link = Link(Simulator(), 0.01, 1e6, name="wan", delay_back=0.02)
    text = repr(link)
    assert "0.01" in text and "0.02" in text


# -- when a packet departs, and what decides its fate ------------------------
#
# A 960 B payload is 1 000 B on the wire: 1 ms at 1e6 B/s.  A packet
# *departs* when its last byte has been serialised; until then its bytes
# count against the drop-tail queue, and the link's parameters in force at
# that instant decide whether it arrives one ``delay`` later.


def _arrivals(sim, tx):
    times = []
    tx.deliver = lambda seg: times.append(sim.now)
    return times


def test_back_to_back_packets_depart_cumulatively_and_arrive_a_delay_later():
    sim = Simulator()
    tx, _ = _tx(sim, delay=0.01, bandwidth=1e6)
    times = _arrivals(sim, tx)
    for _ in range(3):
        tx.transmit(_seg(960))
    backlog = []
    for t in (0.0005, 0.0015, 0.0025, 0.0035):
        sim.run(until=t)
        backlog.append(tx.backlog_bytes)
    sim.run()
    assert backlog == [3000, 2000, 1000, 0]
    assert times == [pytest.approx(0.001 * (i + 1) + 0.01) for i in range(3)]
    assert tx.stats.tx_packets == tx.stats.delivered_packets == 3


def test_bandwidth_retune_retimes_only_the_packets_behind_the_wire():
    sim = Simulator()
    tx, _ = _tx(sim, delay=0.01, bandwidth=1e6)
    times = _arrivals(sim, tx)
    for _ in range(3):
        tx.transmit(_seg(960))
    sim.run(until=0.0005)  # the first packet is half-way onto the wire
    tx.retune(bandwidth=5e5)
    sim.run()
    # the first keeps its 1 ms; the other two take 2 ms each behind it
    assert times == [
        pytest.approx(0.011), pytest.approx(0.013), pytest.approx(0.015)
    ]


@pytest.mark.parametrize(
    "change, counter",
    [({"down": True}, "drops_down"), ({"loss": 0.999999}, "drops_loss")],
)
def test_fate_follows_the_parameters_in_force_at_departure(change, counter):
    def run(change_at):
        sim = Simulator()
        tx, sink = _tx(sim, delay=0.01, bandwidth=1e6)
        tx.transmit(_seg(960))  # departs at 1 ms, arrives at 11 ms
        sim.run(until=change_at)
        tx.retune(**change)
        sim.run()
        return len(sink.got), getattr(tx.stats, counter)

    assert run(0.005) == (1, 0)  # in flight: the change comes too late
    assert run(0.0005) == (0, 1)  # still serialising: the change applies


def test_retune_back_before_departure_leaves_the_packet_alone():
    sim = Simulator()
    tx, sink = _tx(sim, delay=0.01, bandwidth=1e6)
    tx.transmit(_seg(960))
    sim.run(until=0.0002)
    tx.retune(down=True)
    sim.run(until=0.0004)
    tx.retune(down=False)
    sim.run()
    assert len(sink.got) == 1 and tx.stats.drops_down == 0


def test_drop_tail_counts_bytes_that_have_not_finished_serialising():
    sim = Simulator()
    tx, sink = _tx(sim, delay=0.01, bandwidth=1e6, queue=2000)
    for _ in range(3):
        tx.transmit(_seg(960))
    assert tx.stats.drops_queue == 1  # the third did not fit behind two
    sim.run(until=0.0015)  # the first has departed, the second is on the wire
    assert tx.backlog_bytes == 1000
    tx.transmit(_seg(960))
    tx.transmit(_seg(960))
    assert tx.stats.drops_queue == 2
    assert tx.backlog_bytes == 2000
    sim.run()
    assert len(sink.got) == 3


def test_each_packet_decides_on_the_parameters_of_its_own_departure():
    sim = Simulator()
    tx, sink = _tx(sim, delay=0.01, bandwidth=1e6)
    segs = [_seg(960) for _ in range(3)]  # depart at 1, 2 and 3 ms
    for seg in segs:
        tx.transmit(seg)
    sim.run(until=0.0015)
    tx.retune(down=True)  # the first is in flight, the second on the wire
    sim.run(until=0.0025)
    tx.retune(down=False)  # the second has departed into the cut
    sim.run()
    assert sink.got == [segs[0], segs[2]]
    assert tx.stats.drops_down == 1
