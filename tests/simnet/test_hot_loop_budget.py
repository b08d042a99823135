"""A structural budget for the packet tier's hot loop (docs/SIMNET.md).

Wall time on a shared host cannot tell a 10 % regression from noise; the
number of calls the interpreter makes per packet can, exactly.  One fixed
lossy transfer runs under ``sys.setprofile`` and the test holds two
numbers: the calls (Python and C, what cProfile totals) per link
transmission, and the count of events the engine scheduled.  Both are
deterministic and host-independent.  The first fails the change that puts
a per-packet closure, ``Event`` or trace dict back on the data path; the
second fails the change that schedules a different simulation.
"""

import sys

from repro.simnet.testing import run_transfer, wan_pair

#: this path measured 23.7 when the budget was set (27.7 with two heap
#: entries per hop, 59.5 before the bare heap entries); the bound leaves
#: ~15 % for interpreter differences
CALLS_PER_TRANSMISSION = 27


def test_calls_per_transmission_and_events_scheduled():
    inet, a, b = wan_pair(capacity=2e6, one_way_delay=0.01, loss=0.01, seed=7)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        result = run_transfer(inet, a, b, 1_000_000)
    finally:
        sys.setprofile(None)
    transmissions = sum(
        direction.stats.tx_packets
        for link in inet.net.links
        for direction in (link.a_to_b, link.b_to_a)
    )
    assert result["received"] == 1_000_000
    # the same simulation: every packet and every scheduled entry
    assert transmissions == 9599
    assert inet.sim._seq == 11246  # one entry per transmission, plus timers
    assert calls / transmissions <= CALLS_PER_TRANSMISSION, (
        f"{calls / transmissions:.1f} calls per link transmission"
    )
