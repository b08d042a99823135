#!/usr/bin/env python3
"""Quickstart: two grid nodes exchanging typed messages across firewalls.

Builds a tiny grid — two sites, both behind stateful firewalls, plus a
public relay — and runs two Ibis instances.  The library negotiates the
connection (TCP splicing, since both sites drop unsolicited inbound SYNs)
and delivers typed IPL messages over it.

Run:  python examples/quickstart.py
"""

import array

from repro.core.scenarios import GridScenario


def main() -> None:
    # 1. The world: two firewalled sites + the public relay/registry host.
    scenario = GridScenario(seed=42)
    scenario.add_site("amsterdam", "firewall")
    scenario.add_site("rennes", "firewall")

    # 2. Two Ibis instances (one process per site).
    alice = scenario.add_ibis("amsterdam", "alice")
    bob = scenario.add_ibis("rennes", "bob")

    async def bob_proc():
        await bob.start()
        inbox = await bob.create_receive_port("bob-inbox")
        message = await inbox.receive()
        print(f"[bob]   from={message.origin}")
        print(f"[bob]   text={message.read_string()!r}")
        print(f"[bob]   ints={list(message.read_array())}")
        message.finish()

    async def alice_proc():
        await alice.start()
        out = alice.create_send_port("alice-out")
        # Retry until bob has registered his port with the name service.
        while True:
            try:
                await out.connect("bob-inbox")
                break
            except Exception:
                await scenario.runtime.sleep(0.2)
        channel = out.channels["bob-inbox"]
        print(f"[alice] connected via {channel.driver.link.method}"
              if hasattr(channel.driver, "link") else "[alice] connected")
        msg = out.new_message()
        msg.write_string("hello across two firewalls")
        msg.write_array(array.array("i", [1, 2, 3]))
        await msg.finish()
        print("[alice] message sent")

    scenario.spawn(bob_proc(), "bob")
    scenario.spawn(alice_proc(), "alice")
    scenario.run(until=120)
    print(f"done at simulated t={scenario.sim.now:.3f}s")


if __name__ == "__main__":
    main()
