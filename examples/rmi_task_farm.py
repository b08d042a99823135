#!/usr/bin/env python3
"""A programming model on top of the IPL: RMI-style task farming.

The paper's Ibis stack (Figure 5) layers programming models — RMI, GMI,
Satin — over the IPL's message channels.  This example sketches the same
layering: a coordinator farms out function calls to workers on three
differently-restricted sites; request/reply is two unidirectional channels.

Run:  python examples/rmi_task_farm.py
"""

from repro.core.scenarios import GridScenario

WORK_ITEMS = [(n, n * 1000) for n in range(2, 8)]  # (task id, argument)


def integrate(argument: int) -> float:
    """The 'remote method': some CPU-bound numeric work."""
    total = 0.0
    for i in range(1, 200):
        total += 1.0 / (argument + i)
    return total


def main() -> None:
    scenario = GridScenario(seed=77)
    scenario.add_site("cluster", "open")
    scenario.add_site("campus", "firewall")
    scenario.add_site("lab", "cone_nat")
    coordinator = scenario.add_ibis("cluster", "coordinator")
    workers = [
        scenario.add_ibis("campus", "worker-0"),
        scenario.add_ibis("lab", "worker-1"),
    ]
    results = {}

    async def worker_proc(ibis, index):
        await ibis.start()
        requests = await ibis.create_receive_port(f"requests-{index}")
        replies = ibis.create_send_port("replies-out")
        while True:
            try:
                await replies.connect("replies")
                break
            except Exception:
                await scenario.runtime.sleep(0.2)
        while True:
            message = await requests.receive()
            task_id = message.read_int()
            if task_id < 0:
                return  # poison pill
            argument = message.read_long()
            value = integrate(argument)
            reply = replies.new_message()
            reply.write_int(task_id).write_double(value).write_string(ibis.name)
            await reply.finish()

    async def coordinator_proc():
        await coordinator.start()
        replies = await coordinator.create_receive_port("replies")
        request_ports = []
        for index in range(len(workers)):
            port = coordinator.create_send_port(f"req-{index}")
            while True:
                try:
                    await port.connect(f"requests-{index}")
                    break
                except Exception:
                    await scenario.runtime.sleep(0.2)
            request_ports.append(port)
        # Round-robin dispatch.
        for i, (task_id, argument) in enumerate(WORK_ITEMS):
            message = request_ports[i % len(request_ports)].new_message()
            message.write_int(task_id).write_long(argument)
            await message.finish()
        # Collect.
        for _ in WORK_ITEMS:
            reply = await replies.receive()
            task_id = reply.read_int()
            value = reply.read_double()
            who = reply.read_string()
            results[task_id] = (value, who)
        # Shut the workers down.
        for port in request_ports:
            message = port.new_message()
            message.write_int(-1).write_long(0)
            await message.finish()

    scenario.spawn(coordinator_proc(), "coordinator")
    for index, worker in enumerate(workers):
        scenario.spawn(worker_proc(worker, index), worker.name)
    scenario.run(until=300)

    print(f"{'task':>5s} {'result':>12s}  computed by")
    for task_id in sorted(results):
        value, who = results[task_id]
        expected = integrate(dict(WORK_ITEMS)[task_id])
        assert abs(value - expected) < 1e-12
        print(f"{task_id:5d} {value:12.6f}  {who}")
    print(f"\n{len(results)} remote invocations across firewalled/NATted "
          f"sites, t={scenario.sim.now:.2f}s simulated")


if __name__ == "__main__":
    main()
