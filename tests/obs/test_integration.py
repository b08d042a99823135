"""End-to-end: a brokered parallel+compression transfer on each backend
produces the expected counters and spans in the shared registry."""

import asyncio

import pytest

from repro import StackSpec, obs
from repro.core.scenarios import GridScenario
from repro.core.utilization import BlockChannel, CompressionDriver, TcpBlockDriver
from repro.core.utilization.base import DriverError
from repro.livenet import (
    AsyncParallelStreamsDriver,
    live_connect,
    live_listen,
)

TOTAL = 2_000_000
SPEC = StackSpec.parallel(4).with_compression()


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


async def _socket_pair(n=1):
    listener = await live_listen()
    client_socks, server_socks = [], []
    for _ in range(n):
        client, server = await asyncio.gather(
            live_connect(listener.addr), listener.accept()
        )
        client_socks.append(client)
        server_socks.append(server)
    listener.close()
    return client_socks, server_socks


class TestSimnetTransfer:
    @pytest.fixture
    def transfer(self, fresh_obs):
        recorder = obs.enable_tracing()
        sc = GridScenario(seed=71)
        for name in ("a", "b"):
            sc.add_site(name, "open", access_bandwidth=4e6, access_delay=0.005)
        sc.add_node("a", "src")
        sc.add_node("b", "dst")
        result = sc.measure_stack_throughput(
            "src", "dst", SPEC, b"p" * 65536, TOTAL
        )
        return fresh_obs, recorder, sc, result

    def test_driver_counters(self, transfer):
        reg, _rec, _sc, result = transfer
        # the helper rounds up to whole 64 KiB messages
        assert result["received"] == result["sent"] >= TOTAL
        tx = reg.get("driver.bytes_total", driver="parallel", direction="tx")
        rx = reg.get("driver.bytes_total", driver="parallel", direction="rx")
        assert tx.value == rx.value > 0
        # the payload is all-"p", so the wire carried far fewer bytes
        assert tx.value < result["sent"]
        assert reg.get("driver.streams", driver="parallel").value == 4
        hist = reg.get("driver.block_bytes",
                       driver="parallel", direction="tx")
        assert hist.count > 0 and hist.sum == tx.value

    def test_compression_counters(self, transfer):
        reg, _rec, _sc, result = transfer
        bytes_in = reg.get("compress.bytes_total",
                           driver="compress", stage="in")
        bytes_out = reg.get("compress.bytes_total",
                            driver="compress", stage="out")
        assert bytes_in.value == result["sent"]
        assert 0 < bytes_out.value < bytes_in.value
        assert reg.get("compress.ratio", driver="compress").value > 1.0

    def test_establishment_metrics_and_spans(self, transfer):
        reg, rec, _sc, _result = transfer
        ok_initiator = sum(
            c.value for c in reg.instruments("establish.attempts_total")
            if c.labels["outcome"] == "ok" and c.labels["role"] == "initiator"
        )
        assert ok_initiator >= SPEC.links_required == 4
        seconds = reg.instruments("establish.attempt_seconds")
        assert sum(h.count for h in seconds) >= 8  # both roles recorded
        ok_spans = [
            s for s in rec.spans("establish.attempt")
            if s["attrs"]["outcome"] == "ok"
        ]
        assert len(ok_spans) >= 8
        assert all("method" in s["attrs"] for s in ok_spans)

    def test_stack_assembly_spans_and_sim_clock(self, transfer):
        reg, rec, sc, _result = transfer
        assembles = rec.spans("stack.assemble")
        assert {s["attrs"]["role"] for s in assembles} == {
            "initiator", "responder"
        }
        for record in assembles:
            assert record["attrs"]["spec"] == str(SPEC) == "compress:1|parallel:4"
            assert record["attrs"]["links"] == 4
            # timestamps follow the simulation clock, not the wall clock
            assert 0.0 <= record["ts"] <= sc.sim.now
        assert reg.now() == sc.sim.now


class TestLivenetTransfer:
    def test_live_parallel_compress_counters(self, fresh_obs):
        payload = b"live-payload!" * 5041  # ~64 KiB, compressible
        rounds = 8

        async def main():
            client_socks, server_socks = await _socket_pair(4)
            sender = BlockChannel(CompressionDriver(
                AsyncParallelStreamsDriver(client_socks, fragment=2048)))
            receiver = BlockChannel(CompressionDriver(
                AsyncParallelStreamsDriver(server_socks, fragment=2048)))

            async def send():
                for _ in range(rounds):
                    await sender.write(payload)
                await sender.flush()
                sender.close()

            async def recv():
                total = 0
                while True:
                    data = await receiver.read(1 << 20)
                    if not data:
                        break
                    total += len(data)
                receiver.close()
                return total

            _, total = await asyncio.gather(send(), recv())
            return total

        assert run(main()) == rounds * len(payload)
        reg = fresh_obs
        tx = reg.get("driver.bytes_total", driver="parallel", direction="tx")
        rx = reg.get("driver.bytes_total", driver="parallel", direction="rx")
        assert tx.value == rx.value > 0
        assert reg.get("driver.streams", driver="parallel").value == 4
        assert reg.get("compress.bytes_total", driver="compress",
                       stage="in").value == rounds * len(payload)
        assert reg.get("compress.ratio", driver="compress").value > 1.0
        # one label set on both backends: who drives a driver is not a label
        assert all("backend" not in inst.labels for inst in reg.instruments())


class TestConstructorParity:
    """The live striping driver takes the sim one's positional shape (every
    other driver is the same class on both backends)."""

    def test_tcp_block_takes_link(self):
        class FakeSock:
            def close(self):
                pass

        sock = FakeSock()
        assert TcpBlockDriver(sock).link is sock

    def test_parallel_takes_links_and_rejects_empty(self):
        class FakeSock:
            def close(self):
                pass

        socks = [FakeSock(), FakeSock()]

        async def main():
            driver = AsyncParallelStreamsDriver(socks, fragment=512)
            assert driver.links == socks
            assert driver.nstreams == 2
            driver.close()
            await asyncio.sleep(0)

        run(main())
        with pytest.raises(DriverError):  # the shared driver's typed error
            AsyncParallelStreamsDriver([])
