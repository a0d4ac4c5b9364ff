"""Tests for size-or-deadline micro-batching and queue admission (asyncio)."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.serve.batcher import BatcherClosedError, MicroBatcher, QueueFullError


def run(coroutine):
    return asyncio.run(coroutine)


class _Collector:
    """Records dispatched batches; optionally parks inside dispatch."""

    def __init__(self, gated: bool = False) -> None:
        self.batches: list[list[object]] = []
        self.gate = asyncio.Event()
        if not gated:
            self.gate.set()

    async def __call__(self, batch: list[object]) -> None:
        await self.gate.wait()
        self.batches.append(list(batch))

    async def wait_for_batches(self, n: int, timeout: float = 5.0) -> None:
        deadline = time.monotonic() + timeout
        while len(self.batches) < n:
            if time.monotonic() > deadline:
                raise AssertionError(f"saw {len(self.batches)} batches, wanted {n}")
            await asyncio.sleep(0.002)

    @property
    def flat(self) -> list[object]:
        return [item for batch in self.batches for item in batch]


async def _started(collector: _Collector, **kwargs) -> MicroBatcher:
    batcher = MicroBatcher(collector, **kwargs)
    await batcher.start()
    return batcher


class TestTriggers:
    def test_size_trigger_dispatches_a_full_batch(self):
        async def scenario():
            collector = _Collector()
            batcher = await _started(
                collector, batch_size=4, batch_delay_s=5.0, max_queue=16
            )
            for item in range(4):
                batcher.submit(item)
            await collector.wait_for_batches(1)
            # Dispatched by size, long before the 5 s deadline.
            assert collector.batches[0] == [0, 1, 2, 3]
            await batcher.close()

        run(scenario())

    def test_deadline_trigger_fires_on_a_half_full_batch(self):
        async def scenario():
            collector = _Collector()
            batcher = await _started(
                collector, batch_size=8, batch_delay_s=0.05, max_queue=16
            )
            start = time.monotonic()
            for item in range(4):  # half of batch_size
                batcher.submit(item)
            await collector.wait_for_batches(1)
            elapsed = time.monotonic() - start
            assert collector.batches[0] == [0, 1, 2, 3]
            assert elapsed < 2.0  # deadline, not starvation
            await batcher.close()

        run(scenario())

    def test_deadline_runs_from_arrival_not_from_the_last_dispatch(self):
        async def scenario():
            collector = _Collector(gated=True)
            batcher = await _started(
                collector, batch_size=2, batch_delay_s=0.6, max_queue=16
            )
            batcher.submit("a")
            batcher.submit("b")  # size trigger; the dispatch parks on the gate
            deadline = time.monotonic() + 5
            while batcher.depth > 0:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.002)
            batcher.submit("late")  # queues while the first batch is in dispatch
            await asyncio.sleep(0.8)  # longer than batch_delay_s
            released = time.monotonic()
            collector.gate.set()
            await collector.wait_for_batches(2)
            # "late" already waited a whole window: it goes out at once,
            # not after a fresh batch_delay_s (0.6 s) timed from the release.
            assert time.monotonic() - released < 0.3
            assert collector.batches == [["a", "b"], ["late"]]
            await batcher.close()

        run(scenario())

    def test_arrival_order_is_preserved_across_batches(self):
        async def scenario():
            collector = _Collector()
            batcher = await _started(
                collector, batch_size=3, batch_delay_s=0.01, max_queue=64
            )
            for item in range(10):
                batcher.submit(item)
            deadline = time.monotonic() + 5
            while sum(len(b) for b in collector.batches) < 10:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.002)
            assert collector.flat == list(range(10))
            assert max(len(b) for b in collector.batches) <= 3
            await batcher.close()

        run(scenario())


class TestAdmission:
    def test_sheds_when_the_queue_is_full(self):
        async def scenario():
            collector = _Collector(gated=True)
            batcher = await _started(
                collector, batch_size=1, batch_delay_s=0.0, max_queue=2
            )
            batcher.submit("a")  # picked up by the collector, parks on the gate
            deadline = time.monotonic() + 5
            while batcher.depth > 0:  # wait for the collector to take "a"
                assert time.monotonic() < deadline
                await asyncio.sleep(0.002)
            batcher.submit("b")
            batcher.submit("c")
            with pytest.raises(QueueFullError):
                batcher.submit("d")
            assert batcher.shed == 1
            collector.gate.set()
            await batcher.close()
            # The shed item never reached dispatch.
            assert "d" not in collector.flat
            assert collector.flat == ["a", "b", "c"]

        run(scenario())

    def test_closed_batcher_rejects_submissions(self):
        async def scenario():
            collector = _Collector()
            batcher = await _started(collector, batch_size=2)
            await batcher.close()
            with pytest.raises(BatcherClosedError):
                batcher.submit("x")

        run(scenario())

    def test_constructor_validation(self):
        async def nothing(batch):
            pass

        for kwargs in ({"batch_size": 0}, {"batch_delay_s": -1}, {"max_queue": 0}):
            with pytest.raises(ValueError):
                MicroBatcher(nothing, **kwargs)


class TestShutdown:
    def test_drain_dispatches_queued_items(self):
        async def scenario():
            collector = _Collector(gated=True)
            batcher = await _started(
                collector, batch_size=2, batch_delay_s=0.0, max_queue=64
            )
            for item in range(6):
                batcher.submit(item)
            collector.gate.set()
            await batcher.close(drain=True)
            assert collector.flat == list(range(6))

        run(scenario())

    def test_close_without_drain_discards_waiting_items(self):
        async def scenario():
            collector = _Collector(gated=True)
            batcher = await _started(
                collector, batch_size=1, batch_delay_s=0.0, max_queue=64
            )
            batcher.submit("taken")
            deadline = time.monotonic() + 5
            while batcher.depth > 0:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.002)
            batcher.submit("dropped")
            collector.gate.set()
            await batcher.close(drain=False)
            assert "dropped" not in collector.flat

        run(scenario())

    def test_close_is_idempotent(self):
        async def scenario():
            collector = _Collector()
            batcher = await _started(collector)
            await batcher.close()
            await batcher.close()
            assert batcher.closed

        run(scenario())

    def test_close_before_start_is_safe(self):
        async def scenario():
            collector = _Collector()
            batcher = MicroBatcher(collector)
            await batcher.close()
            assert batcher.closed
            with pytest.raises(BatcherClosedError):
                batcher.submit("x")
            await batcher.start()  # post-close start must not revive it
            assert batcher.closed

        run(scenario())

    def test_dispatch_errors_do_not_kill_the_collector(self):
        async def explode(batch):
            raise RuntimeError("boom")

        async def scenario():
            batcher = MicroBatcher(explode, batch_size=1, batch_delay_s=0.0)
            await batcher.start()
            batcher.submit("a")
            batcher.submit("b")
            await batcher.close(drain=True)
            assert batcher.dispatch_errors == 2
            assert batcher.items_dispatched == 2

        run(scenario())

    def test_snapshot_counts(self):
        async def scenario():
            collector = _Collector()
            batcher = await _started(collector, batch_size=2, batch_delay_s=0.01)
            for item in range(4):
                batcher.submit(item)
            await batcher.close(drain=True)
            snap = batcher.snapshot()
            assert snap["items_dispatched"] == 4
            assert snap["depth"] == 0
            assert snap["batches"] >= 2
            assert snap["max_batch"] <= 2

        run(scenario())

    def test_counters_update_before_dispatch_completes(self):
        # Counters are bumped *before* the awaited dispatch call, so a
        # snapshot taken while dispatch is parked already sees them.
        async def scenario():
            collector = _Collector(gated=True)
            batcher = await _started(collector, batch_size=2, batch_delay_s=5.0)
            batcher.submit("a")
            batcher.submit("b")
            deadline = time.monotonic() + 5.0
            while batcher.snapshot()["batches"] < 1:
                if time.monotonic() > deadline:
                    raise AssertionError("collector never picked up the batch")
                await asyncio.sleep(0.002)
            snap = batcher.snapshot()
            assert snap["items_dispatched"] == 2
            assert snap["max_batch"] == 2
            assert collector.batches == []  # dispatch itself is still parked
            collector.gate.set()
            await batcher.close(drain=True)

        run(scenario())
