"""Event-loop ordering: the (time, kind, seq) key is total and deterministic."""

from __future__ import annotations

from repro.netsim.events import BOUNDARY, CONTROL, RATE_CHANGE, EventLoop


def test_pops_in_time_order():
    loop = EventLoop()
    loop.schedule(3.0, RATE_CHANGE, 0, "c")
    loop.schedule(1.0, RATE_CHANGE, 0, "a")
    loop.schedule(2.0, RATE_CHANGE, 0, "b")
    popped = [loop.pop() for _ in range(3)]
    assert [fields for _, _, _, fields in popped] == [(0, "a"), (0, "b"), (0, "c")]
    assert [time for time, _, _, _ in popped] == [1.0, 2.0, 3.0]


def test_kind_priority_breaks_time_ties():
    """At one instant: rate changes, then boundaries, then control events."""
    loop = EventLoop()
    loop.schedule(1.0, CONTROL, "end")
    loop.schedule(1.0, BOUNDARY, 0, 0, 0, 0.0, "full")
    loop.schedule(1.0, RATE_CHANGE, 0, 1.5)
    kinds = [loop.pop()[1] for _ in range(3)]
    assert kinds == [RATE_CHANGE, BOUNDARY, CONTROL]


def test_schedule_order_breaks_full_ties():
    loop = EventLoop()
    loop.schedule(1.0, RATE_CHANGE, 0, "first")
    loop.schedule(1.0, RATE_CHANGE, 1, "second")
    loop.schedule(1.0, RATE_CHANGE, 2, "third")
    tags = [loop.pop()[3][1] for _ in range(3)]
    assert tags == ["first", "second", "third"]


def test_seq_is_monotone_across_pops():
    loop = EventLoop()
    for _ in range(5):
        loop.schedule(1.0, RATE_CHANGE, 0, 0.0)
    seqs = [loop.pop()[2] for _ in range(5)]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == 5


def test_len_peek_and_bool():
    loop = EventLoop()
    assert not loop
    assert len(loop) == 0
    loop.schedule(2.5, CONTROL, "end")
    assert loop
    assert len(loop) == 1
    assert loop.peek_time() == 2.5
    assert loop.pop() == (2.5, CONTROL, 0, ("end",))
    assert not loop
