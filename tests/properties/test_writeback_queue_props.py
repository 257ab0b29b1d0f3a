"""The writeback queue against a ``heapq`` of ``(ready, seq)`` items.

Writeback order decides when each scoreboard entry is released and in
which order DARSIE's leaders become visible, so the queue must hand
out the in-flight instructions in ready-cycle order, ties in issue
order: exactly what a heap keyed by ``(ready, seq)`` pops.  The
generated runs schedule instructions with equal and unequal latencies
(ties included), pop one cycle at a time, and jump straight to
``next_ready()``, so one pop can take several ready cycles (the GPU
steps every cycle, but a latency of 0 leaves a bucket due before the
next pop); after every step the items popped, ``len`` and
``next_ready`` (which the watchdog's dump reads) must agree with the
reference.
"""

import heapq

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.timing.buffers import WritebackQueue


class _Warp:
    """What the queue touches of a warp: its in-flight count."""

    def __init__(self) -> None:
        self.inflight = 0


#: one step: schedule an instruction ``latency`` cycles out, advance the
#: clock one cycle and pop, or jump to the next ready cycle and pop
steps = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 6)),
        st.tuples(st.just("tick"), st.just(0)),
        st.tuples(st.just("jump"), st.just(0)),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(steps=steps, warps=st.integers(1, 3))
# Two ready cycles due at one pop, each holding a tie, then a jump.
@example(steps=[("schedule", 0), ("schedule", 1), ("schedule", 0), ("schedule", 1),
                ("schedule", 4), ("tick", 0), ("jump", 0)], warps=2)
def test_pops_the_heap_order(steps, warps):
    queue = WritebackQueue()
    reference = []
    pool = [_Warp() for _ in range(warps)]
    now = seq = 0
    for op, latency in steps:
        if op == "schedule":
            wrt, entry = pool[seq % warps], object()
            seq += 1
            queue.schedule(now + latency, wrt, entry)
            heapq.heappush(reference, (now + latency, seq, wrt, entry))
        else:
            if op == "tick":
                now += 1
            elif queue.next_ready() is not None:
                now = max(now, queue.next_ready())
            due = queue.pop_due(now)
            want = []
            while reference and reference[0][0] <= now:
                want.append(heapq.heappop(reference))
            # The warp and the entry end each item in both layouts.
            assert [(item[-2], item[-1]) for item in due] == [item[2:] for item in want]
        assert len(queue) == len(reference)
        assert bool(queue) == bool(reference)
        assert queue.next_ready() == (reference[0][0] if reference else None)
        assert sorted(id(item[-1]) for item in queue.pending()) == sorted(
            id(item[3]) for item in reference
        )
    assert sum(w.inflight for w in pool) == seq
