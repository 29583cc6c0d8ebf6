"""Concurrency regression tests for the monitor's ring buffers.

Two bugs these pin down:

* ``KeyedRingBuffer`` insert race — a containment probe followed by
  ``upsert`` let two sessions both observe a miss for the same new key
  and both report it as newly created (double-logging statement
  references).  ``upsert_tracked`` does the check and the write in one
  critical section, so exactly one racer wins.
* ``RingBuffer.clear()`` vs concurrent appenders — a snapshot taken
  around a clear must never mix pre-clear and post-clear sequence
  ranges; the window is always one contiguous, gap-free seq run.

A third class polls with bounded ``snapshot(high_water)`` reads while
writers run, the way the storage daemon does, and checks that no
record is lost or read twice.
"""

import random
import sys
import threading

from repro.core.ring_buffer import KeyedRingBuffer, RingBuffer


class TestUpsertTrackedRace:
    def test_two_threads_exactly_one_creation_per_key(self):
        buffer: KeyedRingBuffer[int, int] = KeyedRingBuffer(capacity=4096)
        keys = list(range(400))
        created_counts = [0, 0]
        barrier = threading.Barrier(2)

        def racer(slot: int) -> None:
            barrier.wait()
            wins = 0
            for key in keys:
                _value, created = buffer.upsert_tracked(
                    key,
                    create=lambda k=key: k,
                    update=lambda value: value + 1000)
                if created:
                    wins += 1
            created_counts[slot] = wins

        threads = [threading.Thread(target=racer, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every key was created exactly once across both threads; the
        # loser's update path refreshed the winner's record instead.
        assert sum(created_counts) == len(keys)
        for key in keys:
            value = buffer.get(key)
            assert value is not None and value == key + 1000

    def test_upsert_delegates_to_tracked(self):
        buffer: KeyedRingBuffer[int, str] = KeyedRingBuffer(capacity=4)
        assert buffer.upsert(1, create=lambda: "a") == "a"
        assert buffer.upsert(1, create=lambda: "b",
                             update=lambda v: v + "!") == "a!"
        _value, created = buffer.upsert_tracked(1, create=lambda: "c")
        assert not created


class TestClearSnapshotUnderAppenders:
    def test_snapshots_never_mix_pre_and_post_clear_ranges(self):
        rng = random.Random(20090329)
        buffer: RingBuffer[int] = RingBuffer(capacity=64)
        stop = threading.Event()

        def appender() -> None:
            value = 0
            while not stop.is_set():
                buffer.append(value)
                value += 1

        threads = [threading.Thread(target=appender) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            max_seen = 0
            for _round in range(300):
                if rng.random() < 0.2:
                    buffer.clear()
                snapshot = buffer.snapshot()
                seqs = [seq for seq, _item in snapshot]
                if not seqs:
                    continue
                # Contiguous, gap-free, strictly ascending window: any
                # interleaving of pre-/post-clear records would leave a
                # hole in the range.
                assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
                # Sequence numbering survives clears (never reused):
                assert seqs[0] > 0
                assert seqs[-1] >= max_seen
                max_seen = seqs[-1]
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    def test_clear_preserves_sequence_space(self):
        buffer: RingBuffer[str] = RingBuffer(capacity=8)
        for i in range(5):
            buffer.append(f"r{i}")
        high = buffer.snapshot()[-1][0]
        buffer.clear()
        assert len(buffer) == 0
        buffer.append("after")
        (seq, item), = buffer.snapshot()
        assert item == "after" and seq == high + 1


class TestBoundedPollUnderWriters:
    """A poller that reads ``snapshot(high_water)`` and advances its mark
    to the newest seq it saw must see every record exactly once."""

    WRITERS = 6  # more than the cores a CI runner has

    def _run(self, write, poll):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=write, args=(slot,))
                   for slot in range(self.WRITERS)]
        try:
            for thread in threads:
                thread.start()
            while any(thread.is_alive() for thread in threads):
                poll()
        finally:
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        poll()

    def test_ring_poller_reads_every_append_once(self):
        per_writer = 2000
        buffer: RingBuffer[int] = RingBuffer(
            capacity=self.WRITERS * per_writer)
        seen: list[int] = []
        mark = [0]

        def write(_slot: int) -> None:
            for value in range(per_writer):
                buffer.append(value)

        def poll() -> None:
            newer = buffer.snapshot(mark[0])
            seqs = [seq for seq, _item in newer]
            assert seqs == list(range(mark[0] + 1, mark[0] + 1 + len(seqs)))
            if seqs:
                seen.extend(seqs)
                mark[0] = seqs[-1]

        self._run(write, poll)
        assert seen == list(range(1, self.WRITERS * per_writer + 1))

    def test_keyed_poller_sees_every_final_version(self):
        buffer: KeyedRingBuffer[int, tuple[int, int]] = \
            KeyedRingBuffer(capacity=64)
        seen: dict[int, tuple[int, int]] = {}
        mark = [0]

        def write(slot: int) -> None:
            rng = random.Random(slot)
            for step in range(1500):
                key = rng.randrange(96)  # more keys than slots: evictions
                if step % 3:
                    buffer.upsert(key, create=lambda: (slot, 0),
                                  update=lambda v: (slot, v[1] + 1))
                else:
                    buffer.bump(key, lambda v, owner: (owner, v[1] + 1),
                                slot)

        def poll() -> None:
            newer = buffer.snapshot(mark[0])
            seqs = [seq for seq, _value in newer]
            assert seqs == sorted(set(seqs))
            assert all(seq > mark[0] for seq in seqs)
            for seq, value in newer:
                seen[seq] = value
            if seqs:
                mark[0] = seqs[-1]

        self._run(write, poll)
        for seq, value in buffer.snapshot():
            assert seen.get(seq) == value
