"""Tests for the monitor's ring buffers."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.ring_buffer import KeyedRingBuffer, RingBuffer


class TestRingBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RingBuffer(0)

    def test_append_and_snapshot_order(self):
        buffer = RingBuffer(10)
        for i in range(5):
            buffer.append(f"item{i}")
        assert buffer.values() == [f"item{i}" for i in range(5)]
        assert len(buffer) == 5

    def test_sequence_numbers_monotonic(self):
        buffer = RingBuffer(3)
        seqs = [buffer.append(i) for i in range(7)]
        assert seqs == list(range(1, 8))
        assert buffer.total_appended == 7

    def test_wraparound_keeps_newest(self):
        buffer = RingBuffer(3)
        for i in range(10):
            buffer.append(i)
        assert buffer.values() == [7, 8, 9]
        assert buffer.dropped == 7

    def test_snapshot_min_seq(self):
        buffer = RingBuffer(10)
        for i in range(5):
            buffer.append(i)
        newer = buffer.snapshot(min_seq=3)
        assert [item for _seq, item in newer] == [3, 4]

    def test_snapshot_min_seq_after_wrap(self):
        buffer = RingBuffer(3)
        for i in range(10):
            buffer.append(i)
        # records up to seq 7 fell out; asking for > 5 returns what's left
        newer = buffer.snapshot(min_seq=5)
        assert [item for _seq, item in newer] == [7, 8, 9]

    def test_clear(self):
        buffer = RingBuffer(3)
        buffer.append(1)
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.snapshot() == []

    def test_clear_resets_drop_accounting(self):
        buffer = RingBuffer(3)
        for i in range(10):
            buffer.append(i)
        assert buffer.dropped == 7
        buffer.clear()
        assert buffer.dropped == 0

    def test_clear_keeps_sequence_high_water(self):
        # The daemon's per-buffer high-water marks must stay valid across
        # a clear: sequence numbers are never reused.
        buffer = RingBuffer(3)
        for i in range(5):
            buffer.append(i)
        assert buffer.total_appended == 5
        buffer.clear()
        assert buffer.append("fresh") == 6


class TestKeyedRingBuffer:
    def test_upsert_create_and_update(self):
        buffer = KeyedRingBuffer(10)
        buffer.upsert("a", create=lambda: 1)
        value = buffer.upsert("a", create=lambda: 99,
                              update=lambda v: v + 1)
        assert value == 2
        assert buffer.get("a") == 2
        assert len(buffer) == 1

    def test_get_missing(self):
        assert KeyedRingBuffer(2).get("x") is None

    def test_lru_eviction(self):
        buffer = KeyedRingBuffer(3)
        for key in "abc":
            buffer.upsert(key, create=lambda k=key: k)
        buffer.upsert("a", create=lambda: "a")  # refresh 'a'
        buffer.upsert("d", create=lambda: "d")  # evicts 'b'
        assert "b" not in buffer
        assert "a" in buffer
        assert buffer.evicted == 1

    def test_update_refreshes_seq(self):
        buffer = KeyedRingBuffer(10)
        buffer.upsert("a", create=lambda: 1)
        buffer.upsert("b", create=lambda: 2)
        first_snapshot = dict()
        for seq, value in buffer.snapshot():
            first_snapshot[value] = seq
        buffer.upsert("a", create=lambda: 0, update=lambda v: v)
        refreshed = {value: seq for seq, value in buffer.snapshot()}
        assert refreshed[1] > first_snapshot[1]

    def test_snapshot_min_seq_only_changed(self):
        buffer = KeyedRingBuffer(10)
        buffer.upsert("a", create=lambda: "a")
        buffer.upsert("b", create=lambda: "b")
        high_water = max(seq for seq, _ in buffer.snapshot())
        buffer.upsert("a", create=lambda: "a", update=lambda v: v)
        changed = buffer.snapshot(min_seq=high_water)
        assert [value for _seq, value in changed] == ["a"]

    def test_contains_and_keys(self):
        buffer = KeyedRingBuffer(4)
        buffer.upsert(("x", 1), create=lambda: "v")
        assert ("x", 1) in buffer
        assert list(buffer.keys()) == [("x", 1)]

    def test_clear(self):
        buffer = KeyedRingBuffer(4)
        buffer.upsert("a", create=lambda: 1)
        buffer.clear()
        assert len(buffer) == 0

    def test_clear_resets_eviction_accounting(self):
        buffer = KeyedRingBuffer(2)
        for key in "abc":
            buffer.upsert(key, create=lambda k=key: k)
        assert buffer.evicted == 1
        buffer.clear()
        assert buffer.evicted == 0


# -- bounded snapshot properties ----------------------------------------------
#
# ``snapshot(min_seq)`` reads only the tail newer than ``min_seq`` (index
# arithmetic on the ring, a walk back from the newest keyed entry); it
# must equal filtering the full snapshot, after any mix of operations
# that wraps the ring, evicts keys and clears.

_RING_OPS = st.lists(
    st.one_of(st.tuples(st.just("append"), st.integers(0, 99)),
              st.tuples(st.just("clear"), st.just(0))),
    max_size=60)

_KEYED_OPS = st.lists(
    st.tuples(st.sampled_from(["upsert", "bump", "clear"]),
              st.integers(0, 7)),
    max_size=60)


def _assert_bounded_snapshots(buffer, newest_bound):
    full = buffer.snapshot()
    seqs = [seq for seq, _item in full]
    assert seqs == sorted(set(seqs)), "snapshot not in ascending seq order"
    for min_seq in range(0, newest_bound + 3):
        assert buffer.snapshot(min_seq) == \
            [pair for pair in full if pair[0] > min_seq]


class TestBoundedSnapshotProperties:
    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(1, 6), ops=_RING_OPS)
    def test_ring_tail_equals_filtered_snapshot(self, capacity, ops):
        buffer = RingBuffer(capacity)
        for op, value in ops:
            if op == "append":
                buffer.append(value)
            else:
                buffer.clear()
        _assert_bounded_snapshots(buffer, buffer.total_appended)
        # The window is the contiguous run of the newest seqs.
        seqs = [seq for seq, _item in buffer.snapshot()]
        newest = buffer.total_appended
        assert seqs == list(range(newest - len(seqs) + 1, newest + 1))

    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(1, 5), ops=_KEYED_OPS)
    def test_keyed_tail_equals_filtered_snapshot(self, capacity, ops):
        buffer = KeyedRingBuffer(capacity)
        for op, key in ops:
            if op == "upsert":
                buffer.upsert(key, create=lambda k=key: (k, 0),
                              update=lambda v: (v[0], v[1] + 1))
            elif op == "bump":
                buffer.bump(key, lambda v, step: (v[0], v[1] + step), 1)
            else:
                buffer.clear()
        assert len(buffer) <= capacity
        # Every op consumes at most one seq, so len(ops) bounds the newest.
        _assert_bounded_snapshots(buffer, len(ops))


class TestKeyedSeqOrderInvariant:
    """LRU order is ascending ``updated_seq`` — what lets the keyed
    ``snapshot(min_seq)`` stop at the first entry at or below the mark."""

    def test_refresh_moves_key_to_the_end_with_a_fresh_seq(self):
        buffer = KeyedRingBuffer(4)
        for key in "abc":
            buffer.upsert(key, create=lambda k=key: k)
        buffer.upsert("a", create=lambda: "a", update=lambda v: v)
        buffer.bump("b", lambda v, _arg: v, None)
        pairs = buffer.snapshot()
        assert [value for _seq, value in pairs] == ["c", "a", "b"]
        assert [seq for seq, _value in pairs] == [3, 4, 5]
        assert buffer.snapshot(3) == pairs[1:]

    def test_missed_bump_consumes_no_seq(self):
        buffer = KeyedRingBuffer(2)
        buffer.upsert("a", create=lambda: "a")
        assert not buffer.bump("zzz", lambda v, _arg: v, None)
        buffer.upsert("b", create=lambda: "b")
        assert [seq for seq, _value in buffer.snapshot()] == [1, 2]

    def test_eviction_keeps_the_newest_suffix(self):
        buffer = KeyedRingBuffer(2)
        for key in "abcd":
            buffer.upsert(key, create=lambda k=key: k)
        assert buffer.snapshot() == [(3, "c"), (4, "d")]
        assert buffer.snapshot(3) == [(4, "d")]
        assert buffer.snapshot(4) == []


class TestRingTailReads:
    @pytest.mark.parametrize("appends", [0, 3, 5, 7, 12])
    def test_tail_of_wrapped_and_unwrapped_rings(self, appends):
        buffer = RingBuffer(5)
        for i in range(appends):
            buffer.append(i)
        full = buffer.snapshot()
        for min_seq in range(-1, appends + 2):
            assert buffer.snapshot(min_seq) == \
                [pair for pair in full if pair[0] > min_seq]

    def test_tail_after_clear_continues_seq_space(self):
        buffer = RingBuffer(3)
        for i in range(4):
            buffer.append(i)
        buffer.clear()
        buffer.append("x")
        buffer.append("y")
        assert buffer.snapshot() == [(5, "x"), (6, "y")]
        assert buffer.snapshot(4) == [(5, "x"), (6, "y")]
        assert buffer.snapshot(5) == [(6, "y")]
