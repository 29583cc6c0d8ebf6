"""Tests for records, pages, the disk manager and the buffer pool."""

import pytest

from repro.catalog.schema import Column, DataType, TableSchema
from repro.config import StorageConfig
from repro.errors import BufferPoolError, PageError
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager, ScopedIoMeter
from repro.storage.page import HeapPage, InternalPage, LeafPage, page_kind
from repro.storage.record import pack_row, row_size, unpack_row


@pytest.fixture
def schema():
    return TableSchema("t", (
        Column("id", DataType.INT, nullable=False),
        Column("name", DataType.VARCHAR, 50),
        Column("weight", DataType.FLOAT),
        Column("active", DataType.BOOL),
        Column("notes", DataType.TEXT),
    ))


class TestRecord:
    def test_round_trip(self, schema):
        row = (42, "hello", 3.5, True, "some notes")
        data = pack_row(schema, row)
        decoded, offset = unpack_row(schema, data)
        assert decoded == row
        assert offset == len(data)

    def test_round_trip_with_nulls(self, schema):
        row = (1, None, None, None, None)
        decoded, _ = unpack_row(schema, pack_row(schema, row))
        assert decoded == row

    def test_row_size_matches_packed_length(self, schema):
        for row in [(1, "abc", 2.5, False, "x" * 100),
                    (2, None, None, True, None)]:
            assert row_size(schema, row) == len(pack_row(schema, row))

    def test_unicode_strings(self, schema):
        row = (1, "héllo", 0.0, True, "日本語テキスト")
        decoded, _ = unpack_row(schema, pack_row(schema, row))
        assert decoded == row

    def test_negative_and_large_ints(self, schema):
        row = (-(2**62), "x", -1.5, False, "")
        decoded, _ = unpack_row(schema, pack_row(schema, row))
        assert decoded == row

    def test_consecutive_rows(self, schema):
        rows = [(i, f"n{i}", float(i), bool(i % 2), "t") for i in range(5)]
        data = b"".join(pack_row(schema, r) for r in rows)
        offset = 0
        for expected in rows:
            decoded, offset = unpack_row(schema, data, offset)
            assert decoded == expected


class TestDiskManager:
    def test_allocate_read_write(self):
        disk = DiskManager()
        page = disk.allocate()
        disk.write(page, b"hello")
        assert disk.read(page) == b"hello"

    def test_counters(self):
        disk = DiskManager()
        page = disk.allocate()
        disk.write(page, b"x")
        disk.read(page)
        disk.read(page)
        counters = disk.counters()
        assert counters.allocations == 1
        assert counters.writes == 1
        assert counters.reads == 2

    def test_free(self):
        disk = DiskManager()
        page = disk.allocate()
        disk.free(page)
        with pytest.raises(PageError):
            disk.read(page)
        with pytest.raises(PageError):
            disk.free(page)

    def test_oversized_write_rejected(self):
        disk = DiskManager(StorageConfig(page_size=64))
        page = disk.allocate()
        with pytest.raises(PageError):
            disk.write(page, b"x" * 65)

    def test_unallocated_access(self):
        disk = DiskManager()
        with pytest.raises(PageError):
            disk.read(99)
        with pytest.raises(PageError):
            disk.write(99, b"")

    def test_total_bytes_counts_page_slots(self):
        disk = DiskManager(StorageConfig(page_size=4096))
        disk.allocate()
        disk.allocate()
        assert disk.total_bytes == 8192
        assert disk.page_count == 2

    def test_scoped_meter(self):
        disk = DiskManager()
        page = disk.allocate()
        disk.write(page, b"a")
        with ScopedIoMeter(disk) as meter:
            disk.read(page)
            disk.read(page)
        assert meter.result.reads == 2
        assert meter.result.writes == 0


class TestPages:
    def test_heap_page_round_trip(self, schema):
        page = HeapPage(schema, capacity=4096)
        page.insert(1, (1, "a", 1.0, True, "n"))
        page.insert(2, (2, "b", 2.0, False, None))
        restored = HeapPage.from_bytes(page.to_bytes(), schema, 4096)
        assert dict(restored.items()) == dict(page.items())
        assert restored.used_bytes == page.used_bytes

    def test_heap_page_capacity(self, schema):
        page = HeapPage(schema, capacity=100)
        page.insert(1, (1, "a", 1.0, True, ""))
        big = (2, "x" * 45, 1.0, True, "")
        assert not page.fits(big)
        with pytest.raises(PageError):
            page.insert(2, big)

    def test_heap_page_delete_and_replace(self, schema):
        page = HeapPage(schema, capacity=4096)
        page.insert(1, (1, "a", 1.0, True, "n"))
        before = page.used_bytes
        assert page.replace(1, (1, "aa", 1.0, True, "n"))
        assert page.used_bytes == before + 1
        page.delete(1)
        assert len(page) == 0
        with pytest.raises(PageError):
            page.delete(1)

    def test_heap_page_duplicate_rowid(self, schema):
        page = HeapPage(schema, capacity=4096)
        page.insert(1, (1, "a", 1.0, True, "n"))
        with pytest.raises(PageError):
            page.insert(1, (1, "b", 1.0, True, "n"))

    def test_leaf_page_round_trip(self, schema):
        page = LeafPage(schema, capacity=4096)
        page.insert_at(0, 10, (10, "a", 1.0, True, ""))
        page.insert_at(1, 20, (20, "b", 2.0, True, ""))
        page.next_leaf = 77
        restored = LeafPage.from_bytes(page.to_bytes(), schema, 4096)
        assert restored.rowids == [10, 20]
        assert restored.next_leaf == 77

    def test_leaf_split_halves(self, schema):
        page = LeafPage(schema, capacity=1 << 20)
        for i in range(10):
            page.insert_at(i, i, (i, "x", 1.0, True, ""))
        sibling = page.split()
        assert len(page) == 5 and len(sibling) == 5
        assert sibling.rowids[0] == 5

    def test_internal_page_round_trip(self, schema):
        key_schema = TableSchema("k", (
            Column("id", DataType.INT),
            Column("_rowid", DataType.INT, nullable=False),
        ))
        page = InternalPage(key_schema, capacity=4096)
        page.set_first_child(100)
        page.insert_child(0, (5, 1), 200)
        page.insert_child(1, (9, 2), 300)
        restored = InternalPage.from_bytes(page.to_bytes(), key_schema, 4096)
        assert restored.children == [100, 200, 300]
        assert restored.keys == [(5, 1), (9, 2)]
        assert restored.used_bytes == page.used_bytes == len(page.to_bytes())
        with pytest.raises(PageError):
            page.set_first_child(400)

    def test_page_kind(self, schema):
        heap = HeapPage(schema, 4096)
        assert page_kind(heap.to_bytes()) == HeapPage.kind
        with pytest.raises(PageError):
            page_kind(b"")

    def test_wrong_kind_rejected(self, schema):
        heap = HeapPage(schema, 4096)
        with pytest.raises(PageError):
            LeafPage.from_bytes(heap.to_bytes(), schema, 4096)


class TestBufferPool:
    def test_requires_positive_capacity(self):
        with pytest.raises(BufferPoolError):
            BufferPool(DiskManager(), 0)

    def test_hit_avoids_disk(self, schema):
        disk = DiskManager()
        pool = BufferPool(disk, 4)
        page_id = disk.allocate()
        page = HeapPage(schema, 4096)
        page.insert(1, (1, "a", 1.0, True, ""))
        pool.put_new(page_id, page)
        got = pool.get(page_id, lambda raw: None)
        assert got is page
        assert disk.counters().reads == 0
        assert pool.stats().hits == 1

    def test_eviction_writes_back_dirty(self, schema):
        disk = DiskManager()
        pool = BufferPool(disk, 2)
        ids = []
        for i in range(3):
            page_id = disk.allocate()
            page = HeapPage(schema, 4096)
            page.insert(i, (i, "x", 1.0, True, ""))
            pool.put_new(page_id, page)
            ids.append(page_id)
        assert pool.stats().evictions == 1
        assert pool.stats().dirty_writebacks == 1
        # evicted page is reloadable with its data intact
        loader = lambda raw: HeapPage.from_bytes(raw, schema, 4096)
        restored = pool.get(ids[0], loader)
        assert restored.get(0)[0] == 0

    def test_put_readmits_after_eviction(self, schema):
        disk = DiskManager()
        pool = BufferPool(disk, 1)
        a, b = disk.allocate(), disk.allocate()
        page_a = HeapPage(schema, 4096)
        pool.put_new(a, page_a)
        pool.put_new(b, HeapPage(schema, 4096))  # evicts a
        page_a.insert(5, (5, "late", 1.0, True, ""))
        pool.put(a, page_a)  # safe re-admit
        pool.clear()
        restored = pool.get(a, lambda raw: HeapPage.from_bytes(raw, schema,
                                                               4096))
        assert 5 in restored.entries

    def test_mark_dirty_requires_cached(self):
        pool = BufferPool(DiskManager(), 2)
        with pytest.raises(BufferPoolError):
            pool.mark_dirty(42)

    def test_flush_all(self, schema):
        disk = DiskManager()
        pool = BufferPool(disk, 4)
        page_id = disk.allocate()
        pool.put_new(page_id, HeapPage(schema, 4096))
        assert pool.flush_all() == 1
        assert pool.flush_all() == 0  # idempotent

    def test_invalidate(self, schema):
        disk = DiskManager()
        pool = BufferPool(disk, 4)
        page_id = disk.allocate()
        pool.put_new(page_id, HeapPage(schema, 4096))
        pool.invalidate(page_id)
        assert pool.cached_page_count == 0
        assert pool.flush_all() == 0

    def test_hit_ratio(self, schema):
        disk = DiskManager()
        pool = BufferPool(disk, 4)
        page_id = disk.allocate()
        disk.write(page_id, HeapPage(schema, 4096).to_bytes())
        loader = lambda raw: HeapPage.from_bytes(raw, schema, 4096)
        pool.get(page_id, loader)
        pool.get(page_id, loader)
        assert pool.stats().hit_ratio == pytest.approx(0.5)
