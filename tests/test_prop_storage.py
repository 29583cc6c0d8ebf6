"""Property-based tests for storage structures (hypothesis)."""

import math
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.catalog.schema import Column, DataType, TableSchema
from repro.config import StorageConfig
from repro.errors import StorageError
from repro.storage import btree as btree_module
from repro.storage.btree import BTreeStorage
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapStorage
from repro.storage.page import HeapPage, InternalPage, LeafPage
from repro.storage.record import codec_for, pack_row, row_size, unpack_row

SCHEMA = TableSchema("t", (
    Column("k", DataType.INT),
    Column("v", DataType.VARCHAR, 30),
))

VALUE_SCHEMA = TableSchema("vals", (
    Column("i", DataType.INT),
    Column("f", DataType.FLOAT),
    Column("s", DataType.VARCHAR, 40),
    Column("b", DataType.BOOL),
    Column("t", DataType.TEXT),
))

row_strategy = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-(2**63), max_value=2**63 - 1)),
    st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    st.one_of(st.none(), st.text(max_size=40)),
    st.one_of(st.none(), st.booleans()),
    st.one_of(st.none(), st.text(max_size=200)),
)


class TestRecordRoundTrip:
    @given(row=row_strategy)
    @settings(max_examples=200)
    def test_pack_unpack_identity(self, row):
        data = pack_row(VALUE_SCHEMA, row)
        decoded, consumed = unpack_row(VALUE_SCHEMA, data)
        assert decoded == row
        assert consumed == len(data)

    @given(rows=st.lists(row_strategy, max_size=10))
    def test_concatenated_rows(self, rows):
        blob = b"".join(pack_row(VALUE_SCHEMA, r) for r in rows)
        offset = 0
        for expected in rows:
            decoded, offset = unpack_row(VALUE_SCHEMA, blob, offset)
            assert decoded == expected
        assert offset == len(blob)


# -- the record codec against the interpretive loop it replaced ----------------
#
# The reference functions below are the per-column loop the storage layer
# used before the per-signature codec; they pin the byte format.

_REF_INT = struct.Struct("<q")
_REF_FLOAT = struct.Struct("<d")
_REF_LEN = struct.Struct("<H")


def reference_pack(schema, row):
    bitmap = bytearray((len(schema.columns) + 7) // 8)
    parts = []
    for i, (column, value) in enumerate(zip(schema.columns, row)):
        if value is None:
            bitmap[i // 8] |= 1 << (i % 8)
        elif column.data_type is DataType.INT:
            parts.append(_REF_INT.pack(value))
        elif column.data_type is DataType.FLOAT:
            parts.append(_REF_FLOAT.pack(value))
        elif column.data_type is DataType.BOOL:
            parts.append(b"\x01" if value else b"\x00")
        else:
            encoded = value.encode("utf-8")
            parts.append(_REF_LEN.pack(len(encoded)))
            parts.append(encoded)
    return bytes(bitmap) + b"".join(parts)


def reference_unpack(schema, data, offset=0):
    bitmap_len = (len(schema.columns) + 7) // 8
    bitmap = data[offset:offset + bitmap_len]
    pos = offset + bitmap_len
    values = []
    for i, column in enumerate(schema.columns):
        if bitmap[i // 8] & (1 << (i % 8)):
            values.append(None)
        elif column.data_type is DataType.INT:
            values.append(_REF_INT.unpack_from(data, pos)[0])
            pos += 8
        elif column.data_type is DataType.FLOAT:
            values.append(_REF_FLOAT.unpack_from(data, pos)[0])
            pos += 8
        elif column.data_type is DataType.BOOL:
            values.append(data[pos] != 0)
            pos += 1
        else:
            (length,) = _REF_LEN.unpack_from(data, pos)
            pos += 2
            values.append(data[pos:pos + length].decode("utf-8"))
            pos += length
    return tuple(values), pos


def schema_of(types, name="s"):
    return TableSchema(name, tuple(
        Column(f"c{i}", t, 64 if t is DataType.VARCHAR else 0)
        for i, t in enumerate(types)))


EDGE_INTS = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]
EDGE_STRINGS = ["", "a", "\u00e9", "\u65e5\u672c\u8a9e", "\U0001f642", "x" * 40]

VALUES = {
    DataType.INT: st.one_of(st.sampled_from(EDGE_INTS),
                            st.integers(-(2**63), 2**63 - 1)),
    DataType.FLOAT: st.one_of(st.sampled_from([0.0, -0.0, 1.5, -1e300]),
                              st.floats(allow_nan=False)),
    DataType.BOOL: st.booleans(),
    DataType.VARCHAR: st.one_of(st.sampled_from(EDGE_STRINGS),
                                st.text(max_size=30)),
    DataType.TEXT: st.one_of(st.sampled_from(EDGE_STRINGS),
                             st.text(max_size=60)),
}

signatures = st.lists(st.sampled_from(list(DataType)), min_size=1,
                      max_size=13)


@st.composite
def schema_and_rows(draw, max_rows=8):
    types = draw(signatures)
    rows = draw(st.lists(
        st.tuples(*(st.one_of(st.none(), VALUES[t]) for t in types)),
        min_size=1, max_size=max_rows))
    return schema_of(types), rows


def same_values(a, b):
    """Row equality that also tells -0.0 from 0.0."""
    return len(a) == len(b) and all(
        x == y and type(x) is type(y)
        and (not isinstance(x, float) or math.copysign(1, x) == math.copysign(1, y))
        for x, y in zip(a, b))


class TestRecordCodec:
    @given(case=schema_and_rows())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_loop(self, case):
        schema, rows = case
        for row in rows:
            data = pack_row(schema, row)
            assert data == reference_pack(schema, row)
            assert row_size(schema, row) == len(data)
            decoded, end = unpack_row(schema, b"pad" + data, 3)
            assert same_values(decoded, row)
            assert end == 3 + len(data)
            assert reference_unpack(schema, data) == (decoded, len(data))

    @pytest.mark.parametrize("width", [1, 8, 9, 16, 17])
    def test_null_in_every_position(self, width):
        types = [list(DataType)[i % len(DataType)] for i in range(width)]
        schema = schema_of(types)
        full = tuple({DataType.INT: -(2**63), DataType.FLOAT: -0.0,
                      DataType.BOOL: False, DataType.VARCHAR: "\u00e9",
                      DataType.TEXT: ""}[t] for t in types)
        rows = [full, (None,) * width]
        rows += [full[:i] + (None,) + full[i + 1:] for i in range(width)]
        rows += [(None,) * i + (full[i],) + (None,) * (width - i - 1)
                 for i in range(width)]
        for row in rows:
            data = pack_row(schema, row)
            assert data == reference_pack(schema, row)
            assert len(data) == row_size(schema, row)
            decoded, end = unpack_row(schema, data)
            assert same_values(decoded, row) and end == len(data)

    def test_same_signature_shares_one_codec(self):
        types = (DataType.INT, DataType.VARCHAR, DataType.BOOL)
        first = codec_for(schema_of(types, "a"))
        second = TableSchema("b", (
            Column("other", DataType.INT, nullable=False),
            Column("names", DataType.VARCHAR, 7),
            Column("flag", DataType.BOOL),
        ))
        assert codec_for(second) is first
        assert codec_for(schema_of(types[:2])) is not first

    def test_string_length_limit(self):
        schema = schema_of((DataType.INT, DataType.TEXT))
        for first in (1, None):
            assert unpack_row(schema, pack_row(
                schema, (first, "x" * 0xFFFF)))[0] == (first, "x" * 0xFFFF)
            with pytest.raises(StorageError, match="65535-byte"):
                pack_row(schema, (first, "\u00e9" * 0x8000))

    def test_source_names_no_column(self):
        schema = TableSchema("t", (
            Column("__import__", DataType.INT),
            Column("drop_table_x", DataType.TEXT),
        ))
        source = codec_for(schema).source
        assert "__import__" not in source and "drop_table" not in source


def heap_page_of(schema, rows, capacity=1 << 16):
    page = HeapPage(schema, capacity)
    for rowid, row in enumerate(rows, start=-3):
        page.insert(rowid * 7, row)
    return page


def leaf_page_of(schema, rows, capacity=1 << 16):
    page = LeafPage(schema, capacity)
    for i, row in enumerate(rows):
        page.insert_at(i, 1000 - i, row)
    page.next_leaf = 42
    return page


def internal_page_of(schema, rows, capacity=1 << 16):
    key_schema = TableSchema("k", schema.columns + (
        Column("_rowid", DataType.INT, nullable=False),))
    page = InternalPage(key_schema, capacity)
    page.set_first_child(7)
    for i, row in enumerate(rows):
        page.insert_child(i, row + (i,), 100 + i)
    return page


class TestPageCodec:
    @given(case=schema_and_rows(max_rows=12))
    @settings(max_examples=120, deadline=None)
    def test_round_trip_every_page_kind(self, case):
        schema, rows = case
        heap = heap_page_of(schema, rows)
        leaf = leaf_page_of(schema, rows)
        internal = internal_page_of(schema, rows)
        for page in (heap, leaf, internal):
            data = page.to_bytes()
            assert page.used_bytes == len(data)
            restored = type(page).from_bytes(
                data, getattr(page, "key_schema", schema), page.capacity)
            assert restored.used_bytes == page.used_bytes
            assert restored.to_bytes() == data
        restored_heap = HeapPage.from_bytes(heap.to_bytes(), schema,
                                            heap.capacity)
        assert list(restored_heap.entries) == list(heap.entries)
        assert all(same_values(a, b) for a, b in zip(
            restored_heap.entries.values(), heap.entries.values()))
        restored_leaf = LeafPage.from_bytes(leaf.to_bytes(), schema,
                                            leaf.capacity)
        assert restored_leaf.rowids == leaf.rowids
        assert restored_leaf.next_leaf == leaf.next_leaf
        assert all(same_values(a, b)
                   for a, b in zip(restored_leaf.rows, leaf.rows))
        restored_internal = InternalPage.from_bytes(
            internal.to_bytes(), internal.key_schema, internal.capacity)
        assert restored_internal.children == internal.children
        assert all(same_values(a, b)
                   for a, b in zip(restored_internal.keys, internal.keys))

    @given(case=schema_and_rows(max_rows=12))
    @settings(max_examples=60, deadline=None)
    def test_used_bytes_tracks_mutation(self, case):
        schema, rows = case
        heap = heap_page_of(schema, rows)
        for rowid in list(heap.entries)[::2]:
            heap.delete(rowid)
            assert heap.used_bytes == len(heap.to_bytes())
        for rowid in list(heap.entries):
            heap.replace(rowid, rows[-1])
            assert heap.used_bytes == len(heap.to_bytes())
        leaf = leaf_page_of(schema, rows * 2)
        sibling = leaf.split()
        leaf.delete_at(0)
        for page in (leaf, sibling):
            assert page.used_bytes == len(page.to_bytes())
        internal = internal_page_of(schema, rows * 2)
        if len(internal.keys) >= 3:
            _push_up, right = internal.split()
            for page in (internal, right):
                assert page.used_bytes == len(page.to_bytes())


# Operations: ("insert", key) / ("delete", index-into-live-rowids)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 50)),
        st.tuples(st.just("delete"), st.integers(0, 1_000_000)),
    ),
    max_size=120,
)


def build_pool(capacity=6):
    disk = DiskManager(StorageConfig(page_size=512))
    return disk, BufferPool(disk, capacity)


PAIR_SCHEMA = TableSchema("p", (
    Column("a", DataType.INT),
    Column("b", DataType.VARCHAR, 4),
    Column("pad", DataType.VARCHAR, 40),
))
PAIR_KEYS = st.tuples(st.one_of(st.none(), st.integers(0, 4)),
                      st.one_of(st.none(), st.sampled_from(["", "p", "q"])))
BOUND = st.one_of(
    st.none(),
    st.tuples(st.one_of(st.none(), st.integers(-1, 5))),
    PAIR_KEYS,
)


def pair_norm(values):
    return tuple((0,) if v is None else (1, v) for v in values)


def oracle_range(oracle, lo, hi, lo_inclusive, hi_inclusive):
    """Rowids, in key order, whose key prefix lies within the bounds."""
    got = []
    for key, rid in oracle:
        if lo is not None:
            prefix, bound = key[:len(lo)], pair_norm(lo)
            if prefix < bound or (prefix == bound and not lo_inclusive):
                continue
        if hi is not None:
            prefix, bound = key[:len(hi)], pair_norm(hi)
            if prefix > bound or (prefix == bound and not hi_inclusive):
                continue
        got.append(rid)
    return got


class TestBTreeModel:
    @given(ops=operations)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_dict_model(self, ops):
        disk, pool = build_pool()
        tree = BTreeStorage(SCHEMA, ("k",), disk, pool, unique=False)
        model: dict[int, tuple] = {}
        next_rowid = 1
        for op, value in ops:
            if op == "insert":
                row = (value, f"v{value}")
                tree.insert(next_rowid, row)
                model[next_rowid] = row
                next_rowid += 1
            elif model:
                victim = sorted(model)[value % len(model)]
                tree.delete(victim)
                del model[victim]
        assert tree.row_count == len(model)
        scanned = list(tree.scan())
        assert {rid: row for rid, row in scanned} == model
        keys = [row[0] for _rid, row in scanned]
        assert keys == sorted(keys)

    @given(keys=st.lists(st.integers(-100, 100), min_size=1, max_size=80),
           lo=st.integers(-100, 100), hi=st.integers(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_range_scan_matches_filter(self, keys, lo, hi):
        disk, pool = build_pool()
        tree = BTreeStorage(SCHEMA, ("k",), disk, pool)
        for i, key in enumerate(keys, start=1):
            tree.insert(i, (key, "x"))
        got = sorted(row[0] for _rid, row in tree.scan_range((lo,), (hi,)))
        expected = sorted(k for k in keys if lo <= k <= hi)
        assert got == expected

    @given(keys=st.lists(st.integers(0, 30), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_seek_finds_all_duplicates(self, keys):
        disk, pool = build_pool()
        tree = BTreeStorage(SCHEMA, ("k",), disk, pool)
        for i, key in enumerate(keys, start=1):
            tree.insert(i, (key, "x"))
        for key in set(keys):
            assert len(list(tree.seek((key,)))) == keys.count(key)

    @given(keys=st.lists(st.integers(0, 1000), unique=True,
                         min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_bulk_load_equals_incremental(self, keys):
        disk1, pool1 = build_pool(capacity=16)
        bulk = BTreeStorage(SCHEMA, ("k",), disk1, pool1, unique=True)
        bulk.bulk_load([(i + 1, (k, "v")) for i, k in enumerate(keys)])
        disk2, pool2 = build_pool(capacity=16)
        incremental = BTreeStorage(SCHEMA, ("k",), disk2, pool2, unique=True)
        for i, k in enumerate(keys):
            incremental.insert(i + 1, (k, "v"))
        assert list(bulk.scan()) == list(incremental.scan())


    # -- searches against a sorted-list oracle ------------------------------

    @given(entries=st.lists(PAIR_KEYS, min_size=1, max_size=150),
           bounds=st.lists(st.tuples(BOUND, BOUND, st.booleans(),
                                     st.booleans()), max_size=6),
           bulk=st.booleans(), deletes=st.integers(0, 20))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_searches_match_sorted_list(self, entries, bounds, bulk, deletes):
        disk, pool = build_pool(capacity=4)
        tree = BTreeStorage(PAIR_SCHEMA, ("a", "b"), disk, pool)
        rows = {rid: key + ("f" * 30,)
                for rid, key in enumerate(entries, start=1)}
        if bulk:
            tree.bulk_load(rows.items())
        else:
            for rid, row in rows.items():
                tree.insert(rid, row)
        for rid in sorted(rows)[::3][:deletes]:
            tree.delete(rid)
            del rows[rid]
        oracle = sorted((pair_norm(row[:2]), rid) for rid, row in rows.items())
        assert [rid for rid, _row in tree.scan()] == [rid for _k, rid in oracle]
        for rid, row in rows.items():
            assert tree.fetch(rid) == row
        for lo, hi, lo_inc, hi_inc in bounds + [(None, None, True, True)]:
            got = [rid for rid, _row in tree.scan_range(lo, hi, lo_inc, hi_inc)]
            assert got == oracle_range(oracle, lo, hi, lo_inc, hi_inc)
            if lo is not None:
                got = [rid for rid, _row in tree.seek(lo)]
                assert got == oracle_range(oracle, lo, lo, True, True)

    def test_duplicate_run_spans_leaves(self):
        disk, pool = build_pool(capacity=4)
        tree = BTreeStorage(PAIR_SCHEMA, ("a", "b"), disk, pool)
        rids = list(range(1, 121))
        for rid in reversed(rids):
            tree.insert(rid, (5, None, "f" * 30))
        tree.insert(500, (None, "z", "f"))
        tree.insert(501, (6, "z", "f"))
        assert tree.leaf_page_count > 4
        assert [rid for rid, _row in tree.seek((5,))] == rids
        assert [rid for rid, _row in tree.seek((5, None))] == rids
        assert [rid for rid, _row in tree.scan_range(
            (None,), (5,), lo_inclusive=False, hi_inclusive=False)] == []
        assert [rid for rid, _row in tree.scan_range(
            (5,), None, lo_inclusive=False)] == [501]

    def test_point_seek_normalizes_logarithmically(self, monkeypatch):
        disk = DiskManager(StorageConfig(page_size=2048))
        pool = BufferPool(disk, 64)
        tree = BTreeStorage(SCHEMA, ("k",), disk, pool, unique=True)
        tree.bulk_load((rid, (key, "v" * 20)) for rid, key
                       in enumerate(range(0, 18000, 3), start=1))
        for rid, key in enumerate(range(18001, 18301, 3), start=6001):
            tree.insert(rid, (key, "v" * 20))
        assert tree.height >= 3
        fanout = max(len(tree._load(pid)) for pid in tree.page_ids())
        budget = 2 * tree.height * math.ceil(math.log2(fanout + 1))
        calls = 0
        original = btree_module._norm_key

        def counting(values):
            nonlocal calls
            calls += 1
            return original(values)

        monkeypatch.setattr(btree_module, "_norm_key", counting)
        for rid, key in ((1, 0), (2777, 8328), (6000, 17997), (6051, 18151)):
            calls = 0
            assert [r for r, _row in tree.seek((key,))] == [rid]
            assert calls <= budget
            calls = 0
            assert tree.fetch(rid) == (key, "v" * 20)
            assert calls <= budget

    @given(keys=st.lists(st.integers(0, 1000), min_size=60, max_size=400),
           bulk=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_used_bytes_matches_bytes_on_every_page(self, keys, bulk):
        disk, pool = build_pool(capacity=4096)
        tree = BTreeStorage(SCHEMA, ("k",), disk, pool)
        entries = [(i + 1, (k, "v" * (k % 7))) for i, k in enumerate(keys)]
        if bulk:
            tree.bulk_load(entries)
        else:
            for rid, row in entries:
                tree.insert(rid, row)
        assert tree.height >= 2
        for page_id in tree.page_ids():
            page = tree._load(page_id)
            assert page.used_bytes == len(page.to_bytes())
        pool.clear()
        for page_id in tree.page_ids():
            page = tree._load(page_id)
            assert page.used_bytes == len(page.to_bytes())


class TestHeapModel:
    @given(ops=operations)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_dict_model(self, ops):
        disk, pool = build_pool()
        heap = HeapStorage(SCHEMA, disk, pool, main_pages=1)
        model: dict[int, tuple] = {}
        next_rowid = 1
        for op, value in ops:
            if op == "insert":
                row = (value, f"v{value}")
                heap.insert(next_rowid, row)
                model[next_rowid] = row
                next_rowid += 1
            elif model:
                victim = sorted(model)[value % len(model)]
                heap.delete(victim)
                del model[victim]
        assert heap.row_count == len(model)
        assert dict(heap.scan()) == model
        for rowid, row in model.items():
            assert heap.fetch(rowid) == row

    @given(count=st.integers(0, 120))
    @settings(max_examples=30, deadline=None)
    def test_overflow_accounting_consistent(self, count):
        disk, pool = build_pool()
        heap = HeapStorage(SCHEMA, disk, pool, main_pages=2)
        for i in range(count):
            heap.insert(i, (i, "x" * 25))
        assert heap.page_count == heap.main_page_count \
            + heap.overflow_page_count
        assert 0.0 <= heap.overflow_ratio <= 1.0
