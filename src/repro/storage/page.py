"""Page layouts: heap data pages and B-Tree node pages.

Every page knows how to serialize itself (``to_bytes``) and carries a
reference to the schema needed to do so; the buffer pool calls
``to_bytes`` when evicting a dirty page and the owning storage structure
supplies a loader for cache misses.

A page resolves its schema's :class:`~repro.storage.record.RecordCodec`
once, when it is built, and every page keeps ``used_bytes`` equal to
``len(to_bytes())``: the decoders take it from the byte span they
consumed, the in-memory mutators from the codec's row sizes.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator

from repro.catalog.schema import TableSchema
from repro.errors import PageError
from repro.storage.record import codec_for

_HEADER = struct.Struct("<BqH")  # page kind, link, entry count
_ROWID = struct.Struct("<q")
_CHILD = struct.Struct("<q")

KIND_HEAP = 1
KIND_LEAF = 2
KIND_INTERNAL = 3

NO_PAGE = -1


class HeapPage:
    """A heap data page: an append-ordered set of (rowid, row) entries."""

    kind = KIND_HEAP

    def __init__(self, schema: TableSchema, capacity: int) -> None:
        self.schema = schema
        self.capacity = capacity
        self.entries: dict[int, tuple[Any, ...]] = {}
        self.used_bytes = _HEADER.size
        self._codec = codec_for(schema)

    def fits(self, row: tuple[Any, ...], size: int | None = None) -> bool:
        """True if ``row`` fits into the remaining free space; ``size``
        is its :func:`~repro.storage.record.row_size` when the caller
        has already computed it."""
        if size is None:
            size = self._codec.size(row)
        return self.used_bytes + _ROWID.size + size <= self.capacity

    def insert(self, rowid: int, row: tuple[Any, ...],
               size: int | None = None) -> None:
        """Add ``row``; ``size`` as for :meth:`fits`."""
        if rowid in self.entries:
            raise PageError(f"duplicate rowid {rowid} on heap page")
        if size is None:
            size = self._codec.size(row)
        if not self.fits(row, size):
            raise PageError("row does not fit on heap page")
        self.entries[rowid] = row
        self.used_bytes += _ROWID.size + size

    def delete(self, rowid: int) -> tuple[Any, ...]:
        try:
            row = self.entries.pop(rowid)
        except KeyError:
            raise PageError(f"rowid {rowid} not on this heap page") from None
        self.used_bytes -= _ROWID.size + self._codec.size(row)
        return row

    def get(self, rowid: int) -> tuple[Any, ...]:
        try:
            return self.entries[rowid]
        except KeyError:
            raise PageError(f"rowid {rowid} not on this heap page") from None

    def replace(self, rowid: int, row: tuple[Any, ...]) -> bool:
        """Replace a row in place; return False if the new row does not fit."""
        old = self.get(rowid)
        delta = self._codec.size(row) - self._codec.size(old)
        if self.used_bytes + delta > self.capacity:
            return False
        self.entries[rowid] = row
        self.used_bytes += delta
        return True

    def __len__(self) -> int:
        return len(self.entries)

    def items(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        return iter(self.entries.items())

    def to_bytes(self) -> bytes:
        encode = self._codec.encode
        parts = [_HEADER.pack(self.kind, NO_PAGE, len(self.entries))]
        for rowid, row in self.entries.items():
            parts.append(_ROWID.pack(rowid))
            parts.append(encode(row))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, schema: TableSchema,  # staticcheck: hotpath
                   capacity: int) -> "HeapPage":
        kind, _link, count = _HEADER.unpack_from(data, 0)
        if kind != KIND_HEAP:
            raise PageError(f"expected heap page, found kind {kind}")
        page = cls(schema, capacity)
        decode = page._codec.decode
        unpack_rowid = _ROWID.unpack_from
        entries = page.entries
        pos = _HEADER.size
        for _ in range(count):
            (rowid,) = unpack_rowid(data, pos)
            entries[rowid], pos = decode(data, pos + _ROWID.size)
        page.used_bytes = pos
        return page


class LeafPage:
    """A B-Tree leaf: (rowid, row) entries sorted by the tree key.

    The sort order is maintained by :class:`~repro.storage.btree.BTreeStorage`,
    which owns key extraction and comparison; the page itself is a plain
    ordered container with byte accounting.
    """

    kind = KIND_LEAF

    def __init__(self, schema: TableSchema, capacity: int) -> None:
        self.schema = schema
        self.capacity = capacity
        self.rowids: list[int] = []
        self.rows: list[tuple[Any, ...]] = []
        self.next_leaf: int = NO_PAGE
        self.used_bytes = _HEADER.size
        self._codec = codec_for(schema)

    def __len__(self) -> int:
        return len(self.rows)

    def fits(self, row: tuple[Any, ...]) -> bool:
        needed = _ROWID.size + self._codec.size(row)
        return self.used_bytes + needed <= self.capacity

    def insert_at(self, position: int, rowid: int, row: tuple[Any, ...]) -> None:
        self.rowids.insert(position, rowid)
        self.rows.insert(position, row)
        self.used_bytes += _ROWID.size + self._codec.size(row)

    def delete_at(self, position: int) -> tuple[int, tuple[Any, ...]]:
        rowid = self.rowids.pop(position)
        row = self.rows.pop(position)
        self.used_bytes -= _ROWID.size + self._codec.size(row)
        return rowid, row

    def split(self) -> "LeafPage":
        """Move the upper half of the entries to a new sibling page."""
        sibling = LeafPage(self.schema, self.capacity)
        middle = len(self.rows) // 2
        for rowid, row in zip(self.rowids[middle:], self.rows[middle:]):
            sibling.rowids.append(rowid)
            sibling.rows.append(row)
            size = _ROWID.size + self._codec.size(row)
            sibling.used_bytes += size
            self.used_bytes -= size
        del self.rowids[middle:]
        del self.rows[middle:]
        return sibling

    def to_bytes(self) -> bytes:
        encode = self._codec.encode
        parts = [_HEADER.pack(self.kind, self.next_leaf, len(self.rows))]
        for rowid, row in zip(self.rowids, self.rows):
            parts.append(_ROWID.pack(rowid))
            parts.append(encode(row))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, schema: TableSchema,  # staticcheck: hotpath
                   capacity: int) -> "LeafPage":
        kind, next_leaf, count = _HEADER.unpack_from(data, 0)
        if kind != KIND_LEAF:
            raise PageError(f"expected leaf page, found kind {kind}")
        page = cls(schema, capacity)
        page.next_leaf = next_leaf
        decode = page._codec.decode
        unpack_rowid = _ROWID.unpack_from
        add_rowid = page.rowids.append
        add_row = page.rows.append
        pos = _HEADER.size
        for _ in range(count):
            (rowid,) = unpack_rowid(data, pos)
            row, pos = decode(data, pos + _ROWID.size)
            add_rowid(rowid)
            add_row(row)
        page.used_bytes = pos
        return page


class InternalPage:
    """A B-Tree internal node: separator keys and child page ids.

    With ``n`` children there are ``n - 1`` keys; child ``i`` holds
    entries strictly below key ``i`` (and child ``n-1`` the rest).
    Separator keys are serialized through a key schema derived from the
    indexed columns.  A node gets its leading child from
    :meth:`set_first_child` and every further one, with the separator
    before it, from :meth:`insert_child`, so ``used_bytes`` counts each
    child pointer where it is added.
    """

    kind = KIND_INTERNAL

    def __init__(self, key_schema: TableSchema, capacity: int) -> None:
        self.key_schema = key_schema
        self.capacity = capacity
        self.keys: list[tuple[Any, ...]] = []
        self.children: list[int] = []
        self.used_bytes = _HEADER.size
        self._codec = codec_for(key_schema)

    def __len__(self) -> int:
        return len(self.children)

    def fits_key(self, key: tuple[Any, ...]) -> bool:
        needed = _CHILD.size + self._codec.size(key)
        return self.used_bytes + needed <= self.capacity

    def set_first_child(self, child: int) -> None:
        """Give an empty node its leading child page."""
        if self.children:
            raise PageError("internal node already has a leading child")
        self.children.append(child)
        self.used_bytes += _CHILD.size

    def insert_child(self, position: int, key: tuple[Any, ...],
                     child: int) -> None:
        """Insert separator ``key`` at ``position`` and the child page
        that holds entries >= key at ``position + 1``."""
        self.keys.insert(position, key)
        self.children.insert(position + 1, child)
        self.used_bytes += _CHILD.size + self._codec.size(key)

    def split(self) -> tuple[tuple[Any, ...], "InternalPage"]:
        """Split, returning (separator pushed up, new right sibling)."""
        sibling = InternalPage(self.key_schema, self.capacity)
        middle = len(self.keys) // 2
        push_up = self.keys[middle]
        sibling.keys = self.keys[middle + 1 :]
        sibling.children = self.children[middle + 1 :]
        self.keys = self.keys[:middle]
        self.children = self.children[: middle + 1]
        size = self._codec.size
        sibling.used_bytes = _HEADER.size + _CHILD.size * len(sibling.children) \
            + sum(size(key) for key in sibling.keys)
        self.used_bytes = _HEADER.size + _CHILD.size * len(self.children) \
            + sum(size(key) for key in self.keys)
        return push_up, sibling

    def to_bytes(self) -> bytes:
        encode = self._codec.encode
        parts = [_HEADER.pack(self.kind, NO_PAGE, len(self.keys))]
        for child in self.children:
            parts.append(_CHILD.pack(child))
        for key in self.keys:
            parts.append(encode(key))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, key_schema: TableSchema,  # staticcheck: hotpath
                   capacity: int) -> "InternalPage":
        kind, _link, key_count = _HEADER.unpack_from(data, 0)
        if kind != KIND_INTERNAL:
            raise PageError(f"expected internal page, found kind {kind}")
        page = cls(key_schema, capacity)
        decode = page._codec.decode
        unpack_child = _CHILD.unpack_from
        add_child = page.children.append
        add_key = page.keys.append
        pos = _HEADER.size
        for _ in range(key_count + 1):
            (child,) = unpack_child(data, pos)
            pos += _CHILD.size
            add_child(child)
        for _ in range(key_count):
            key, pos = decode(data, pos)
            add_key(key)
        page.used_bytes = pos
        return page


def page_kind(data: bytes) -> int:
    """Return the kind byte of a serialized page."""
    if not data:
        raise PageError("cannot determine the kind of an empty page")
    return data[0]
