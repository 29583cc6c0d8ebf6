"""Heap storage structure with main pages and overflow chains.

Ingres' default structure is heap; the paper's analyzer flags tables
whose overflow-page share exceeds 10 % and recommends MODIFY ... TO
BTREE.  We model the same geometry: a heap is created with a fixed
budget of *main* pages (``TableOptions.main_pages``); once rows no
longer fit there, further pages are *overflow* pages chained at the end.
The :func:`overflow_ratio` of a table is what the analyzer rule reads.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.catalog.schema import TableSchema
from repro.errors import StorageError
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.page import HeapPage
from repro.storage.record import codec_for


class HeapStorage:
    """Append-ordered row storage across a chain of heap pages."""

    structure_name = "heap"

    def __init__(self, schema: TableSchema, disk: DiskManager,
                 pool: BufferPool, main_pages: int = 8,
                 fill_factor: float = 0.9) -> None:
        if main_pages < 1:
            raise StorageError(f"heap needs >= 1 main page, got {main_pages}")
        self.schema = schema
        self._row_size = codec_for(schema).size
        self._disk = disk
        self._pool = pool
        self.main_page_budget = main_pages
        self._fill_capacity = int(disk.page_size * fill_factor)
        self._page_ids: list[int] = []
        self._rowid_to_page: dict[int, int] = {}
        self._row_count = 0

    # -- page plumbing ---------------------------------------------------

    def _load(self, page_id: int) -> HeapPage:
        return self._pool.get(
            page_id,
            lambda raw: HeapPage.from_bytes(raw, self.schema, self._fill_capacity),
        )

    def _new_page(self) -> tuple[int, HeapPage]:
        page_id = self._disk.allocate()
        page = HeapPage(self.schema, self._fill_capacity)
        # Linked before it is pooled: a failed write-back of the frame
        # put_new evicts still leaves the new page part of the heap.
        self._page_ids.append(page_id)
        self._pool.put_new(page_id, page)
        return page_id, page

    # -- public API ------------------------------------------------------

    @property
    def page_count(self) -> int:
        return len(self._page_ids)

    @property
    def main_page_count(self) -> int:
        return min(len(self._page_ids), self.main_page_budget)

    @property
    def overflow_page_count(self) -> int:
        return max(0, len(self._page_ids) - self.main_page_budget)

    @property
    def overflow_ratio(self) -> float:
        """Overflow pages as a fraction of all data pages."""
        if not self._page_ids:
            return 0.0
        return self.overflow_page_count / len(self._page_ids)

    @property
    def row_count(self) -> int:
        return self._row_count

    def page_ids(self) -> tuple[int, ...]:
        return tuple(self._page_ids)

    def insert(self, rowid: int, row: tuple[Any, ...]) -> None:
        """Append a row; allocates a new (possibly overflow) page if the
        current last page is full."""
        self.insert_rows((rowid,), (row,))

    def insert_rows(self, rowids: Sequence[int],
                    rows: Sequence[tuple[Any, ...]]) -> None:
        """Append ``rows`` under ``rowids``, in order, onto exactly the
        pages row-at-a-time :meth:`insert` calls would have filled.

        Each row is sized once, and the pool sees one get for the current
        last page and one put per page filled (a page opened here is
        also pooled empty as it is linked).  The batch is checked
        before any page changes; a disk fault after that leaves a
        stored prefix whose bookkeeping matches its pages.
        """
        sizes: list[int] = []
        row_size = self._row_size
        for rowid, row in zip(rowids, rows):
            if rowid in self._rowid_to_page:
                raise StorageError(f"duplicate rowid {rowid}")
            size = row_size(row)
            if size > self._fill_capacity:
                raise StorageError(
                    f"row of {size} bytes exceeds the "
                    f"usable page capacity {self._fill_capacity}"
                )
            sizes.append(size)
        if not sizes:
            return
        if self._page_ids:
            page_id = self._page_ids[-1]
            page = self._load(page_id)
        else:
            page_id, page = self._new_page()
        filled = False  # does ``page`` hold rows of this batch yet?
        try:
            for rowid, row, size in zip(rowids, rows, sizes):
                if not page.fits(row, size):
                    if filled:
                        self._pool.put(page_id, page)
                    page_id, page = self._new_page()
                    filled = False
                page.insert(rowid, row, size)
                filled = True
                self._rowid_to_page[rowid] = page_id
                self._row_count += 1
        finally:
            if filled:
                self._pool.put(page_id, page)

    def fetch(self, rowid: int) -> tuple[Any, ...]:
        """Read one row by rowid (one page access)."""
        page_id = self._locate(rowid)
        return self._load(page_id).get(rowid)

    def delete(self, rowid: int) -> tuple[Any, ...]:
        """Remove a row; the hole is not reused until a MODIFY rebuild,
        as in a classic heap."""
        page_id = self._locate(rowid)
        page = self._load(page_id)
        row = page.delete(rowid)
        self._pool.put(page_id, page)
        del self._rowid_to_page[rowid]
        self._row_count -= 1
        return row

    def update(self, rowid: int, row: tuple[Any, ...]) -> None:
        """Replace a row in place, relocating it to the end if it grew
        beyond its page's free space."""
        page_id = self._locate(rowid)
        page = self._load(page_id)
        if page.replace(rowid, row):
            self._pool.put(page_id, page)
            return
        page.delete(rowid)
        self._pool.put(page_id, page)
        del self._rowid_to_page[rowid]
        self._row_count -= 1
        self.insert(rowid, row)

    def scan(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Full scan in page order, yielding (rowid, row)."""
        for page_id in self._page_ids:
            page = self._load(page_id)
            yield from page.items()

    def contains(self, rowid: int) -> bool:
        return rowid in self._rowid_to_page

    def bulk_load(self, entries: Iterable[tuple[int, tuple[Any, ...]]]) -> None:
        """Load (rowid, row) pairs into an empty heap."""
        if self._page_ids:
            raise StorageError("bulk_load requires an empty heap")
        pairs = list(entries)
        self.insert_rows([rowid for rowid, _row in pairs],
                         [row for _rowid, row in pairs])

    def drop(self) -> None:
        """Free every page of this heap."""
        for page_id in self._page_ids:
            self._pool.invalidate(page_id)
            self._disk.free(page_id)
        self._page_ids.clear()
        self._rowid_to_page.clear()
        self._row_count = 0

    def _locate(self, rowid: int) -> int:
        try:
            return self._rowid_to_page[rowid]
        except KeyError:
            raise StorageError(f"rowid {rowid} not found") from None
