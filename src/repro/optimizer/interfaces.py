"""Snapshot structures the optimizer reads from the engine.

The engine (``repro.engine.database``) builds these from live catalog
and storage state; the optimizer never touches storage directly, which
is also what makes *virtual* indexes possible — a virtual
:class:`IndexInfo` is synthesized from table statistics instead of a
physical B-Tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from repro.catalog.schema import DataType, IndexDef, StorageStructure, TableSchema
from repro.catalog.statistics import TableStatistics

_DEFAULT_WIDTHS = {
    DataType.INT: 8,
    DataType.FLOAT: 8,
    DataType.BOOL: 1,
}


def estimate_row_bytes(schema: TableSchema) -> float:
    """Rough serialized row width from the schema alone."""
    width = (len(schema.columns) + 7) // 8
    for column in schema.columns:
        if column.data_type in _DEFAULT_WIDTHS:
            width += _DEFAULT_WIDTHS[column.data_type]
        elif column.data_type is DataType.VARCHAR:
            width += 2 + max(1, column.max_length // 2)
        else:  # TEXT
            width += 2 + 32
    return float(width)


@dataclass(frozen=True)
class TableInfo:
    """Physical snapshot of one table for costing."""

    name: str
    schema: TableSchema
    structure: StorageStructure
    row_count: int
    page_count: int
    overflow_pages: int
    btree_height: int = 0
    btree_leaf_pages: int = 0
    key_columns: tuple[str, ...] = ()
    hash_chain_pages: float = 0.0
    """HASH structures: average pages per bucket chain (lookup cost)."""
    statistics: TableStatistics | None = None
    avg_row_bytes: float = 64.0
    virtual_key: tuple[str, ...] = ()
    """Keyed virtual tables: ``(partition, seq)`` columns whose
    ``partition = P`` and ``seq > M`` conditions the scan may hand to
    the row provider (see ``Database.register_virtual_table``)."""

    @property
    def fetch_height(self) -> float:
        """Page accesses per single-row fetch by locator."""
        if self.structure is StorageStructure.BTREE:
            return float(max(1, self.btree_height))
        return 1.0

    @property
    def lookup_pages(self) -> float:
        """Page accesses per keyed lookup through the primary structure."""
        if self.structure is StorageStructure.BTREE:
            return float(max(1, self.btree_height))
        if self.structure is StorageStructure.HASH:
            return max(1.0, self.hash_chain_pages)
        return float(max(1, self.page_count))


@dataclass(frozen=True)
class IndexInfo:
    """Physical (or, for virtual indexes, synthesized) index geometry."""

    definition: IndexDef
    height: int
    leaf_pages: int
    entry_count: int

    @property
    def is_virtual(self) -> bool:
        return self.definition.virtual


def synthesize_index_info(definition: IndexDef, table: TableInfo,
                          page_size: int = 4096) -> IndexInfo:
    """Estimate the geometry a hypothetical index would have.

    Used for virtual (what-if) indexes: entry width is the key columns'
    widths plus an 8-byte locator; the height assumes the same fanout a
    real B-Tree of that entry size would get.
    """
    key_width = 8.0 + sum(
        _DEFAULT_WIDTHS.get(table.schema.column(c).data_type,
                            2 + max(1, table.schema.column(c).max_length // 2
                                    if table.schema.column(c).data_type
                                    is DataType.VARCHAR else 34))
        for c in definition.column_names
    )
    usable = page_size * 0.9
    entries_per_leaf = max(2.0, usable / (key_width + 8.0))
    leaf_pages = max(1, math.ceil(table.row_count / entries_per_leaf))
    fanout = max(2.0, usable / (key_width + 8.0))
    height = max(1, math.ceil(math.log(max(2, leaf_pages), fanout)) + 1)
    return IndexInfo(
        definition=definition,
        height=height,
        leaf_pages=leaf_pages,
        entry_count=table.row_count,
    )


class CatalogView(Protocol):
    """What the optimizer needs to see of the engine."""

    def table_info(self, name: str) -> TableInfo: ...

    def indexes_on(self, table_name: str,
                   include_virtual: bool = False) -> tuple[IndexInfo, ...]: ...
