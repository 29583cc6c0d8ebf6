"""IMA: the monitor's ring buffers exposed as virtual SQL tables.

The Ingres Management Architecture registers in-memory DBMS structures
as relational objects queryable over standard SQL, with no disk access.
``register_ima_tables`` does the same here: it installs virtual tables
backed directly by a monitor's buffers into a database, so any session
can read monitor data with plain SELECTs — which is exactly how the
storage daemon collects it.

Every IMA table carries a leading ``seq`` column (the record's sequence
number in the *merged* shard encoding of :mod:`repro.core.sharding`)
and a ``shard`` column naming the monitor shard that produced the row.
A poller fetches only rows newer than its last visit *per shard*
(``where shard = S and seq > hw[S]``); a plain unsharded monitor is
published as shard 0, so both monitor flavors share one protocol.  The
``shard`` column exists for the daemon's shard-filtered polls and is
stripped before rows reach the workload DB — the persisted ``wl_*``
schemas are unchanged (the shard survives inside ``src_seq``).

Bounded reads
-------------
Each table declares ``(shard, seq)`` as its key, and the optimizer
hands the scan ``shard = S`` and ``seq > M`` / ``seq >= M`` conditions
with integer literals (see ``Database.virtual_rows``).  The provider
then reads only shard ``S``'s buffer, from the shard-local floor
``max(0, (M - S) // SHARD_STRIDE)`` — exactly the local seqs whose
encoding exceeds ``M`` — and the ring buffers serve that tail without
visiting older entries.  A daemon poll therefore costs O(rows new in
that shard), not O(shards x ring).  The scan still applies the full
WHERE clause to every row the provider returns, so the bound only
pre-filters.  Rows come out in ascending encoded seq; they are sorted
only when more than one shard contributes, since one shard's buffer
snapshot is already in seq order.  Row counts for the optimizer are
the buffers' lengths, so planning a poll builds no rows.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Protocol

from repro.catalog.schema import Column, DataType, TableSchema
from repro.core.monitor import IntegratedMonitor
from repro.core.records import (
    AttributeUsageRecord,
    IndexUsageRecord,
    PlanRecord,
    ReferenceRecord,
    StatementRecord,
    StatisticsRecord,
    TableUsageRecord,
    WorkloadRecord,
)
from repro.core.sharding import (
    SHARD_STRIDE,
    ShardedMonitor,
    encode_seq,
    monitor_shards,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database


def _int(name: str) -> Column:
    return Column(name, DataType.INT)


def _float(name: str) -> Column:
    return Column(name, DataType.FLOAT)


def _text(name: str) -> Column:
    return Column(name, DataType.TEXT)


STATEMENTS_SCHEMA = TableSchema("ima_statements", (
    _int("seq"), _int("shard"), _int("text_hash"), _text("query_text"),
    _int("frequency"), _float("first_seen"), _float("last_seen"),
))

WORKLOAD_SCHEMA = TableSchema("ima_workload", (
    _int("seq"), _int("shard"), _int("text_hash"), _int("session_id"),
    _float("ts"),
    _float("optimize_time_s"), _float("execute_time_s"),
    _float("wallclock_s"), _float("estimated_io"), _float("estimated_cpu"),
    _float("actual_io"), _float("actual_cpu"), _int("logical_reads"),
    _int("physical_reads"), _int("tuples_processed"), _int("rows_returned"),
    _text("used_indexes"), _float("monitor_time_s"),
))

REFERENCES_SCHEMA = TableSchema("ima_references", (
    _int("seq"), _int("shard"), _int("text_hash"),
    Column("object_type", DataType.VARCHAR, 16),
    _text("object_name"), _text("table_name"), _int("frequency"),
))

TABLES_SCHEMA = TableSchema("ima_tables", (
    _int("seq"), _int("shard"), _text("table_name"), _int("frequency"),
    Column("structure", DataType.VARCHAR, 16), _int("data_pages"),
    _int("overflow_pages"), _int("row_count"), _int("has_statistics"),
))

ATTRIBUTES_SCHEMA = TableSchema("ima_attributes", (
    _int("seq"), _int("shard"), _text("table_name"), _text("attribute_name"),
    _int("frequency"), _int("has_histogram"),
))

INDEXES_SCHEMA = TableSchema("ima_indexes", (
    _int("seq"), _int("shard"), _text("index_name"), _text("table_name"),
    _int("frequency"),
))

PLANS_SCHEMA = TableSchema("ima_plans", (
    _int("seq"), _int("shard"), _int("text_hash"), _float("estimated_cost"),
    _text("plan_text"), _float("captured_at"),
))

STATISTICS_SCHEMA = TableSchema("ima_statistics", (
    _int("seq"), _int("shard"), _float("ts"), _int("current_sessions"),
    _int("peak_sessions"), _int("locks_held"), _int("lock_waiters"),
    _int("lock_requests"), _int("lock_waits"), _int("deadlocks"),
    _int("lock_timeouts"), _int("cache_hits"), _int("cache_misses"),
    _int("physical_reads"), _int("physical_writes"),
))

IMA_TABLE_NAMES = (
    "ima_statements", "ima_workload", "ima_references", "ima_tables",
    "ima_attributes", "ima_indexes", "ima_statistics", "ima_plans",
)

#: The key every IMA table declares: equality on ``shard`` picks one
#: shard's buffer, a lower bound on ``seq`` picks its tail.
IMA_KEY = ("shard", "seq")

_by_seq = itemgetter(0)


class _Window(Protocol):
    """The read surface both ring-buffer flavors share."""

    def snapshot(self, min_seq: int = 0) -> list[tuple[int, Any]]: ...

    def __len__(self) -> int: ...


RowBuilder = Callable[[int, int, Any], tuple]
"""``(encoded_seq, shard_id, record) -> row`` for one IMA table."""


class _ImaSource:
    """One IMA table: a row builder over the same buffer of every shard."""

    def __init__(self, windows: tuple[_Window, ...],
                 build: RowBuilder) -> None:
        self._windows = windows
        self._build = build

    # staticcheck: hotpath
    def rows(self, shard: int | None = None, min_seq: int = 0) -> list[tuple]:
        """Rows of ``shard`` (every shard when None) whose encoded seq
        exceeds ``min_seq``, in ascending encoded seq."""
        windows = self._windows
        build = self._build
        if shard is None:
            first, stop = 0, len(windows)
        elif 0 <= shard < len(windows):
            first, stop = shard, shard + 1
        else:
            return []
        rows: list[tuple] = []
        contributing = 0
        for shard_id in range(first, stop):
            entries = windows[shard_id].snapshot(
                max(0, (min_seq - shard_id) // SHARD_STRIDE))
            if entries:
                contributing += 1
                rows.extend(build(encode_seq(seq, shard_id), shard_id, record)
                            for seq, record in entries)
        if contributing > 1:
            rows.sort(key=_by_seq)
        return rows

    def row_count(self) -> int:
        """``len(self.rows())`` without building a row."""
        return sum(len(window) for window in self._windows)


# staticcheck: hotpath
def _statement_row(seq: int, shard_id: int, r: StatementRecord) -> tuple:
    return (seq, shard_id, r.text_hash, r.text, r.frequency, r.first_seen,
            r.last_seen)


# staticcheck: hotpath
def _workload_row(seq: int, shard_id: int, r: WorkloadRecord) -> tuple:
    return (seq, shard_id, r.text_hash, r.session_id, r.timestamp,
            r.optimize_time_s, r.execute_time_s, r.wallclock_s,
            r.estimated_io, r.estimated_cpu, r.actual_io, r.actual_cpu,
            r.logical_reads, r.physical_reads, r.tuples_processed,
            r.rows_returned, r.used_indexes, r.monitor_time_s)


# staticcheck: hotpath
def _reference_row(seq: int, shard_id: int, r: ReferenceRecord) -> tuple:
    return (seq, shard_id, r.text_hash, r.object_type, r.object_name,
            r.table_name, r.frequency)


# staticcheck: hotpath
def _index_row(seq: int, shard_id: int, r: IndexUsageRecord) -> tuple:
    return (seq, shard_id, r.index_name, r.table_name, r.frequency)


# staticcheck: hotpath
def _statistics_row(seq: int, shard_id: int, r: StatisticsRecord) -> tuple:
    return (seq, shard_id) + r.as_row()


# staticcheck: hotpath
def _plan_row(seq: int, shard_id: int, r: PlanRecord) -> tuple:
    return (seq, shard_id, r.text_hash, r.estimated_cost, r.plan_text,
            r.captured_at)


class _CatalogFacts:
    """Live catalog facts joined onto ``ima_tables`` / ``ima_attributes``
    rows: storage structure, page counts, histogram presence."""

    def __init__(self, source: "Database") -> None:
        self._source = source

    # staticcheck: hotpath
    def table_row(self, seq: int, shard_id: int,
                  record: TableUsageRecord) -> tuple:
        source = self._source
        structure = ""
        pages = overflow = row_count = 0
        has_stats = 0
        if source.catalog.has_table(record.table_name):
            entry = source.catalog.table(record.table_name)
            has_stats = int(entry.statistics is not None)
            if not entry.is_virtual:
                storage = source.storage_for(record.table_name)
                structure = entry.structure.value
                pages = storage.page_count
                overflow = storage.overflow_page_count
                row_count = storage.row_count
        return (seq, shard_id, record.table_name, record.frequency,
                structure, pages, overflow, row_count, has_stats)

    # staticcheck: hotpath
    def attribute_row(self, seq: int, shard_id: int,
                      record: AttributeUsageRecord) -> tuple:
        catalog = self._source.catalog
        has_histogram = 0
        if catalog.has_table(record.table_name):
            stats = catalog.table(record.table_name).statistics
            if stats is not None:
                column = stats.column(record.attribute_name)
                has_histogram = int(
                    column is not None and column.histogram is not None)
        return (seq, shard_id, record.table_name, record.attribute_name,
                record.frequency, has_histogram)


def register_ima_tables(database: "Database",
                        monitor: "IntegratedMonitor | ShardedMonitor",
                        monitored_database: "Database | None" = None) -> None:
    """Install the IMA virtual tables into ``database``.

    ``monitor`` may be a plain :class:`IntegratedMonitor` (published as
    shard 0) or a :class:`ShardedMonitor` (one row stream per shard,
    merged and sorted by encoded seq).  ``monitored_database`` (default:
    ``database`` itself) is consulted to enrich the
    ``ima_tables``/``ima_attributes`` snapshots with live catalog facts
    — storage structure, page counts, histogram presence — which the
    monitor logged "at the source" and the analyzer needs.
    """
    facts = _CatalogFacts(
        monitored_database if monitored_database is not None else database)
    shards = monitor_shards(monitor)
    tables: tuple[tuple[TableSchema, Callable[[IntegratedMonitor], _Window],
                        RowBuilder], ...] = (
        (STATEMENTS_SCHEMA, lambda m: m.statements, _statement_row),
        (WORKLOAD_SCHEMA, lambda m: m.workload, _workload_row),
        (REFERENCES_SCHEMA, lambda m: m.references, _reference_row),
        (TABLES_SCHEMA, lambda m: m.tables, facts.table_row),
        (ATTRIBUTES_SCHEMA, lambda m: m.attributes, facts.attribute_row),
        (INDEXES_SCHEMA, lambda m: m.indexes, _index_row),
        (STATISTICS_SCHEMA, lambda m: m.statistics, _statistics_row),
        (PLANS_SCHEMA, lambda m: m.plans, _plan_row),
    )
    for schema, buffer_of, build in tables:
        source = _ImaSource(tuple(buffer_of(shard) for shard in shards),
                            build)
        database.register_virtual_table(schema, source.rows,
                                        key_columns=IMA_KEY,
                                        row_count=source.row_count)
