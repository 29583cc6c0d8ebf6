"""Unit tests for configs, errors, records and workload-DB compaction."""

import dataclasses

import pytest

from repro import faultsim
from repro.catalog.schema import StorageStructure
from repro.clock import VirtualClock
from repro.config import (
    CostModelConfig,
    DaemonConfig,
    EngineConfig,
    LockConfig,
    MonitorConfig,
    StorageConfig,
)
from repro.core.records import STATISTIC_FIELDS, StatisticsRecord, WorkloadRecord
from repro.core.workload_db import WORKLOAD_TABLES, WorkloadDatabase
from repro.engine import EngineInstance
from repro.errors import (
    DeadlockError,
    LexerError,
    LockError,
    ParseError,
    ReproError,
    SqlError,
    StorageError,
)


class TestConfig:
    def test_defaults_match_paper(self):
        config = EngineConfig()
        assert config.monitor.statement_buffer_size == 1000  # paper default
        assert config.daemon.poll_interval_s == 30.0          # paper default
        assert config.daemon.retention_s == 7 * 24 * 3600.0   # seven days

    def test_configs_frozen(self):
        config = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.join_dp_threshold = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.monitor.statement_buffer_size = 5

    def test_sub_configs_composable(self):
        config = EngineConfig(
            storage=StorageConfig(page_size=1024),
            cost_model=CostModelConfig(io_page_cost=10.0),
            locks=LockConfig(wait_timeout_s=1.0),
            monitor=MonitorConfig(statement_buffer_size=5),
            daemon=DaemonConfig(poll_interval_s=1.0),
        )
        assert config.storage.page_size == 1024
        assert config.cost_model.io_page_cost == 10.0


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(LexerError, SqlError)
        assert issubclass(ParseError, SqlError)
        assert issubclass(SqlError, ReproError)
        assert issubclass(DeadlockError, LockError)
        assert issubclass(StorageError, ReproError)

    def test_lexer_error_position(self):
        error = LexerError("bad char", position=17)
        assert error.position == 17
        assert "17" in str(error)


class TestRecords:
    def test_statistics_record_as_row(self):
        record = StatisticsRecord(timestamp=5.0, locks_held=3, deadlocks=1)
        row = record.as_row()
        assert row[0] == 5.0
        assert len(row) == 1 + len(STATISTIC_FIELDS)
        assert row[1 + STATISTIC_FIELDS.index("locks_held")] == 3
        assert row[1 + STATISTIC_FIELDS.index("deadlocks")] == 1

    def test_workload_record_cost_properties(self):
        record = WorkloadRecord(
            text_hash=1, session_id=1, timestamp=0.0,
            optimize_time_s=0.0, execute_time_s=0.0, wallclock_s=0.0,
            estimated_io=10.0, estimated_cpu=2.0,
            actual_io=20.0, actual_cpu=3.0,
            logical_reads=5, physical_reads=1, tuples_processed=9,
            rows_returned=4, used_indexes="", monitor_time_s=0.0,
        )
        assert record.estimated_cost == 12.0
        assert record.actual_cost == 23.0

    def test_statement_record_bump(self):
        from repro.core.records import StatementRecord
        record = StatementRecord(1, "q", frequency=1, first_seen=1.0,
                                 last_seen=1.0)
        bumped = record.bumped(9.0)
        assert bumped.frequency == 2
        assert bumped.last_seen == 9.0
        assert bumped.first_seen == 1.0
        assert record.frequency == 1  # immutable original


class TestWorkloadDbCompaction:
    def test_purge_compacts_bloated_tables(self):
        clock = VirtualClock(1000.0)
        wdb = WorkloadDatabase(EngineConfig(), clock)
        # write a lot of history, all of it old
        for batch in range(50):
            rows = [(f"idx{batch}_{i}", "t", i) for i in range(40)]
            wdb.append("wl_indexes", rows, captured_at=float(batch))
        pages_before = wdb.database.storage_for("wl_indexes").page_count
        removed = wdb.purge_older_than(cutoff=100.0)
        assert removed == 2000
        pages_after = wdb.database.storage_for("wl_indexes").page_count
        assert pages_after < pages_before

    def test_purge_keeps_recent(self):
        wdb = WorkloadDatabase(EngineConfig())
        wdb.append("wl_indexes", [("new", "t", 1)], captured_at=500.0)
        assert wdb.purge_older_than(100.0) == 0
        assert wdb.row_count("wl_indexes") == 1

    def test_all_tables_have_captured_at_first(self):
        for schema in WORKLOAD_TABLES:
            assert schema.columns[0].name == "captured_at"


def _sql_session(wdb):
    """A SQL session on the workload DB itself (writes bypass append)."""
    engine = EngineInstance(wdb.config, clock=wdb.clock)
    engine.attach_database(wdb.database)
    return engine.connect(wdb.database.name)


def _pool_touches(wdb):
    stats = wdb.database.pool.stats()
    return stats.hits + stats.misses


class TestWorkloadDbPurgeBound:
    """The purge skips tables whose live rows are all recent, without
    ever missing a row that is old, whoever wrote it."""

    def test_sql_insert_of_old_row_is_purged(self):
        wdb = WorkloadDatabase(EngineConfig(), VirtualClock(1000.0))
        wdb.append("wl_indexes", [("new", "t", 1)], captured_at=500.0)
        assert wdb.purge_older_than(100.0) == 0
        _sql_session(wdb).execute(
            "insert into wl_indexes values (1.0, 'sql', 't', 1, 0)")
        assert wdb.purge_older_than(100.0) == 1
        names = [row[1] for _rid, row in
                 wdb.database.storage_for("wl_indexes").scan()]
        assert names == ["new"]

    def test_sql_update_to_old_row_is_purged(self):
        wdb = WorkloadDatabase(EngineConfig(), VirtualClock(1000.0))
        wdb.append("wl_indexes", [("a", "t", 1), ("b", "t", 2)],
                   captured_at=500.0)
        assert wdb.purge_older_than(100.0) == 0
        _sql_session(wdb).execute(
            "update wl_indexes set captured_at = 1.0 "
            "where index_name = 'a'")
        assert wdb.purge_older_than(100.0) == 1
        assert wdb.row_count("wl_indexes") == 1

    def test_database_level_writes_invalidate_the_bound(self):
        wdb = WorkloadDatabase(EngineConfig(), VirtualClock(1000.0))
        wdb.append("wl_indexes", [("a", "t", 1)], captured_at=500.0)
        assert wdb.purge_older_than(100.0) == 0
        rowid = wdb.database.insert_row("wl_indexes",
                                        (600.0, "b", "t", 1, 0))
        wdb.database.update_row("wl_indexes", rowid,
                                (2.0, "b", "t", 1, 0))
        assert wdb.purge_older_than(100.0) == 1

    def test_append_after_backward_clock_jump_is_purged(self):
        wdb = WorkloadDatabase(EngineConfig(), VirtualClock(1000.0))
        wdb.append("wl_indexes", [("now", "t", 1)], captured_at=1000.0)
        assert wdb.purge_older_than(900.0) == 0
        # A clock stepped back stamps the next batch in the past.
        wdb.append("wl_indexes", [("past", "t", 1)], captured_at=10.0)
        assert wdb.purge_older_than(900.0) == 1
        names = [row[1] for _rid, row in
                 wdb.database.storage_for("wl_indexes").scan()]
        assert names == ["now"]

    def test_daemon_flush_after_backward_clock_jump_is_purged(self):
        from repro.config import DaemonConfig
        from repro.setups import daemon_setup
        clock = VirtualClock(10_000_000.0)
        setup = daemon_setup("db", clock=clock, daemon_config=DaemonConfig(
            flush_every_polls=1, retention_s=86400.0))
        session = setup.engine.connect("db")
        session.execute("create table t (a int)")
        session.execute("select a from t")
        setup.daemon.poll_once()
        wdb = setup.workload_db
        # The next flush runs on a wall clock stepped back ten days.
        faultsim.arm_from_spec("clock.now:once,jump=-864000")
        session.execute("select a from t where a = 1")
        setup.daemon.poll_once()
        stale = [row for _rid, row in
                 wdb.database.storage_for("wl_workload").scan()
                 if row[0] < clock.monotonic() - 86400.0]
        assert stale
        # The clock is stepped forward again: the stale batch expires.
        faultsim.reset()
        setup.daemon.flush()
        kept = [row[0] for _rid, row in
                wdb.database.storage_for("wl_workload").scan()]
        assert kept and min(kept) >= clock.now() - 86400.0

    def test_bound_survives_compaction(self):
        clock = VirtualClock(1000.0)
        wdb = WorkloadDatabase(EngineConfig(), clock)
        for batch in range(50):
            rows = [(f"idx{batch}_{i}", "t", i) for i in range(40)]
            wdb.append("wl_indexes", rows, captured_at=float(batch))
        wdb.append("wl_indexes", [("keep", "t", 1)], captured_at=500.0)
        pages_before = wdb.database.storage_for("wl_indexes").page_count
        assert wdb.purge_older_than(100.0) == 2000
        assert wdb.database.storage_for("wl_indexes").page_count \
            < pages_before  # compacted by a MODIFY rebuild
        touches = _pool_touches(wdb)
        assert wdb.purge_older_than(400.0) == 0
        assert _pool_touches(wdb) == touches
        # A MODIFY outside the purge keeps the rows, and so the bound.
        wdb.database.modify_table("wl_indexes", StorageStructure.HEAP)
        touches = _pool_touches(wdb)
        assert wdb.purge_older_than(400.0) == 0
        assert _pool_touches(wdb) == touches
        assert wdb.purge_older_than(600.0) == 1
        assert wdb.row_count("wl_indexes") == 0

    @pytest.mark.parametrize("batches", [1, 40])
    def test_purge_with_nothing_expired_touches_no_page(self, batches):
        wdb = WorkloadDatabase(EngineConfig(), VirtualClock(1000.0))
        for batch in range(batches):
            for schema in WORKLOAD_TABLES:
                row = tuple(None for _ in schema.columns[1:-1])
                wdb.append(schema.name, [row] * 50,
                           captured_at=500.0 + batch)
        touches = _pool_touches(wdb)
        assert wdb.purge_older_than(400.0) == 0
        assert _pool_touches(wdb) == touches

    def test_purge_removes_exactly_the_rows_before_the_cutoff(self):
        wdb = WorkloadDatabase(EngineConfig(), VirtualClock(1000.0))
        for stamp in (10.0, 20.0, 30.0, 40.0):
            wdb.append("wl_indexes", [(f"i{stamp}", "t", 1)],
                       captured_at=stamp)
        assert wdb.purge_older_than(30.0) == 2
        assert wdb.purge_older_than(30.0) == 0
        stamps = sorted(row[0] for _rid, row in
                        wdb.database.storage_for("wl_indexes").scan())
        assert stamps == [30.0, 40.0]
