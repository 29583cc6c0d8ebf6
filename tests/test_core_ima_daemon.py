"""Tests for IMA virtual tables, the workload DB and the storage daemon."""

import pytest

from repro.clock import VirtualClock
from repro.config import DaemonConfig, EngineConfig, MonitorConfig
from repro.core import ima
from repro.core.alerts import (
    add_alert_listener,
    fired_alerts,
    install_standard_alerts,
)
from repro.core.daemon import StorageDaemon
from repro.core.ima import IMA_TABLE_NAMES
from repro.core.sensors import statement_hash
from repro.core.workload_db import (
    TABLE_SOURCES,
    WORKLOAD_TABLES,
    WorkloadDatabase,
)
from repro.engine.database import Database
from repro.errors import MonitorError, ReproError
from repro.setups import daemon_setup


@pytest.fixture
def wired():
    """A daemon setup on a virtual clock with a tiny populated table."""
    clock = VirtualClock(1_000_000.0)
    setup = daemon_setup("db", clock=clock,
                         daemon_config=DaemonConfig(poll_interval_s=30.0,
                                                    flush_every_polls=2,
                                                    retention_s=7 * 86400.0))
    session = setup.engine.connect("db")
    session.execute("create table t (a int not null, primary key (a))")
    session.execute("insert into t values (1), (2), (3)")
    return setup, session, clock


class TestIma:
    def test_all_ima_tables_registered(self, wired):
        setup, session, _clock = wired
        for name in IMA_TABLE_NAMES:
            result = session.execute(f"select count(*) from {name}")
            assert result.scalar() >= 0

    def test_ima_statements_queryable_by_sql(self, wired):
        setup, session, _clock = wired
        session.execute("select a from t where a = 1")
        result = session.execute(
            "select query_text, frequency from ima_statements "
            "where query_text like '%where a = 1%'")
        assert result.rows
        assert result.rows[0][1] >= 1

    def test_ima_workload_costs_present(self, wired):
        setup, session, _clock = wired
        session.execute("select count(*) from t")
        text_hash = statement_hash("select count(*) from t")
        result = session.execute(
            f"select actual_io, estimated_io from ima_workload "
            f"where text_hash = {text_hash}")
        assert result.rows
        assert result.rows[0][0] > 0

    def test_ima_tables_enriched_with_geometry(self, wired):
        setup, session, _clock = wired
        session.execute("select a from t")
        result = session.execute(
            "select structure, data_pages, row_count from ima_tables "
            "where table_name = 't'")
        structure, pages, rows = result.rows[0]
        assert structure == "heap"
        assert pages >= 1
        assert rows == 3

    def test_ima_requires_no_disk_io(self, wired):
        setup, session, _clock = wired
        session.execute("select a from t")  # populate buffers
        db = setup.engine.database("db")
        before = db.disk.counters()
        session.execute("select count(*) from ima_statements")
        after = db.disk.counters()
        assert after.reads == before.reads  # in-memory only

    def test_ima_seq_filter(self, wired):
        setup, session, _clock = wired
        session.execute("select a from t")
        monitor = setup.monitor
        top = max(seq for seq, _ in monitor.workload.snapshot())
        assert monitor.workload.snapshot(min_seq=top) == []
        older = monitor.workload.snapshot(min_seq=0)
        assert len(older) >= 1


class TestImaBoundedPoll:
    """A poll reads only the rows newer than its marks, and planning it
    builds no rows at all."""

    def test_table_info_builds_no_rows(self, monkeypatch):
        calls = []
        rows = ima._ImaSource.rows

        def counting(self, *args):
            calls.append(args)
            return rows(self, *args)

        monkeypatch.setattr(ima._ImaSource, "rows", counting)
        setup = daemon_setup("db", clock=VirtualClock(1_000_000.0))
        session = setup.engine.connect("db")
        session.execute("create table t (a int not null, primary key (a))")
        session.execute("insert into t values (1), (2)")
        session.execute("select a from t where a = 1")
        database = setup.engine.database("db")
        for name in IMA_TABLE_NAMES:
            calls.clear()
            info = database.table_info(name)
            assert calls == [], name
            assert info.row_count == len(database.virtual_rows(name))
            assert info.virtual_key == ("shard", "seq")

    @pytest.mark.parametrize("shard_count", [1, 3])
    def test_full_ring_poll_builds_only_what_it_collects(self, monkeypatch,
                                                        shard_count):
        config = EngineConfig(monitor=MonitorConfig(
            shard_count=shard_count, statement_buffer_size=8,
            workload_buffer_size=16, reference_buffer_size=16))
        setup = daemon_setup("db", config=config,
                             clock=VirtualClock(1_000_000.0))
        sessions = [setup.engine.connect("db") for _ in range(shard_count)]
        sessions[0].execute("create table t (a int not null, "
                            "primary key (a))")
        for i in range(80):
            sessions[i % shard_count].execute(f"insert into t values ({i})")
        setup.daemon.poll_once()
        for i in range(80, 83):
            sessions[i % shard_count].execute(f"insert into t values ({i})")
        database = setup.engine.database("db")
        in_rings = sum(len(database.virtual_rows(name))
                       for name in IMA_TABLE_NAMES)
        assert len(database.virtual_rows("ima_workload")) == \
            16 * shard_count  # the workload rings are full
        built = []
        read = Database.virtual_rows

        def spy(self, *args):
            result = read(self, *args)
            built.append(len(result))
            return result

        monkeypatch.setattr(Database, "virtual_rows", spy)
        stats = setup.daemon.poll_once()
        assert len(built) == len(TABLE_SOURCES) * shard_count
        assert sum(built) == stats.rows_collected
        assert stats.rows_collected < in_rings

    @pytest.mark.parametrize("shard_count", [1, 3])
    def test_persisted_rows_match_an_unbounded_read(self, monkeypatch,
                                                    shard_count):
        """The daemon persists what it would persist if every poll read
        the whole of every ring and filtered it (the unbounded provider
        behind the same SQL).  Only measurements differ: the sensors'
        own wall time, and the tuples (and CPU estimate derived from
        them) that the daemon's poll statements report reading."""

        def run():
            config = EngineConfig(monitor=MonitorConfig(
                shard_count=shard_count, statement_buffer_size=10,
                workload_buffer_size=30, reference_buffer_size=40),
                daemon=DaemonConfig(flush_every_polls=2))
            setup = daemon_setup("db", config=config,
                                 clock=VirtualClock(1_000_000.0))
            sessions = [setup.engine.connect("db")
                        for _ in range(2 * shard_count)]
            sessions[0].execute("create table t (a int not null, b int, "
                                "primary key (a))")
            for i in range(90):
                session = sessions[i % len(sessions)]
                session.execute(f"insert into t values ({i}, {i % 7})")
                if i % 5 == 0:
                    session.execute(f"select * from t where b = {i % 7}")
                if i % 13 == 0:
                    setup.daemon.poll_once()
            setup.daemon.poll_once()
            setup.daemon.flush()
            storage = setup.workload_db.database.storage_for
            persisted = {schema.name: [row for _rid, row
                                       in storage(schema.name).scan()]
                         for schema in WORKLOAD_TABLES}
            return persisted, {s.session_id for s in sessions}

        bounded, foreground = run()
        unbounded_read = Database.virtual_rows
        monkeypatch.setattr(
            Database, "virtual_rows",
            lambda self, name, partition=None, min_seq=0:
                unbounded_read(self, name))
        reference, _foreground = run()

        workload = next(s for s in WORKLOAD_TABLES
                        if s.name == "wl_workload")
        position = workload.column_index
        measured = {position("monitor_time_s")}
        poll_work = {position("tuples_processed"), position("actual_cpu")}
        session = position("session_id")
        for name, rows in bounded.items():
            expected = reference[name]
            assert [row[-1] for row in rows] == \
                [row[-1] for row in expected], f"{name} src_seq"
            if name != "wl_workload":
                assert rows == expected, name
                continue
            assert any(row[session] not in foreground for row in rows)
            for got, want in zip(rows, expected):
                skip = measured | (poll_work if got[session] not in foreground
                                   else set())
                for index, (a, b) in enumerate(zip(got, want)):
                    if index not in skip:
                        assert a == b, (workload.columns[index].name, got)
                    elif index in poll_work:
                        assert a <= b  # a bounded poll reads no more


class TestWorkloadDatabase:
    def test_tables_created(self):
        wdb = WorkloadDatabase(EngineConfig())
        for schema in WORKLOAD_TABLES:
            assert wdb.database.catalog.has_table(schema.name)
        assert wdb.total_rows() == 0

    def test_append_stamps_capture_time(self):
        wdb = WorkloadDatabase(EngineConfig())
        wdb.append("wl_indexes", [("idx", "t", 3)], captured_at=123.0)
        rows = [row for _rid, row in
                wdb.database.storage_for("wl_indexes").scan()]
        # Leading capture timestamp, trailing src_seq (0: none supplied).
        assert rows == [(123.0, "idx", "t", 3, 0)]

    def test_append_records_source_seqs(self):
        wdb = WorkloadDatabase(EngineConfig())
        wdb.append("wl_indexes", [("a", "t", 1), ("b", "t", 2)],
                   captured_at=5.0, seqs=[7, 9])
        rows = [row for _rid, row in
                wdb.database.storage_for("wl_indexes").scan()]
        assert [row[-1] for row in rows] == [7, 9]
        assert wdb.load_high_water()["wl_indexes"] == 9
        assert wdb.load_high_water()["wl_plans"] == 0

    def test_purge_retention(self):
        wdb = WorkloadDatabase(EngineConfig())
        wdb.append("wl_indexes", [("old", "t", 1)], captured_at=100.0)
        wdb.append("wl_indexes", [("new", "t", 1)], captured_at=200.0)
        removed = wdb.purge_older_than(150.0)
        assert removed == 1
        assert wdb.row_count("wl_indexes") == 1


def _disk_image(database):
    """Every allocated page's bytes, after writing back dirty frames."""
    database.pool.flush_all()
    disk = database.disk
    return [disk.read(page_id)
            for page_id in range(disk.counters().allocations)
            if disk.exists(page_id)]


def _statistics_row(i):
    # ts, current/peak sessions, locks held/waiters/requests, lock
    # waits, deadlocks, timeouts, cache hits/misses, reads, writes
    return (float(i), i % 40, 40, i % 3, 0, i, i % 150, i % 5, 0,
            i * 10, i, i, i)


def _tables_row(i):
    return (f"table{i}", i, "heap", 10, i % 4, 100 * i, i % 2)


class TestBatchedAppend:
    """``append`` writes one batch; the result is what the former
    row-at-a-time ``Database.insert_row`` loop produced."""

    @staticmethod
    def _pair():
        batched = WorkloadDatabase(EngineConfig(), VirtualClock(50.0))
        looped = WorkloadDatabase(EngineConfig(), VirtualClock(50.0))
        return batched, looped

    @staticmethod
    def _loop(wdb, table, rows, captured_at, seqs):
        for row, seq in zip(rows, seqs):
            wdb.database.insert_row(table, (captured_at,) + row + (seq,))

    def test_pages_and_bytes_match_row_at_a_time(self):
        batched, looped = self._pair()
        texts = [("q" * (i % 97),) for i in range(300)]
        for flush in range(4):
            rows = [(i, texts[i][0], i, 1.0, 2.0) for i in range(300)]
            seqs = list(range(flush * 300 + 1, flush * 300 + 301))
            batched.append("wl_statements", rows, float(flush), seqs=seqs)
            self._loop(looped, "wl_statements", rows, float(flush), seqs)
        first = batched.database.storage_for("wl_statements")
        second = looped.database.storage_for("wl_statements")
        assert first.page_count == second.page_count > 1
        assert list(first.scan()) == list(second.scan())
        assert batched.total_bytes == looped.total_bytes
        assert _disk_image(batched.database) == _disk_image(looped.database)

    def test_alerts_fire_as_row_at_a_time(self):
        batched, looped = self._pair()
        for wdb in (batched, looped):
            install_standard_alerts(wdb, max_sessions=30,
                                    lock_wait_threshold=120)
        statistics = [_statistics_row(i) for i in range(200)]
        tables = [_tables_row(i) for i in range(60)]
        seqs = list(range(1, 201))
        batched.append("wl_statistics", statistics, 7.0, seqs=seqs)
        batched.append("wl_tables", tables, 7.0, seqs=seqs[:60])
        self._loop(looped, "wl_statistics", statistics, 7.0, seqs)
        self._loop(looped, "wl_tables", tables, 7.0, seqs[:60])
        fired = fired_alerts(batched)
        assert {alert.trigger_name for alert in fired} == {
            "alert_max_sessions", "alert_deadlocks", "alert_lock_waits",
            "alert_overflow_pages"}
        assert fired == fired_alerts(looped)

    @pytest.mark.parametrize("seqs", [[1], [1, 2, 3]])
    def test_seq_count_mismatch_rejected_before_writing(self, seqs):
        wdb = WorkloadDatabase(EngineConfig())
        with pytest.raises(MonitorError):
            wdb.append("wl_indexes", [("a", "t", 1), ("b", "t", 2)],
                       captured_at=1.0, seqs=seqs)
        assert wdb.row_count("wl_indexes") == 0

    def test_invalid_row_rejects_the_whole_batch(self):
        wdb = WorkloadDatabase(EngineConfig())
        with pytest.raises(ReproError):
            wdb.append("wl_indexes", [("a", "t", 1), ("b", "t", "x")],
                       captured_at=1.0, seqs=[1, 2])
        assert wdb.row_count("wl_indexes") == 0


class TestDaemon:
    def test_poll_collects_and_flushes_on_schedule(self, wired):
        setup, session, clock = wired
        session.execute("select a from t")
        stats1 = setup.daemon.poll_once()
        assert stats1.rows_collected > 0
        assert not stats1.flushed  # flush_every_polls=2
        assert setup.daemon.pending_rows > 0
        stats2 = setup.daemon.poll_once()
        assert stats2.flushed
        assert setup.daemon.pending_rows == 0
        assert setup.workload_db.total_rows() > 0

    def test_incremental_polls_no_duplicates(self, wired):
        setup, session, clock = wired
        session.execute("select a from t where a = 1")
        setup.daemon.poll_once()
        setup.daemon.flush()
        count_after_first = setup.workload_db.row_count("wl_workload")
        # no new foreground work: second poll only sees the daemon's own
        # ima queries, and the already-captured workload rows are not
        # re-collected
        setup.daemon.poll_once()
        setup.daemon.flush()
        target_hash = statement_hash("select a from t where a = 1")
        rows = [row for _rid, row in setup.workload_db.database
                .storage_for("wl_workload").scan()
                if row[1] == target_hash]
        assert len(rows) == 1
        assert setup.workload_db.row_count("wl_workload") \
            >= count_after_first

    def test_retention_purges_old_history(self, wired):
        setup, session, clock = wired
        session.execute("select a from t")
        setup.daemon.poll_once()
        setup.daemon.flush()
        rows_before = setup.workload_db.total_rows()
        assert rows_before > 0
        clock.advance(8 * 86400.0)  # past the 7-day retention
        setup.daemon.poll_once()
        written, purged = setup.daemon.flush()
        assert purged >= rows_before

    def test_daemon_counters(self, wired):
        setup, session, clock = wired
        session.execute("select a from t")
        setup.daemon.poll_once()
        setup.daemon.flush()
        assert setup.daemon.total_polls == 1
        assert setup.daemon.total_rows_flushed > 0

    def test_start_twice_rejected(self, wired):
        setup, _session, _clock = wired
        setup.daemon.start()
        try:
            with pytest.raises(MonitorError):
                setup.daemon.start()
        finally:
            setup.daemon.stop(final_flush=False)

    def test_crash_recovery_round_trip(self, wired):
        """Kill the daemon mid-flush, restart fresh, no dup / no loss."""
        from repro import faultsim

        setup, session, _clock = wired
        session.execute("select a from t where a = 2")
        setup.daemon.poll_once()
        # The third table's append fails: the flush dies with a clean
        # persisted prefix, like a daemon killed mid-write.
        faultsim.get_injector().arm("workload_db.append", "once", after=2)
        with pytest.raises(MonitorError):
            setup.daemon.flush()
        assert setup.workload_db.total_rows() > 0  # prefix persisted
        # Restart: a brand-new daemon adopts the persisted high-water
        # marks in __init__ and re-reads only what the crash lost.
        reborn = StorageDaemon(setup.engine, "db", setup.workload_db,
                               config=setup.daemon.config)
        reborn.poll_once()
        reborn.flush()
        for schema in WORKLOAD_TABLES:
            storage = setup.workload_db.database.storage_for(schema.name)
            seqs = [row[-1] for _rid, row in storage.scan()]
            assert len(seqs) == len(set(seqs)), f"{schema.name} duplicated"
        target_hash = statement_hash("select a from t where a = 2")
        rows = [row for _rid, row in setup.workload_db.database
                .storage_for("wl_workload").scan()
                if row[1] == target_hash]
        assert len(rows) == 1  # persisted exactly once across the crash

    def test_background_thread_runs(self):
        setup = daemon_setup(
            "bg", daemon_config=DaemonConfig(poll_interval_s=0.02,
                                             flush_every_polls=1))
        session = setup.engine.connect("bg")
        session.execute("create table t (a int)")
        session.execute("insert into t values (1)")
        setup.daemon.start()
        import time
        time.sleep(0.3)
        setup.daemon.stop()
        assert setup.daemon.total_polls >= 2
        assert setup.workload_db.total_rows() > 0


class TestAlerts:
    def test_standard_alerts_fire(self, wired):
        setup, session, clock = wired
        install_standard_alerts(setup.workload_db, max_sessions=1)
        seen = []
        add_alert_listener(setup.workload_db, seen.append)
        session.execute("select a from t")
        setup.daemon.poll_once()
        setup.daemon.flush()
        names = {a.trigger_name for a in fired_alerts(setup.workload_db)}
        assert "alert_max_sessions" in names  # >= 1 session active
        assert seen  # listener invoked

    def test_overflow_alert(self, wired):
        setup, session, clock = wired
        install_standard_alerts(setup.workload_db)
        session.execute("create table big (a int not null, primary key (a)) "
                        "with main_pages = 1")
        values = ", ".join(f"({i})" for i in range(3000))
        session.execute(f"insert into big values {values}")
        session.execute("select count(*) from big")
        setup.daemon.poll_once()
        setup.daemon.flush()
        names = {a.trigger_name for a in fired_alerts(setup.workload_db)}
        assert "alert_overflow_pages" in names
