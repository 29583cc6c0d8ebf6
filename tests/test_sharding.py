"""Sharded monitor tests: seq encoding, merged views, shard routing,
and the daemon's end-to-end exactly-once contract over shards.

The property test mirrors the determinism rules of
``test_daemon_recovery.py``: virtual clocks, seeded RNG interleavings,
no sleeps.
"""

import random

import pytest

from repro import faultsim
from repro.clock import VirtualClock
from repro.config import DaemonConfig, EngineConfig, MonitorConfig
from repro.core.daemon import StorageDaemon
from repro.core.ima import IMA_TABLE_NAMES, register_ima_tables
from repro.core.monitor import IntegratedMonitor
from repro.core.records import WorkloadRecord
from repro.core.sensors import statement_hash
from repro.core.sharding import (
    SHARD_STRIDE,
    MergedKeyedView,
    MergedRingView,
    ShardedMonitor,
    decode_seq,
    encode_seq,
    monitor_shards,
    shard_of_seq,
)
from repro.core.workload_db import TABLE_SOURCES
from repro.errors import MonitorError
from repro.setups import daemon_setup, monitoring_setup, original_setup
from repro.sql.parser import parse_statement


def _record(text_hash: int, session_id: int, ts: float = 0.0) -> WorkloadRecord:
    return WorkloadRecord(
        text_hash=text_hash, session_id=session_id, timestamp=ts,
        optimize_time_s=0.0, execute_time_s=0.0, wallclock_s=0.0,
        estimated_io=0.0, estimated_cpu=0.0, actual_io=0.0, actual_cpu=0.0,
        logical_reads=0, physical_reads=0, tuples_processed=0,
        rows_returned=0, used_indexes="", monitor_time_s=0.0)


def _sharded_config(shard_count: int, poll_workers: int = 1) -> EngineConfig:
    return EngineConfig(monitor=MonitorConfig(shard_count=shard_count),
                        daemon=DaemonConfig(poll_workers=poll_workers,
                                            flush_every_polls=1))


class TestSeqEncoding:
    def test_roundtrip(self):
        for local in (1, 2, 999, 10**9):
            for shard in (0, 1, 63):
                merged = encode_seq(local, shard)
                assert decode_seq(merged) == (local, shard)
                assert shard_of_seq(merged) == shard

    def test_roundtrip_at_boundary_shards(self):
        # Shards 0 and SHARD_STRIDE - 1 are the aliasing-prone edges of
        # the encoding; a seeded sweep of local seqs must survive both.
        rng = random.Random(29)
        locals_ = [0, 1, SHARD_STRIDE - 1, SHARD_STRIDE,
                   *(rng.randrange(10**12) for _ in range(200))]
        for shard in (0, SHARD_STRIDE - 1):
            for local in locals_:
                merged = encode_seq(local, shard)
                assert decode_seq(merged) == (local, shard)
                assert shard_of_seq(merged) == shard

    def test_encode_rejects_out_of_range_shard(self):
        for shard in (-1, SHARD_STRIDE, SHARD_STRIDE + 5):
            with pytest.raises(ValueError, match="shard_id"):
                encode_seq(1, shard)

    def test_encode_rejects_negative_local_seq(self):
        with pytest.raises(ValueError, match="local_seq"):
            encode_seq(-1, 0)
        with pytest.raises(ValueError, match="local_seq"):
            encode_seq(-10**9, SHARD_STRIDE - 1)

    def test_merged_seqs_unique_across_shards(self):
        merged = {encode_seq(local, shard)
                  for local in range(1, 200) for shard in range(8)}
        assert len(merged) == 199 * 8

    def test_per_shard_monotone(self):
        assert encode_seq(2, 5) > encode_seq(1, 5)
        # ... but NOT globally ordered by append time across shards:
        # a lagging shard's later append can encode below another
        # shard's earlier one — the reason the daemon keeps per-shard
        # high-water vectors instead of one scalar.
        assert encode_seq(1, 5) < encode_seq(2, 0)

    def test_shard_count_capped_at_stride(self):
        monitor = ShardedMonitor(MonitorConfig(shard_count=SHARD_STRIDE + 9))
        assert monitor.shard_count == SHARD_STRIDE


class TestMergedViews:
    def test_ring_view_orders_by_encoded_seq(self):
        monitor = ShardedMonitor(MonitorConfig(shard_count=3),
                                 VirtualClock(0.0))
        for shard, count in ((2, 3), (0, 2), (1, 1)):
            for i in range(count):
                monitor.shards[shard].record_workload(
                    _record(100 * shard + i, shard))
        view = monitor.workload
        assert isinstance(view, MergedRingView)
        seqs = [seq for seq, _r in view.snapshot()]
        assert seqs == sorted(seqs)
        assert len(view) == 6
        assert {shard_of_seq(seq) for seq in seqs} == {0, 1, 2}
        # min_seq filters in merged space
        later = view.snapshot(min_seq=seqs[2])
        assert [seq for seq, _r in later] == seqs[3:]

    def test_keyed_view_get_prefers_freshest_shard(self):
        monitor = ShardedMonitor(MonitorConfig(shard_count=2),
                                 VirtualClock(0.0))
        monitor.shards[0].record_statement("select 1", 7, now=10.0)
        monitor.shards[1].record_statement("select 1 ", 7, now=20.0)
        view = monitor.statements
        assert isinstance(view, MergedKeyedView)
        record = view.get(7)
        assert record is not None and record.first_seen == 20.0
        # snapshot keeps one row per (shard, key): per-shard history
        assert len(view.snapshot()) == 2
        assert 7 in view

    def test_monitor_shards_of_plain_monitor(self):
        monitor = IntegratedMonitor()
        assert monitor_shards(monitor) == (monitor,)
        assert monitor.shard_count == 1


class TestShardRouting:
    def test_sessions_write_to_their_hash_bucket(self):
        setup = monitoring_setup(_sharded_config(4))
        engine = setup.engine
        engine.create_database("db")
        sessions = [engine.connect("db") for _ in range(5)]
        for session in sessions:
            session.execute("create table t%d (a int not null, "
                            "primary key (a))" % session.session_id)
            session.execute("select a from t%d" % session.session_id)
        monitor = setup.monitor
        for session in sessions:
            shard = monitor.shard_id_for(session.session_id)
            recorded = {r.session_id for r in
                        monitor.shards[shard].workload.values()}
            assert session.session_id in recorded
            for other in range(4):
                if other == shard:
                    continue
                assert session.session_id not in {
                    r.session_id
                    for r in monitor.shards[other].workload.values()}

    def test_statistics_rate_limit_stays_global(self):
        # Every shard-bound sensor samples into shard 0, so sharding
        # does not multiply the paper's 1/s statistics rate.
        setup = monitoring_setup(_sharded_config(4),
                                 clock=VirtualClock(1000.0))
        engine = setup.engine
        engine.create_database("db")
        sessions = [engine.connect("db") for _ in range(4)]
        for session in sessions:
            session.execute("create table s%d (a int not null, "
                            "primary key (a))" % session.session_id)
        monitor = setup.monitor
        total = sum(len(shard.statistics) for shard in monitor.shards)
        assert total == len(monitor.shards[0].statistics) <= 1


def _persisted(workload_db, table="wl_workload"):
    storage = workload_db.database.storage_for(table)
    return [row for _rid, row in storage.scan()]


def assert_exactly_once(workload_db):
    for wl_table in TABLE_SOURCES:
        seqs = [row[-1] for row in _persisted(workload_db, wl_table)]
        assert len(seqs) == len(set(seqs)), (
            f"{wl_table} persisted duplicate source rows: {sorted(seqs)}")


class TestShardedDaemonEndToEnd:
    def test_poll_persists_all_shards_with_attribution(self):
        setup = daemon_setup("db", config=_sharded_config(4, poll_workers=3),
                             clock=VirtualClock(1_000_000.0))
        engine = setup.engine
        sessions = [engine.connect("db") for _ in range(6)]
        for session in sessions:
            session.execute("create table e%d (a int not null, "
                            "primary key (a))" % session.session_id)
            session.execute("insert into e%d values (1)"
                            % session.session_id)
            session.execute("select a from e%d" % session.session_id)
        setup.daemon.poll_once()
        setup.daemon.flush()
        assert_exactly_once(setup.workload_db)
        rows = _persisted(setup.workload_db)
        by_session = {}
        for row in rows:
            seq, session_id = row[-1], row[2]
            by_session.setdefault(session_id, []).append(seq)
        for session in sessions:
            seqs = by_session.get(session.session_id)
            assert seqs, f"session {session.session_id} lost"
            expected_shard = session.session_id % 4
            assert all(shard_of_seq(seq) == expected_shard for seq in seqs)

    def test_restart_resumes_from_high_water_vector(self):
        setup = daemon_setup("db", config=_sharded_config(4),
                             clock=VirtualClock(1_000_000.0))
        engine = setup.engine
        sessions = [engine.connect("db") for _ in range(4)]
        for session in sessions:
            session.execute("create table r%d (a int not null, "
                            "primary key (a))" % session.session_id)
        setup.daemon.poll_once()
        setup.daemon.flush()
        before = len(_persisted(setup.workload_db))
        assert before > 0
        # A fresh daemon over the same workload DB must resync the
        # per-shard vector from persisted src_seq values alone.
        reborn = StorageDaemon(engine, "db", setup.workload_db,
                               config=setup.daemon.config, shard_count=4)
        marks = setup.workload_db.load_high_water_vector()["wl_workload"]
        assert set(marks) == {s.session_id % 4 for s in sessions}
        reborn.poll_once()
        reborn.flush()
        assert_exactly_once(setup.workload_db)

    def test_crash_mid_flush_recovery_exactly_once(self):
        setup = daemon_setup("db", config=_sharded_config(4),
                             clock=VirtualClock(1_000_000.0))
        engine = setup.engine
        sessions = [engine.connect("db") for _ in range(4)]
        for session in sessions:
            session.execute("create table c%d (a int not null, "
                            "primary key (a))" % session.session_id)
            session.execute("select a from c%d" % session.session_id)
        faultsim.get_injector().arm("workload_db.append", "once", after=2)
        with pytest.raises(MonitorError):
            setup.daemon.poll_once()
        assert setup.workload_db.total_rows() > 0  # crashed mid-flush
        reborn = StorageDaemon(engine, "db", setup.workload_db,
                               config=setup.daemon.config, shard_count=4)
        reborn.poll_once()
        reborn.flush()
        assert_exactly_once(setup.workload_db)
        for session in sessions:
            target = statement_hash("select a from c%d" % session.session_id)
            matches = [row for row in _persisted(setup.workload_db)
                       if row[1] == target]
            assert len(matches) == 1


class TestMergedOrderingProperty:
    """Satellite: any interleaving of shard appends and daemon polls
    yields a persisted sequence with no duplicates, no lost records and
    per-shard monotone src_seq order."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_interleavings(self, seed):
        rng = random.Random(seed)
        shard_count = 4
        setup = daemon_setup(
            "db", config=_sharded_config(shard_count,
                                         poll_workers=rng.choice((1, 2, 3))),
            clock=VirtualClock(1_000_000.0))
        monitor = setup.monitor
        appended: dict[int, int] = {s: 0 for s in range(shard_count)}
        hashes: set[int] = set()
        next_hash = 777_000
        for _step in range(rng.randint(15, 35)):
            if rng.random() < 0.3:
                setup.daemon.poll_once()
                setup.daemon.flush()
                continue
            shard = rng.randrange(shard_count)
            for _burst in range(rng.randint(1, 4)):
                # session_id chosen so that sid % shard_count == shard
                monitor.shards[shard].record_workload(
                    _record(next_hash, 1004 + shard))
                hashes.add(next_hash)
                next_hash += 1
                appended[shard] += 1
        setup.daemon.poll_once()
        setup.daemon.flush()
        assert_exactly_once(setup.workload_db)
        mine = [row for row in _persisted(setup.workload_db)
                if row[1] in hashes]
        # no loss: every appended record persisted exactly once
        assert len(mine) == sum(appended.values())
        per_shard_locals: dict[int, list[int]] = {}
        for row in mine:
            local, shard = decode_seq(row[-1])
            assert (1004 + shard) == row[2]  # attribution survived
            per_shard_locals.setdefault(shard, []).append(local)
        for shard, locals_ in per_shard_locals.items():
            # persisted in per-shard append order, gap-free
            assert locals_ == sorted(locals_)
            assert len(locals_) == appended[shard]
            assert len(set(locals_)) == len(locals_)


class TestShardedIma:
    def test_ima_workload_carries_shard_column(self):
        setup = daemon_setup("db", config=_sharded_config(3),
                             clock=VirtualClock(1_000_000.0))
        engine = setup.engine
        sessions = [engine.connect("db") for _ in range(3)]
        for session in sessions:
            session.execute("create table i%d (a int not null, "
                            "primary key (a))" % session.session_id)
        reader = engine.connect("db")
        result = reader.execute("select * from ima_workload")
        seqs = [row[0] for row in result.rows]
        assert seqs == sorted(seqs)
        for row in result.rows:
            assert row[1] == shard_of_seq(row[0])


# -- bounded IMA reads --------------------------------------------------------
#
# A poll's ``where shard = S and seq > M`` is handed to the IMA provider,
# which reads only shard S's tail.  The SQL result must equal filtering
# the unbounded ``select *`` in Python.  The rings are filled through a
# monitored engine and read through IMA tables registered on an
# unmonitored one, so the reads do not change what they read.


@pytest.fixture(params=[1, 3], ids=["1-shard", "3-shards"])
def frozen_ima(request):
    shard_count = request.param
    clock = VirtualClock(1_000_000.0)
    config = EngineConfig(monitor=MonitorConfig(
        shard_count=shard_count, statement_buffer_size=6,
        workload_buffer_size=12, reference_buffer_size=10,
        statistics_buffer_size=4, plan_buffer_size=4,
        plan_capture_min_cost=1e-9))
    setup = monitoring_setup(config, clock)
    engine = setup.engine
    user_db = engine.create_database("db")
    sessions = [engine.connect("db") for _ in range(2 * shard_count)]
    sessions[0].execute("create table t (a int not null, b int, "
                        "primary key (a))")
    for i in range(40):
        clock.advance(1.0)
        session = sessions[i % len(sessions)]
        session.execute(f"insert into t values ({i}, {i % 5})")
        session.execute(f"select b from t where a = {i // 2}")
        session.execute(f"select count(*) from t where a > {i}")
    for shard in monitor_shards(setup.monitor):
        for k in range(12):  # wraps the index-usage map too
            shard.record_references(k, (), (), (f"t_idx{k}",))
    reader = original_setup(clock=clock).engine
    ima_db = reader.create_database("ima")
    register_ima_tables(ima_db, setup.monitor, monitored_database=user_db)
    return shard_count, reader.connect("ima")


def _marks(rows, shard):
    """0, around the middle of the shard's seqs, its newest, and past it."""
    seqs = [row[0] for row in rows if row[1] == shard]
    if not seqs:
        return [0, 1, SHARD_STRIDE]
    mid, newest = seqs[len(seqs) // 2], seqs[-1]
    return sorted({0, mid - 1, mid, mid + 1, newest, newest + 1,
                   newest + 10 * SHARD_STRIDE})


class TestBoundedImaReads:
    def test_rings_are_populated_and_wrapped(self, frozen_ima):
        shard_count, reader = frozen_ima
        for table in IMA_TABLE_NAMES:
            rows = reader.execute(f"select * from {table}").rows
            assert rows, f"{table} is empty: the tests below would be vacuous"
            seqs = [row[0] for row in rows]
            assert seqs == sorted(seqs), f"{table} not merged in seq order"
        workload = reader.execute("select * from ima_workload").rows
        assert len(workload) == 12 * shard_count  # every ring is full

    def test_poll_query_equals_python_filter(self, frozen_ima):
        shard_count, reader = frozen_ima
        for table in IMA_TABLE_NAMES:
            everything = reader.execute(f"select * from {table}").rows
            for shard in range(shard_count):
                for mark in _marks(everything, shard):
                    expected = [row for row in everything
                                if row[1] == shard and row[0] > mark]
                    got = reader.execute(
                        f"select * from {table} "
                        f"where shard = {shard} and seq > {mark}").rows
                    assert got == expected, (table, shard, mark)

    def test_bound_spellings_equal_python_filter(self, frozen_ima):
        shard_count, reader = frozen_ima
        everything = reader.execute("select * from ima_workload").rows
        for shard in range(shard_count):
            for mark in _marks(everything, shard):
                newer = [row for row in everything
                         if row[1] == shard and row[0] > mark]
                at_least = [row for row in everything
                            if row[1] == shard and row[0] >= mark]
                spellings = {
                    f"shard = {shard} and seq >= {mark}": at_least,
                    f"shard = {shard} and seq = {mark}": [
                        row for row in at_least if row[0] == mark],
                    f"{mark} < seq and {shard} = shard": newer,
                    f"ima_workload.seq > {mark} "
                    f"and ima_workload.shard = {shard}": newer,
                    f"shard = {shard} and seq between {mark} and "
                    f"{mark + 3 * SHARD_STRIDE}": [
                        row for row in at_least
                        if row[0] <= mark + 3 * SHARD_STRIDE],
                }
                for where, expected in spellings.items():
                    got = reader.execute(
                        f"select * from ima_workload where {where}").rows
                    assert got == expected, where

    @pytest.mark.parametrize("shard", [-1, 3, SHARD_STRIDE, 99])
    def test_out_of_range_shard_reads_nothing(self, frozen_ima, shard):
        _shard_count, reader = frozen_ima
        for table in IMA_TABLE_NAMES:
            assert reader.execute(
                f"select * from {table} where shard = {shard} "
                f"and seq > 0").rows == []

    def test_join_of_two_ima_tables(self, frozen_ima):
        shard_count, reader = frozen_ima
        workload = reader.execute("select * from ima_workload").rows
        statements = reader.execute("select * from ima_statements").rows
        for shard in range(shard_count):
            for mark in _marks(workload, shard):
                expected = sorted(
                    (w[0], s[0]) for w in workload for s in statements
                    if w[1] == shard and w[0] > mark and s[1] == shard
                    and s[2] == w[2])
                got = reader.execute(
                    f"select w.seq, s.seq from ima_workload w, "
                    f"ima_statements s where w.shard = {shard} "
                    f"and w.seq > {mark} and s.shard = {shard} "
                    f"and s.text_hash = w.text_hash").rows
                assert sorted(got) == expected, (shard, mark)

    def test_unpushed_shapes_keep_their_rows(self, frozen_ima):
        shard_count, reader = frozen_ima
        everything = reader.execute("select * from ima_workload").rows
        shard = shard_count - 1
        for mark in _marks(everything, shard):
            shapes = {
                f"shard = {shard} or seq > {mark}":
                    lambda row: row[1] == shard or row[0] > mark,
                f"shard = {shard} and seq < {mark}":
                    lambda row: row[1] == shard and row[0] < mark,
                f"shard = {shard} and not (seq <= {mark})":
                    lambda row: row[1] == shard and row[0] > mark,
                f"shard = {shard} and seq > {mark}.5":
                    lambda row: row[1] == shard and row[0] > mark + 0.5,
            }
            for where, keep in shapes.items():
                got = reader.execute(
                    f"select * from ima_workload where {where}").rows
                assert got == [row for row in everything if keep(row)], where


def _scan_key_conditions(session, sql):
    plan = session.optimizer.optimize_select(parse_statement(sql)).plan
    return [node.key_conditions for node in plan.walk()
            if hasattr(node, "key_conditions")]


class TestImaPushdownPlans:
    """Which conditions reach the provider: ``shard = S`` plus a
    ``seq >`` / ``seq >=`` floor, integer literals only."""

    @pytest.fixture
    def reader(self):
        setup = daemon_setup("db", clock=VirtualClock(1_000_000.0))
        return setup.engine.connect("db")

    def test_poll_query_is_pushed(self, reader):
        (conditions,) = _scan_key_conditions(
            reader, "select * from ima_workload where shard = 0 and seq > 7")
        assert [(c.column, c.op, c.value) for c in conditions] == [
            ("shard", "=", 0), ("seq", ">", 7)]

    @pytest.mark.parametrize("where", [
        "shard = 0 or seq > 7",
        "not (shard <> 0)",
        "seq > 7",
        "shard > 0 and seq > 7",
        "shard = '0' and seq > 7",
        "shard = 0.0 and seq > 7",
    ])
    def test_nothing_pushed(self, reader, where):
        assert _scan_key_conditions(
            reader, f"select * from ima_workload where {where}") == [()]

    def test_upper_and_non_int_seq_bounds_stay_in_the_filter(self, reader):
        for where in ("shard = 1 and seq < 7", "shard = 1 and seq <= 7",
                      "shard = 1 and seq > 7.5"):
            (conditions,) = _scan_key_conditions(
                reader, f"select * from ima_workload where {where}")
            assert [(c.column, c.op) for c in conditions] == [("shard", "=")]

    def test_unkeyed_virtual_table_is_never_pushed(self, reader):
        from repro.catalog.schema import Column, DataType, TableSchema

        database = reader.database
        schema = TableSchema("vt", (Column("shard", DataType.INT),
                                    Column("seq", DataType.INT)))
        database.register_virtual_table(schema, lambda: [(0, 1), (0, 2)])
        assert _scan_key_conditions(
            reader, "select * from vt where shard = 0 and seq > 1") == [()]
        assert reader.execute(
            "select * from vt where shard = 0 and seq > 1").rows == [(0, 2)]
