"""Tests for transactions, triggers, Database and EngineInstance."""

import pytest

from repro.catalog.schema import (
    Column,
    DataType,
    IndexDef,
    StorageStructure,
    TableSchema,
)
from repro.engine.database import Database
from repro.engine.engine import EngineInstance
from repro.engine.transactions import Transaction, TransactionState
from repro.engine.triggers import TriggerManager
from repro.errors import (
    CatalogError,
    DuplicateObjectError,
    StorageError,
    TransactionError,
    UnknownObjectError,
)
from repro.sql.parser import parse_statement


class TestTransaction:
    def test_ids_increase(self):
        assert Transaction().txn_id < Transaction().txn_id

    def test_commit_clears_undo(self):
        txn = Transaction()
        calls = []
        txn.record_undo(lambda: calls.append(1))
        txn.commit()
        assert txn.state is TransactionState.COMMITTED
        assert txn.pending_changes == 0
        assert calls == []

    def test_rollback_runs_undo_in_reverse(self):
        txn = Transaction()
        calls = []
        txn.record_undo(lambda: calls.append("first"))
        txn.record_undo(lambda: calls.append("second"))
        txn.rollback()
        assert calls == ["second", "first"]
        assert txn.state is TransactionState.ABORTED

    def test_no_reuse_after_commit(self):
        txn = Transaction()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()
        with pytest.raises(TransactionError):
            txn.record_undo(lambda: None)


class TestTriggers:
    @pytest.fixture
    def schema(self):
        return TableSchema("stats", (
            Column("sessions", DataType.INT),
            Column("deadlocks", DataType.INT),
        ))

    def condition(self, text):
        return parse_statement(
            f"select 1 from stats where {text}").where

    def test_fire_on_matching_row(self, schema):
        triggers = TriggerManager()
        triggers.create("full", schema, self.condition("sessions >= 10"),
                        "too many sessions")
        fired = triggers.fire_on_insert("stats", (12, 0), now=100.0)
        assert len(fired) == 1
        assert fired[0].message == "too many sessions"
        assert fired[0].fired_at == 100.0
        assert triggers.alerts == fired

    def test_no_fire_below_threshold(self, schema):
        triggers = TriggerManager()
        triggers.create("full", schema, self.condition("sessions >= 10"),
                        "m")
        assert triggers.fire_on_insert("stats", (3, 0), now=1.0) == []

    def test_multiple_triggers(self, schema):
        triggers = TriggerManager()
        triggers.create("a", schema, self.condition("sessions >= 10"), "m1")
        triggers.create("b", schema, self.condition("deadlocks > 0"), "m2")
        fired = triggers.fire_on_insert("stats", (12, 1), now=1.0)
        assert {alert.trigger_name for alert in fired} == {"a", "b"}

    def test_duplicate_name_rejected(self, schema):
        triggers = TriggerManager()
        triggers.create("a", schema, self.condition("sessions > 0"), "m")
        with pytest.raises(DuplicateObjectError):
            triggers.create("a", schema, self.condition("sessions > 1"), "m")

    def test_drop(self, schema):
        triggers = TriggerManager()
        triggers.create("a", schema, self.condition("sessions > 0"), "m")
        triggers.drop("a")
        assert triggers.fire_on_insert("stats", (5, 0), now=1.0) == []
        with pytest.raises(UnknownObjectError):
            triggers.drop("a")

    def test_listener_called(self, schema):
        triggers = TriggerManager()
        seen = []
        triggers.listeners.append(seen.append)
        triggers.create("a", schema, self.condition("sessions > 0"), "m")
        triggers.fire_on_insert("stats", (5, 0), now=1.0)
        assert len(seen) == 1


@pytest.fixture
def db(people_schema):
    database = Database("d")
    database.create_table(people_schema)
    return database


class TestDatabase:
    def test_insert_maintains_indexes(self, db):
        db.create_index(IndexDef("i_age", "people", ("age",)))
        rowid = db.insert_row("people", (1, "a", 33, 1.0))
        index = db.index_storage_for("i_age")
        assert [rid for rid, _ in index.seek((33,))] == [rowid]

    def test_delete_maintains_indexes(self, db):
        db.create_index(IndexDef("i_age", "people", ("age",)))
        rowid = db.insert_row("people", (1, "a", 33, 1.0))
        db.delete_row("people", rowid)
        assert list(db.index_storage_for("i_age").seek((33,))) == []

    def test_update_maintains_indexes(self, db):
        db.create_index(IndexDef("i_age", "people", ("age",)))
        rowid = db.insert_row("people", (1, "a", 33, 1.0))
        db.update_row("people", rowid, (1, "a", 44, 1.0))
        index = db.index_storage_for("i_age")
        assert list(index.seek((33,))) == []
        assert [rid for rid, _ in index.seek((44,))] == [rowid]

    def test_index_built_over_existing_rows(self, db):
        for i in range(20):
            db.insert_row("people", (i, "x", i % 5, 1.0))
        db.create_index(IndexDef("i_age", "people", ("age",)))
        assert db.index_storage_for("i_age").row_count == 20

    def test_failed_unique_index_insert_rolls_back_row(self, db):
        db.create_index(IndexDef("u_name", "people", ("name",), unique=True))
        db.insert_row("people", (1, "same", 1, 1.0))
        with pytest.raises(StorageError):
            db.insert_row("people", (2, "same", 2, 2.0))
        assert db.storage_for("people").row_count == 1
        assert db.index_storage_for("u_name").row_count == 1

    def test_drop_table_drops_indexes(self, db):
        db.create_index(IndexDef("i_age", "people", ("age",)))
        db.drop_table("people")
        with pytest.raises(UnknownObjectError):
            db.index_storage_for("i_age")

    def test_modify_preserves_index_validity(self, db):
        db.create_index(IndexDef("i_age", "people", ("age",)))
        rowid = db.insert_row("people", (1, "a", 33, 1.0))
        db.modify_table("people", StorageStructure.BTREE)
        index = db.index_storage_for("i_age")
        (rid, _entry), = list(index.seek((33,)))
        assert db.storage_for("people").fetch(rid)[0] == 1

    def test_collect_statistics(self, db):
        for i in range(50):
            db.insert_row("people", (i, f"p{i}", i % 7, float(i)))
        stats = db.collect_statistics("people", ("age",))
        assert stats.row_count == 50
        assert stats.column("age").n_distinct == 7
        assert stats.column("name") is None
        # second collection merges columns
        db.collect_statistics("people", ("name",))
        merged = db.catalog.table("people").statistics
        assert merged.column("age") is not None
        assert merged.column("name") is not None

    def test_statistics_reset_modification_counter(self, db):
        db.insert_row("people", (1, "a", 1, 1.0))
        assert db.storage_for("people").modifications_since_stats == 1
        db.collect_statistics("people")
        assert db.storage_for("people").modifications_since_stats == 0

    def test_virtual_table(self, db):
        schema = TableSchema("vt", (Column("x", DataType.INT),))
        db.register_virtual_table(schema, lambda: [(1,), (2,)])
        assert db.is_virtual_table("vt")
        assert db.virtual_rows("vt") == [(1,), (2,)]
        with pytest.raises(CatalogError):
            db.insert_row("vt", (3,))
        with pytest.raises(CatalogError):
            db.collect_statistics("vt")
        with pytest.raises(CatalogError):
            db.modify_table("vt", StorageStructure.BTREE)

    def test_virtual_provider_key_error_is_not_a_missing_table(self, db):
        schema = TableSchema("vt", (Column("x", DataType.INT),))

        def broken() -> list[tuple]:
            return [({}["missing"],)]

        db.register_virtual_table(schema, broken)
        with pytest.raises(KeyError):
            db.virtual_rows("vt")
        with pytest.raises(UnknownObjectError):
            db.virtual_rows("no_such_table")

    def test_keyed_virtual_table_gets_bounds(self, db):
        schema = TableSchema("kv", (Column("part", DataType.INT),
                                    Column("seq", DataType.INT)))
        seen = []

        def provider(partition, min_seq):
            seen.append((partition, min_seq))
            return [(0, 1), (0, 2), (1, 3)]

        db.register_virtual_table(schema, provider,
                                  key_columns=("part", "seq"),
                                  row_count=lambda: 3)
        assert db.table_info("kv").row_count == 3
        assert seen == []
        assert db.virtual_rows("kv", 0, 1) == [(0, 1), (0, 2), (1, 3)]
        assert db.virtual_rows("kv") == [(0, 1), (0, 2), (1, 3)]
        assert seen == [(0, 1), (None, 0)]

    def test_virtual_index_has_no_storage(self, db):
        db.create_index(IndexDef("v", "people", ("age",), virtual=True))
        with pytest.raises(UnknownObjectError):
            db.index_storage_for("v")
        infos = db.indexes_on("people", include_virtual=True)
        assert infos[0].is_virtual
        assert infos[0].leaf_pages >= 1

    def test_table_info_reflects_structure(self, db):
        for i in range(100):
            db.insert_row("people", (i, "x", 1, 1.0))
        info = db.table_info("people")
        assert info.row_count == 100
        assert info.structure is StorageStructure.HEAP
        db.modify_table("people", StorageStructure.BTREE)
        info = db.table_info("people")
        assert info.btree_height >= 1
        assert info.key_columns == ("id",)

    def test_size_accounting(self, db):
        for i in range(100):
            db.insert_row("people", (i, "x" * 30, 1, 1.0))
        db.create_index(IndexDef("i_age", "people", ("age",)))
        assert db.table_bytes("people") > 0
        assert db.index_bytes("i_age") > 0
        assert db.total_bytes >= db.table_bytes("people")


class TestEngineInstance:
    def test_create_and_connect(self):
        engine = EngineInstance()
        engine.create_database("db1")
        assert engine.has_database("db1")
        session = engine.connect("db1")
        assert engine.active_sessions == 1
        session.close()
        assert engine.active_sessions == 0
        assert engine.peak_sessions == 1

    def test_duplicate_database(self):
        engine = EngineInstance()
        engine.create_database("db1")
        with pytest.raises(DuplicateObjectError):
            engine.create_database("DB1")

    def test_unknown_database(self):
        with pytest.raises(UnknownObjectError):
            EngineInstance().connect("nope")

    def test_system_statistics_shape(self):
        engine = EngineInstance()
        engine.create_database("db1")
        stats = engine.system_statistics()
        for key in ("current_sessions", "locks_held", "deadlocks",
                    "cache_hits", "physical_reads"):
            assert key in stats

    def test_peak_sessions_tracks_concurrency(self):
        engine = EngineInstance()
        engine.create_database("db1")
        sessions = [engine.connect("db1") for _ in range(5)]
        for session in sessions:
            session.close()
        assert engine.peak_sessions == 5
        assert engine.active_sessions == 0
