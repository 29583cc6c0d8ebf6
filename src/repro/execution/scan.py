"""Scan operators: sequential, B-Tree keyed and secondary-index scans."""

from __future__ import annotations

from typing import Any, Iterator, Protocol

from repro.errors import ExecutionError
from repro.execution.evaluator import compile_predicate
from repro.optimizer.plans import (
    BTreeScanPlan,
    HashScanPlan,
    IndexScanPlan,
    KeyCondition,
    SeqScanPlan,
)
from repro.storage.btree import BTreeStorage
from repro.storage.table_storage import TableStorage


class StorageCatalog(Protocol):
    """What the executor needs from the engine's database object."""

    def storage_for(self, table_name: str) -> TableStorage: ...

    def index_storage_for(self, index_name: str) -> BTreeStorage: ...

    def virtual_rows(self, table_name: str, partition: int | None = None,
                     min_seq: int = 0) -> list[tuple]: ...

    def is_virtual_table(self, table_name: str) -> bool: ...


class Counters:
    """Shared per-query work counter (tuples processed)."""

    __slots__ = ("tuples",)

    def __init__(self) -> None:
        self.tuples = 0


def key_bounds(conditions: tuple[KeyCondition, ...]) -> tuple[
        tuple | None, tuple | None, bool, bool]:
    """Convert matched key conditions into scan-range bounds.

    Conditions arrive in key order: equalities on leading columns, then
    up to two range bounds on the following column.
    """
    equals: list[Any] = []
    lo_value = hi_value = None
    lo_inclusive = hi_inclusive = True
    for condition in conditions:
        if condition.op == "=":
            equals.append(condition.value)
        elif condition.op in (">", ">="):
            lo_value = condition.value
            lo_inclusive = condition.op == ">="
        elif condition.op in ("<", "<="):
            hi_value = condition.value
            hi_inclusive = condition.op == "<="
        else:
            raise ExecutionError(f"unsupported key condition {condition!r}")
    prefix = tuple(equals)
    if lo_value is None and hi_value is None:
        if not prefix:
            return None, None, True, True
        return prefix, prefix, True, True
    lo = prefix + (lo_value,) if lo_value is not None else (prefix or None)
    hi = prefix + (hi_value,) if hi_value is not None else (prefix or None)
    return lo, hi, lo_inclusive, hi_inclusive


def virtual_bounds(conditions: tuple[KeyCondition, ...],
                   ) -> tuple[int | None, int]:
    """``(partition, min_seq)`` for a keyed virtual table's provider,
    from the ``partition = P`` and ``seq`` lower-bound conditions the
    optimizer recorded (see
    :func:`~repro.optimizer.access_paths.virtual_key_conditions`)."""
    lo, _hi, lo_inclusive, _hi_inclusive = key_bounds(conditions)
    if lo is None:
        return None, 0
    if len(lo) == 1:
        return lo[0], 0
    return lo[0], (lo[1] - 1 if lo_inclusive else lo[1])


def seq_scan(plan: SeqScanPlan, catalog: StorageCatalog,
             counters: Counters) -> Iterator[tuple]:
    predicate = compile_predicate(plan.filter_expr, plan.scope)
    if catalog.is_virtual_table(plan.table_name):
        partition, min_seq = virtual_bounds(plan.key_conditions)
        source: Iterator[tuple] = iter(
            catalog.virtual_rows(plan.table_name, partition, min_seq))
        for row in source:
            counters.tuples += 1
            if predicate(row):
                yield row
        return
    storage = catalog.storage_for(plan.table_name)
    for _rowid, row in storage.scan():
        counters.tuples += 1
        if predicate(row):
            yield row


def btree_scan(plan: BTreeScanPlan, catalog: StorageCatalog,
               counters: Counters) -> Iterator[tuple]:
    storage = catalog.storage_for(plan.table_name)
    tree = storage.btree
    predicate = compile_predicate(plan.filter_expr, plan.scope)
    lo, hi, lo_inc, hi_inc = key_bounds(plan.key_conditions)
    for _rowid, row in tree.scan_range(lo, hi, lo_inc, hi_inc):
        counters.tuples += 1
        if predicate(row):
            yield row


def hash_scan(plan: HashScanPlan, catalog: StorageCatalog,
              counters: Counters) -> Iterator[tuple]:
    """Full-key equality probe into a HASH-structured table."""
    storage = catalog.storage_for(plan.table_name)
    predicate = compile_predicate(plan.filter_expr, plan.scope)
    key = tuple(condition.value for condition in plan.key_conditions)
    for _rowid, row in storage.hash.seek(key):
        counters.tuples += 1
        if predicate(row):
            yield row


def index_scan(plan: IndexScanPlan, catalog: StorageCatalog,
               counters: Counters) -> Iterator[tuple]:
    if plan.virtual:
        raise ExecutionError(
            f"plan uses virtual index {plan.index_name!r}; virtual indexes "
            f"can be costed but not executed"
        )
    index = catalog.index_storage_for(plan.index_name)
    storage = catalog.storage_for(plan.table_name)
    predicate = compile_predicate(plan.filter_expr, plan.scope)
    lo, hi, lo_inc, hi_inc = key_bounds(plan.key_conditions)
    for _entry_rowid, entry in index.scan_range(lo, hi, lo_inc, hi_inc):
        counters.tuples += 1
        base_row = storage.fetch(entry[-1])
        if predicate(base_row):
            yield base_row
