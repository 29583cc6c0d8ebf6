"""Self-tests of the benchmark at a tiny scale.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import tracing  # noqa: E402
from repro.core.overload import SAMPLED  # noqa: E402
from repro.workloads import (  # noqa: E402
    NrefScale,
    complex_query_set,
    point_query_statements,
    simple_join_statements,
)

WORKLOAD_NAMES = tuple(harness.WORKLOADS)


def tiny(name: str) -> harness.Workload:
    """The workload at a few percent of its size, same shape (flood's
    warm-up still covers its 100-id rotation)."""
    workload = harness.WORKLOADS[name]
    return dataclasses.replace(
        workload, proteins=200,
        pool_pages=max(4, workload.pool_pages // 8),
        chunk=max(2, workload.chunk // 10),
        poll_every=max(2, workload.poll_every // 10),
        warmup=100 if name == "flood" else max(4, workload.warmup // 10))


def tiny_run(name: str, trace: bool) -> harness.Result:
    return harness.run(name, seed=3, seconds=0.3, trace=trace,
                       setup_repeats=1, workload=tiny(name))


def traced_bench(name: str) -> tuple[tracing.Tracer, harness.Bench]:
    tracer = tracing.Tracer()
    bench = harness.set_up(tiny(name), 3, tracer)
    harness.measure(bench, 1.5, tracer)
    return tracer, bench


@pytest.fixture(scope="module")
def traced() -> dict[str, tracing.Tracer]:
    return {name: traced_bench(name)[0] for name in WORKLOAD_NAMES}


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_end_to_end_metric_with_its_unit(name):
    result = tiny_run(name, trace=False)
    assert result.correct and result.failed == 0
    assert {k: unit for k, (_v, unit, _n) in result.metrics.items()} \
        == harness.END_TO_END_UNITS
    for metric, (value, _unit, samples) in result.metrics.items():
        assert value > 0, metric
        assert samples >= 1, metric
    assert result.metrics["capture_ratio"][0] == 1.0
    assert result.metrics["ok_ratio"][0] == 1.0
    line = result.final_line()
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_metric(name):
    result = tiny_run(name, trace=True)
    assert result.correct
    assert {k: unit for k, (_v, unit, _n) in result.metrics.items()} \
        == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_self_times_of_a_root_sum_to_its_duration(traced, name):
    spans = traced[name].spans
    own = tracing.self_times(spans)
    children: dict[int, list[tracing.Span]] = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)

    def subtree_self(span: tracing.Span) -> float:
        return own[span[0]] + sum(subtree_self(child)
                                  for child in children.get(span[0], ()))

    roots = children[0]
    assert roots
    for root in roots:
        assert subtree_self(root) == pytest.approx(root[6] - root[5],
                                                   abs=1e-9)
        assert own[root[0]] >= 0.0


#: Spans each workload is chosen to exercise.  A wrapper on a name the
#: caller imported directly would never fire and read zero.
EXPECTED_SPANS = {
    "flood": {"engine.execute", "engine.lock", "execution.execute",
              "monitor.sensor", "daemon.poll", "ima.query",
              "sharding.merge", "workload_db.append", "analyzer.analyze",
              "analyzer.whatif"},
    "distinct": {"engine.execute", "sql.parse", "optimizer.optimize",
                 "engine.lock", "execution.execute", "monitor.sensor",
                 "daemon.poll", "ima.query", "sharding.merge",
                 "workload_db.append"},
    "tune": {"engine.execute", "execution.execute", "monitor.sensor",
             "daemon.poll", "analyzer.analyze", "analyzer.whatif"},
}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_each_span_fires_on_its_workload(traced, name):
    fired = {span[3] for span in traced[name].spans}
    assert EXPECTED_SPANS[name] <= fired, EXPECTED_SPANS[name] - fired


def test_flood_statements_bypass_parse_and_plan(traced):
    statements = [group for group in tracing.trees(traced["flood"].spans)
                  .values()
                  if any(s[0] == s[2] and s[3] == "engine.execute"
                         and s[4] in harness.BUILDS for s in group)]
    assert statements
    assert not [s for group in statements for s in group
                if s[3] in ("sql.parse", "optimizer.optimize")]


def test_distinct_workers_trace_their_reads_under_the_poll(traced):
    spans = traced["distinct"].spans
    polls = {s[2] for s in spans if s[3] == "daemon.poll"}
    worker_reads = [s for s in spans if s[3] == "ima.query" and s[1] == 0]
    assert worker_reads
    assert {s[2] for s in worker_reads} <= polls


def test_tracer_restores_every_wrapped_name():
    originals = [owner.__dict__[attribute]
                 for owner, attribute, _name in tracing.WRAPPED]
    tracer = tracing.Tracer()
    tracer.install()
    assert all(owner.__dict__[attribute] is not original
               for (owner, attribute, _n), original
               in zip(tracing.WRAPPED, originals))
    tracer.remove()
    assert all(owner.__dict__[attribute] is original
               for (owner, attribute, _n), original
               in zip(tracing.WRAPPED, originals))


def test_a_differing_result_counts_as_a_failure():
    bench = harness.set_up(tiny("flood"), 3)
    arm = bench.arms["tuned"]
    statement = bench.stream[0]
    expected = {0: (1, "not-the-digest")}
    arm.run([statement], 0, expected)
    assert arm.failed == 1
    arm.run([statement], 1, expected)
    assert arm.failed == 1  # position 1 was recorded by this arm


def test_a_degraded_shard_breaks_the_invariants():
    bench = harness.set_up(tiny("distinct"), 3)
    arm = bench.arms["daemon"]
    assert arm.invariant_failures() == []
    arm.setup.monitor.shards[1].set_degradation(SAMPLED, 2)
    assert any("shard 1" in f for f in arm.invariant_failures())


def test_seed_feeds_data_and_every_generator():
    flood = harness.WORKLOADS["flood"]
    scale, warmup, stream = harness.streams(flood, None)
    assert scale == NrefScale(proteins=flood.proteins)
    assert stream == point_query_statements(1000, scale)
    assert warmup == stream[:flood.warmup]

    scale, _warmup, stream = harness.streams(flood, 5)
    assert scale.seed == 5
    assert stream == point_query_statements(1000, scale, seed=5)

    tune = harness.WORKLOADS["tune"]
    scale, _warmup, stream = harness.streams(tune, 5)
    assert stream == complex_query_set(scale, count=tune.warmup, seed=5)
    assert harness.streams(tune, 6)[2] != stream

    distinct = harness.WORKLOADS["distinct"]
    scale, warmup, stream = harness.streams(distinct, 5)
    generated = simple_join_statements(8 * distinct.proteins, scale, seed=5)
    assert set(warmup) | set(stream) == set(generated)
    assert len(set(warmup + stream)) == len(warmup) + len(stream)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flood",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
