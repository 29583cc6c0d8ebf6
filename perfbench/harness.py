"""The benchmark: the paper's builds on one generated statement stream.

Every workload builds four engines from one configuration:

* ``original`` -- no monitoring code (null sensors);
* ``monitoring`` -- integrated sensors, no daemon;
* ``daemon`` -- sensors plus the storage daemon, IMA and workload DB;
* ``tuned`` -- a fresh Daemon-configured engine with the analyzer's
  recommendations applied (fig. 7's "Analyser" configuration).

Set-up loads NREF into each engine and runs one warm-up pass on the
three paper builds.  The daemon build's pass is also the recording pass
the analyzer reads; ``analyze_workload_db`` plus applying its
recommendations to the tuned engine (as ``apply_recommendations`` does)
is timed on its own as ``tune_s``.  Every time is in reference seconds
(see :class:`Speed`).

The load is a closed loop from one client thread.  All four builds run
the same statements, interleaved chunk by chunk with the build order
rotated each round, so machine-speed drift lands on every build
equally.  The daemon-configured builds poll after every
``poll_every`` client statements (never on a timer, so the rows a poll
captures do not depend on throughput); statement latency excludes the
poll and throughput includes it.

Every statement's row count and row digest must agree across the
builds; a disagreement or an engine error counts as a failed statement.
After the run the monitoring invariants must hold (conservation ledger
balanced, every shard at DETAILED, no daemon drops); a run that breaks
one raises :class:`InvariantViolation` and is not reported.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from repro.config import DaemonConfig, EngineConfig, MonitorConfig, StorageConfig
from repro.core.analyzer import Analyzer
from repro.core.analyzer.recommendations import apply_one, order_for_application
from repro.core.overload import DETAILED, conservation_violations
from repro.core.sharding import monitor_shards
from repro.errors import ReproError
from repro.setups import Setup, daemon_setup, monitoring_setup, original_setup
from repro.workloads import (
    NrefScale,
    complex_query_set,
    load_nref,
    point_query_statements,
    simple_join_statements,
)

from tracing import Tracer, self_times, trees

BUILDS = ("original", "monitoring", "daemon", "tuned")

#: Times set-up is repeated per run; ``setup_s`` and ``tune_s`` are the
#: medians, the last set-up is the one measured.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    """Sizes and cadence of one workload (see ``README.md`` for why)."""

    name: str
    proteins: int
    pool_pages: int
    sessions: int
    shards: int
    poll_workers: int
    chunk: int
    """Statements per interleaving slice."""
    poll_every: int
    """Client statements between two polls of a daemon-configured build."""
    warmup: int
    """Statements in the warm-up (and recording) pass."""
    tail: float
    """Percentile reported as ``tail_us``: the highest with at least 10
    of the Daemon build's samples beyond it in a run of 20 s."""


WORKLOADS = {
    "flood": Workload("flood", proteins=2000, pool_pages=256, sessions=1,
                      shards=1, poll_workers=1, chunk=50, poll_every=250,
                      warmup=200, tail=0.99),
    "distinct": Workload("distinct", proteins=1000, pool_pages=256,
                         sessions=2, shards=2, poll_workers=2, chunk=20,
                         poll_every=100, warmup=40, tail=0.95),
    "tune": Workload("tune", proteins=1000, pool_pages=32, sessions=1,
                     shards=1, poll_workers=1, chunk=50, poll_every=10,
                     warmup=50, tail=0.9),
}

#: Polls per workload-DB flush.  Flood and distinct poll every fifth
#: chunk and traced rounds alternate, so an odd count puts every other
#: flush in a traced round (tune polls inside every chunk).
FLUSH_EVERY_POLLS = 3

#: end-to-end metric -> unit (the order of the printed table).
END_TO_END_UNITS = {
    "setup_s": "s",
    "original_sps": "stmt/s",
    "monitoring_sps": "stmt/s",
    "daemon_sps": "stmt/s",
    "tuned_sps": "stmt/s",
    "p50_us": "us",
    "tail_us": "us",
    "capture_ratio": "1",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
    "tuned_bytes_ratio": "1",
    "tune_s": "s",
}

PER_LAYER_UNITS = {
    "sql.parse_us": "us",
    "sql.parse_per_stmt": "count",
    "optimizer.optimize_us": "us",
    "optimizer.optimize_per_stmt": "count",
    "engine.plan_cache_hit_ratio": "1",
    "engine.lock_us": "us",
    "engine.lock_waits": "count",
    "engine.self_us": "us",
    "execution.execute_us": "us",
    "execution.tuples_per_row": "1",
    "execution.logical_reads_per_stmt": "count",
    "storage.pool_hit_ratio": "1",
    "storage.evictions_per_stmt": "count",
    "storage.physical_reads_per_stmt": "count",
    "monitor.sensor_us": "us",
    "monitor.sensor_calls_per_stmt": "count",
    "monitor.own_sensor_us": "us",
    "monitor.stmt_evictions_per_stmt": "count",
    "monitor.workload_dropped": "count",
    "sharding.merge_us": "us",
    "ima.query_us": "us",
    "ima.rows_per_poll": "count",
    "daemon.poll_ms_p50": "ms",
    "daemon.poll_ms_p99": "ms",
    "daemon.poll_failures": "count",
    "daemon.rows_dropped": "count",
    "workload_db.append_us_per_row": "us",
    "workload_db.bytes_per_row": "B",
    "overload.degraded_shards": "count",
    "overload.conservation_violations": "count",
    "analyzer.whatif_calls": "count",
    "analyzer.whatif_us": "us",
    "analyzer.recommendations": "count",
    "trace.overhead_pct": "%",
    "trace.gap_us": "us",
    "trace.gap_sensor_us": "us",
    "trace.gap_engine_self_us": "us",
    "trace.gap_remainder_us": "us",
}


class InvariantViolation(RuntimeError):
    """The run broke a monitoring invariant; its figures are void."""


# -- statement streams ----------------------------------------------------------


def streams(workload: Workload, seed: int | None,
            ) -> tuple[NrefScale, list[str], list[str]]:
    """(scale, warm-up statements, measured stream) for ``seed``.

    One seed feeds the data generator and the statement generator; with
    ``seed=None`` each keeps its own default.  The engines see only the
    generated statements."""
    seeded: dict[str, Any] = {} if seed is None else {"seed": seed}
    scale = NrefScale(proteins=workload.proteins, **seeded)
    if workload.name == "flood":
        stream = point_query_statements(1000, scale, **seeded)
        return scale, stream[:workload.warmup], stream
    if workload.name == "distinct":
        # Distinct texts only, so every statement misses the plan cache
        # and inserts a new monitor entry; the warm-up takes its
        # statements from the end, the measured stream from the start.
        generated = simple_join_statements(8 * workload.proteins, scale,
                                           **seeded)
        unique = list(dict.fromkeys(generated))
        return (scale, unique[-workload.warmup:],
                unique[:-workload.warmup])
    stream = complex_query_set(scale, count=workload.warmup, **seeded)
    return scale, stream, stream


# -- one build ------------------------------------------------------------------


def _number(value: Any) -> str:
    # Floats are compared to 9 significant digits: an index changes the
    # order in which an aggregate sums its inputs.
    return f"{value:.9g}" if isinstance(value, float) else repr(value)


def digest(rows: list[tuple]) -> str:
    """Order-insensitive digest of a result's rows."""
    lines = sorted("|".join(_number(v) for v in row) for row in rows)
    return hashlib.blake2b("\n".join(lines).encode(),
                           digest_size=16).hexdigest()


# -- machine speed ----------------------------------------------------------------

_KERNEL_ROWS = tuple((f"NF{i:08d}", f"protein {i}", i % 97, i * 1.5, i % 100)
                     for i in range(4000))


def _kernel() -> int:
    """Fixed pure-Python work in the engine's style (a closure predicate
    over tuples, dict counting); it never changes with the program."""
    def equals(key: str) -> Any:
        return lambda row: row[0] == key
    match = equals("NF00000777")
    counts: dict[int, int] = {}
    for row in _KERNEL_ROWS:
        if match(row):
            counts[-1] = counts.get(-1, 0) + 1
        counts[row[4]] = counts.get(row[4], 0) + 1
    return len(counts)


class Speed:
    """Converts wall seconds into *reference seconds*.

    The host's speed drifts by up to 2x within tens of seconds (other
    tenants share its cores), and wall time and thread CPU time drift
    together.  Every timed stretch of work is therefore bracketed by runs
    of :func:`_kernel` and scaled by ``REFERENCE_S / kernel time``: the
    figures read as if the kernel had always taken ``REFERENCE_S``
    (about its median time on the 2-core x86-64 host the bounds were
    set on).
    """

    REFERENCE_S = 0.001

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - started)

    def factor(self) -> float:
        """Scale for the stretch between the latest two samples."""
        return self.REFERENCE_S / statistics.fmean(self.samples[-2:])


class Slot:
    """One chunk on one build, timed in reference seconds.

    Wall-clock times are buffered and scaled whenever the reference
    kernel is sampled: after every :data:`SAMPLE_INTERVAL_S` of work and
    when the slot closes.  A buffered time is scaled by the mean of the
    two samples around it, so a long slot tracks drift inside itself.
    The kernel must have been sampled just before the slot opens."""

    #: Longest stretch of work between two samples of the kernel.
    SAMPLE_INTERVAL_S = 0.1

    def __init__(self, speed: Speed) -> None:
        self.speed = speed
        self.statements = 0
        self.exec_s = 0.0
        self.polls_s: list[float] = []
        self.latencies_s: list[float] = []
        self.tuples = 0
        self.rows = 0
        self.logical_reads = 0
        self._latencies: list[float] = []
        self._polls: list[float] = []
        self._since = time.perf_counter()

    def statement(self, elapsed: float, result: Any) -> None:
        self.statements += 1
        self._latencies.append(elapsed)
        if result is not None:
            metrics = result.metrics
            self.tuples += metrics.tuples_processed
            self.rows += metrics.rows_returned
            self.logical_reads += metrics.logical_reads
        if time.perf_counter() - self._since >= self.SAMPLE_INTERVAL_S:
            self.close()

    def poll(self, elapsed: float) -> None:
        self._polls.append(elapsed)

    def close(self) -> None:
        """Sample the kernel and scale what was buffered since the last
        sample."""
        self.speed.sample()
        factor = self.speed.factor()
        scaled = [x * factor for x in self._latencies]
        self.latencies_s.extend(scaled)
        self.exec_s += sum(scaled)
        self.polls_s.extend(x * factor for x in self._polls)
        self._latencies = []
        self._polls = []
        self._since = time.perf_counter()


class Stopwatch:
    """Sums stretches of work in reference seconds.

    :meth:`lap` ends a stretch: it samples the kernel and scales the
    stretch by the mean of the samples around it.  The kernel's own time
    is left out."""

    def __init__(self) -> None:
        self.speed = Speed()
        self.total_s = 0.0
        self.restart()

    def restart(self) -> None:
        """Start a stretch here, leaving out the time since the last lap."""
        self.speed.sample()
        self._started = time.perf_counter()

    def lap(self) -> None:
        stretch = time.perf_counter() - self._started
        self.speed.sample()
        self.total_s += stretch * self.speed.factor()
        self._started = time.perf_counter()

    def lap_if_due(self) -> None:
        if time.perf_counter() - self._started >= Slot.SAMPLE_INTERVAL_S:
            self.lap()


@dataclass
class Totals:
    """What one build did in the measured loop, in reference seconds:
    each slot's statement time, every poll and every statement latency."""

    statements: int = 0
    latencies_s: list[float] = field(default_factory=list)
    slot_exec_s: list[float] = field(default_factory=list)
    polls_s: list[float] = field(default_factory=list)
    tuples: int = 0
    rows: int = 0
    logical_reads: int = 0

    def add(self, slot: Slot) -> None:
        self.statements += slot.statements
        self.latencies_s.extend(slot.latencies_s)
        self.slot_exec_s.append(slot.exec_s)
        self.polls_s.extend(slot.polls_s)
        self.tuples += slot.tuples
        self.rows += slot.rows
        self.logical_reads += slot.logical_reads


class Arm:
    """One engine build and the client sessions driving it."""

    def __init__(self, name: str, setup: Setup, workload: Workload) -> None:
        self.name = name
        self.setup = setup
        self.workload = workload
        self.database = setup.engine.database("nref")
        self.sessions = [setup.engine.connect("nref")
                         for _ in range(workload.sessions)]
        self.client_statements = 0
        self.failed = 0
        self.polls = 0
        self.poll_rows = 0
        self.totals = Totals()
        self._since_poll = 0
        self.baseline: dict[str, Any] = {}

    def run(self, statements: list[str], first: int,
            expected: dict[int, tuple[int, str]],
            slot: Slot | None = None) -> None:
        """Run ``statements`` (stream positions ``first`` on).

        The first build to run a position records its (row count,
        digest) in ``expected``; every other build must match it.
        ``slot`` (None during set-up) times the statements and polls.
        """
        sessions = self.sessions
        count = len(sessions)
        perf = time.perf_counter
        daemon = self.setup.daemon
        for offset, text in enumerate(statements):
            position = first + offset
            session = sessions[position % count]
            started = perf()
            try:
                result = session.execute(text)
            except ReproError:
                elapsed = perf() - started
                result = None
            else:
                elapsed = perf() - started
            self.client_statements += 1
            outcome = ((-1, "error") if result is None
                       else (len(result.rows), digest(result.rows)))
            if (result is None
                    or expected.setdefault(position, outcome) != outcome):
                self.failed += 1
            if daemon is not None:
                self._since_poll += 1
                if self._since_poll >= self.workload.poll_every:
                    self._since_poll = 0
                    poll_s = self.poll()
                    if slot is not None:
                        slot.poll(poll_s)
            if slot is not None:
                slot.statement(elapsed, result)
        if slot is not None:
            slot.close()

    def warm(self, statements: list[str],
             expected: dict[int, tuple[int, str]], watch: Stopwatch) -> None:
        """The warm-up (and recording) pass, timed on ``watch``."""
        for position, text in enumerate(statements):
            self.run([text], position, expected)
            watch.lap_if_due()
        watch.lap()

    def poll(self) -> float:
        daemon = self.setup.daemon
        assert daemon is not None
        started = time.perf_counter()
        stats = daemon.poll_once()
        elapsed = time.perf_counter() - started
        self.polls += 1
        self.poll_rows += stats.rows_collected
        return elapsed

    def mark(self) -> None:
        """Snapshot the cumulative counters the layer metrics diff."""
        monitor = self.setup.monitor
        shards = monitor_shards(monitor) if monitor is not None else ()
        self.baseline = {
            "pool": self.database.pool.stats(),
            "lock_waits":
                self.setup.engine.lock_manager.statistics().total_waits,
            "stmt_evicted": sum(s.statements.evicted for s in shards),
            "statements": self.client_statements,
            "polls": self.polls,
            "poll_rows": self.poll_rows,
            "plan_hits": sum(s.plan_cache_hits for s in self.sessions),
            "plan_misses": sum(s.plan_cache_misses for s in self.sessions),
        }

    def drain(self) -> None:
        """Final poll plus flush, so every captured row is persisted."""
        self._since_poll = 0
        daemon = self.setup.daemon
        if daemon is not None:
            daemon.poll_once()
            daemon.flush()

    def captured_client_rows(self) -> int:
        workload_db = self.setup.workload_db
        assert workload_db is not None
        ids = {session.session_id for session in self.sessions}
        return sum(1 for _rowid, row in
                   workload_db.database.storage_for("wl_workload").scan()
                   if row[2] in ids)

    def invariant_failures(self) -> list[str]:
        monitor = self.setup.monitor
        if monitor is None:
            return []
        failures = [f"{self.name}: {v}"
                    for v in conservation_violations(monitor)]
        for shard_id, shard in enumerate(monitor_shards(monitor)):
            if shard.degradation_level != DETAILED:
                failures.append(f"{self.name}: shard {shard_id} at level "
                                f"{shard.degradation_level}")
        controller = self.setup.controller
        if controller is not None:
            for shard_id, level in enumerate(controller.levels()):
                if level != DETAILED:
                    failures.append(f"{self.name}: controller shard "
                                    f"{shard_id} at level {level}")
        daemon = self.setup.daemon
        if daemon is not None and daemon.status().rows_dropped:
            failures.append(f"{self.name}: daemon dropped "
                            f"{daemon.status().rows_dropped} rows")
        return failures

    def close(self) -> None:
        for session in self.sessions:
            session.close()


# -- set-up ---------------------------------------------------------------------


def engine_config(workload: Workload) -> EngineConfig:
    # The monitor's rings are a quarter of their defaults (which keep
    # their 1:4:8 ratio), so they wrap early in a run of seconds as the
    # default rings wrap in the paper's runs of minutes.  A poll reads a
    # whole ring snapshot, so its cost settles once the rings are full.
    return EngineConfig(
        storage=StorageConfig(buffer_pool_pages=workload.pool_pages),
        monitor=MonitorConfig(statement_buffer_size=250,
                              workload_buffer_size=1000,
                              reference_buffer_size=2000,
                              shard_count=workload.shards),
        daemon=DaemonConfig(poll_workers=workload.poll_workers,
                            flush_every_polls=FLUSH_EVERY_POLLS),
    )


def _build(kind: str, config: EngineConfig, scale: NrefScale) -> Setup:
    if kind == "original":
        setup = original_setup(config)
        setup.engine.create_database("nref")
    elif kind == "monitoring":
        setup = monitoring_setup(config)
        setup.engine.create_database("nref")
    else:
        setup = daemon_setup("nref", config)
    load_nref(setup.engine.database("nref"), scale)
    return setup


@dataclass
class Bench:
    """A set-up workload, ready to measure."""

    workload: Workload
    arms: dict[str, Arm]
    stream: list[str]
    setup_s: float
    tune_s: float
    tuned_bytes_ratio: float
    recommendations: int
    attempted: int
    failed: int


def set_up(workload: Workload, seed: int | None,
           tracer: Tracer | None = None) -> Bench:
    """Build, load and warm the four engines; record, analyze, tune.

    Set-up and tuning are timed in reference seconds (see
    :class:`Stopwatch`); tracing, when given, covers the tuning."""
    setup_watch = Stopwatch()
    scale, warmup, stream = streams(workload, seed)
    config = engine_config(workload)
    arms: dict[str, Arm] = {}
    for kind in BUILDS:
        arms[kind] = Arm(kind, _build(kind, config, scale), workload)
        setup_watch.lap()
    expected: dict[int, tuple[int, str]] = {}
    for kind in ("original", "monitoring", "daemon"):
        arms[kind].warm(warmup, expected, setup_watch)
    recorder = arms["daemon"]
    recorder.drain()
    gc.collect()
    setup_watch.lap()
    tune_watch = Stopwatch()
    tuned = arms["tuned"]
    bytes_before = tuned.database.total_bytes
    if tracer is not None:
        tracer.install()
    try:
        report = Analyzer(recorder.database).analyze_workload_db(
            recorder.setup.workload_db)
        tune_watch.lap()
        # apply_recommendations, one change at a time so each is timed
        # as a stretch of its own.
        applied = []
        for recommendation in order_for_application(
                report.recommendations):
            applied.append(apply_one(tuned.sessions[0], recommendation))
            tune_watch.lap()
    finally:
        if tracer is not None:
            tracer.remove()
    setup_watch.restart()
    tuned.warm(warmup, expected, setup_watch)
    tuned.drain()
    setup_watch.lap()
    return Bench(
        workload=workload,
        arms=arms,
        stream=stream,
        setup_s=setup_watch.total_s,
        tune_s=tune_watch.total_s,
        tuned_bytes_ratio=tuned.database.total_bytes / bytes_before,
        recommendations=len(report.recommendations),
        attempted=len(applied),
        failed=sum(1 for a in applied if not a.succeeded),
    )


# -- the measured loop ----------------------------------------------------------


@dataclass
class Result:
    """What a run prints: the metric table and the final JSON line."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str, int]]
    """name -> (value, unit, sample count)."""
    note: str = ""

    def final_line(self) -> dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _n) in self.metrics.items()},
        }


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def measure(bench: Bench, seconds: float,
            tracer: Tracer | None = None) -> dict[str, Totals]:
    """Interleave the four builds for ``seconds`` reference seconds.

    The length is counted in reference seconds (see :class:`Speed`), so
    a run does the same work however fast the host happens to be: the
    daemon's flush cost grows with the rows persisted so far, and a
    wall-clock length would tie that cost to the host's speed.

    With a ``tracer`` every other round is traced; the others give the
    untraced statement time that ``trace.overhead_pct`` compares with.
    Returns the totals of the untraced rounds (all rounds without a
    tracer) and, under ``traced:<build>``, those of the traced rounds.
    """
    workload = bench.workload
    stream = bench.stream
    arms = list(bench.arms.values())
    totals = {arm.name: Totals() for arm in arms}
    traced = {arm.name: Totals() for arm in arms}
    gc.collect()
    for arm in arms:
        arm.mark()
    speed = Speed()
    position = workload.warmup
    round_index = 0
    elapsed = 0.0
    while True:
        chunk = [stream[(position + i) % len(stream)]
                 for i in range(workload.chunk)]
        expected: dict[int, tuple[int, str]] = {}
        shift = round_index % len(arms)
        tracing = tracer is not None and round_index % 2 == 0
        if tracing:
            assert tracer is not None
            tracer.install()
        try:
            speed.sample()
            for arm in arms[shift:] + arms[:shift]:
                if tracer is not None:
                    tracer.build = arm.name
                slot = Slot(speed)
                arm.run(chunk, position, expected, slot)
                (traced if tracing else totals)[arm.name].add(slot)
                elapsed += slot.exec_s + sum(slot.polls_s)
        finally:
            if tracing:
                assert tracer is not None
                tracer.remove()
        position += workload.chunk
        round_index += 1
        if elapsed >= seconds:
            break
    for arm in arms:
        arm.totals = totals[arm.name]
    return {**totals,
            **{f"traced:{name}": value for name, value in traced.items()}}


def run(workload_name: str, seed: int | None, seconds: float,
        trace: bool, setup_repeats: int = SETUP_REPEATS,
        workload: Workload | None = None) -> Result:
    """Set up ``setup_repeats`` times, measure the last set-up.

    ``attempted`` and ``failed`` count every set-up's statements and
    applied recommendations, and the measured loop's statements."""
    workload = workload or WORKLOADS[workload_name]
    setup_times: list[float] = []
    tune_times: list[float] = []
    attempted = failed = 0
    tracer = Tracer() if trace else None
    for repeat in range(setup_repeats):
        last = repeat == setup_repeats - 1
        bench = set_up(workload, seed, tracer if last else None)
        setup_times.append(bench.setup_s)
        tune_times.append(bench.tune_s)
        attempted += bench.attempted
        failed += bench.failed
        if not last:
            for arm in bench.arms.values():
                attempted += arm.client_statements
                failed += arm.failed
                arm.close()
            del bench
            gc.collect()
    # The loaded engines are long-lived: keep the collector's full
    # passes from walking them during the measured loop.
    gc.collect()
    gc.freeze()
    try:
        measured = measure(bench, seconds, tracer)
    finally:
        gc.unfreeze()
    arms = bench.arms
    for arm in arms.values():
        arm.drain()
    failures = [f for arm in arms.values() for f in arm.invariant_failures()]
    if failures:
        raise InvariantViolation("; ".join(failures))

    attempted += sum(a.client_statements for a in arms.values())
    failed += sum(a.failed for a in arms.values())
    if trace:
        assert tracer is not None
        metrics = layer_metrics(bench, measured, tracer)
    else:
        metrics = end_to_end_metrics(bench, setup_times, tune_times,
                                     attempted, failed)
    return Result(correct=failed == 0, attempted=attempted, failed=failed,
                  metrics=metrics,
                  note=(f"workload={workload.name} seed={seed} "
                        f"seconds={seconds:g} trace={int(trace)} "
                        f"tail_us=p{workload.tail * 100:g}"))


# -- metrics --------------------------------------------------------------------


def end_to_end_metrics(bench: Bench, setup_times: list[float],
                       tune_times: list[float], attempted: int,
                       failed: int) -> dict[str, tuple[float, str, int]]:
    arms = bench.arms
    recorder = arms["daemon"]
    latencies = recorder.totals.latencies_s
    metrics: dict[str, tuple[float, int]] = {
        f"{kind}_sps": (throughput(bench.workload, arms[kind].totals),
                        arms[kind].totals.statements)
        for kind in BUILDS
    }
    metrics.update({
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "p50_us": (percentile(latencies, 0.5) * 1e6, len(latencies)),
        "tail_us": (percentile(latencies, bench.workload.tail) * 1e6,
                    len(latencies)),
        "capture_ratio": (recorder.captured_client_rows()
                          / recorder.client_statements,
                          recorder.client_statements),
        "ok_ratio": (1.0 - failed / attempted, attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
        "tuned_bytes_ratio": (bench.tuned_bytes_ratio, 1),
        "tune_s": (statistics.median(tune_times), len(tune_times)),
    })
    return {name: (metrics[name][0], unit, metrics[name][1])
            for name, unit in END_TO_END_UNITS.items()}


def throughput(workload: Workload, totals: Totals) -> float:
    """Statements per reference second: one over the median chunk's
    statement time per statement plus the poll time per statement.

    The medians keep a burst the reference kernel did not track out of
    the figure.  Every third poll flushes, so the poll time is the
    median over whole flush cycles (the mean of the polls when the run
    holds no whole cycle)."""
    polls = totals.polls_s
    cycles = [sum(polls[i:i + FLUSH_EVERY_POLLS]) / FLUSH_EVERY_POLLS
              for i in range(0, len(polls) - FLUSH_EVERY_POLLS + 1,
                             FLUSH_EVERY_POLLS)]
    poll_s = (statistics.median(cycles) if cycles
              else statistics.fmean(polls) if polls else 0.0)
    return 1.0 / (statistics.median(totals.slot_exec_s) / workload.chunk
                  + poll_s / workload.poll_every)


def _per(value: float, count: int) -> float:
    return value / count if count else 0.0


def layer_metrics(bench: Bench, measured: dict[str, Totals],
                  tracer: Tracer) -> dict[str, tuple[float, str, int]]:
    """Per-layer figures from the traced rounds (daemon build unless a
    name says otherwise)."""
    spans = tracer.spans
    own = self_times(spans)
    # Per build: statement count and self-time/call sums per layer, over
    # the client statement trees; and the same over the poll trees.
    statement_self: dict[str, dict[str, float]] = {b: {} for b in BUILDS}
    statement_calls: dict[str, dict[str, int]] = {b: {} for b in BUILDS}
    statement_count = {b: 0 for b in BUILDS}
    poll_self: dict[str, dict[str, float]] = {b: {} for b in BUILDS}
    poll_durations: dict[str, list[float]] = {b: [] for b in BUILDS}
    analysis_self: dict[str, float] = {}
    analysis_calls: dict[str, int] = {}
    for group in trees(spans).values():
        root = next(span for span in group if span[0] == span[2])
        build = root[4]
        if root[3] == "engine.execute":
            if build not in statement_count:
                continue
            statement_count[build] += 1
            sums, calls = statement_self[build], statement_calls[build]
        elif root[3] == "daemon.poll":
            poll_durations[build].append(root[6] - root[5])
            sums, calls = poll_self[build], {}
        else:
            sums, calls = analysis_self, analysis_calls
        for span in group:
            name = span[3]
            sums[name] = sums.get(name, 0.0) + own[span[0]]
            calls[name] = calls.get(name, 0) + 1

    def us(build: str, layer: str) -> float:
        return _per(statement_self[build].get(layer, 0.0) * 1e6,
                    statement_count[build])

    arms = bench.arms
    daemon = arms["daemon"]
    base = daemon.baseline
    n = statement_count["daemon"]
    polls = len(poll_durations["daemon"])
    setup = daemon.setup
    totals = measured["traced:daemon"]
    assert (setup.daemon is not None and setup.workload_db is not None
            and setup.controller is not None and setup.monitor is not None)
    status = setup.daemon.status()
    shards = monitor_shards(setup.monitor)
    hits = sum(s.plan_cache_hits for s in daemon.sessions) - base["plan_hits"]
    misses = (sum(s.plan_cache_misses for s in daemon.sessions)
              - base["plan_misses"])
    pool = daemon.database.pool.stats()
    pool_hits = pool.hits - base["pool"].hits
    pool_misses = pool.misses - base["pool"].misses
    statements = daemon.client_statements - base["statements"]
    metrics: dict[str, float] = {
        "sql.parse_us": us("daemon", "sql.parse"),
        "sql.parse_per_stmt": _per(
            statement_calls["daemon"].get("sql.parse", 0), n),
        "optimizer.optimize_us": us("daemon", "optimizer.optimize"),
        "optimizer.optimize_per_stmt": _per(
            statement_calls["daemon"].get("optimizer.optimize", 0), n),
        "engine.plan_cache_hit_ratio": _per(hits, hits + misses),
        "engine.lock_us": us("daemon", "engine.lock"),
        "engine.lock_waits": float(
            setup.engine.lock_manager.statistics().total_waits
            - base["lock_waits"]),
        "engine.self_us": us("daemon", "engine.execute"),
        "execution.execute_us": us("daemon", "execution.execute"),
        "execution.tuples_per_row": _per(totals.tuples, totals.rows),
        "execution.logical_reads_per_stmt": _per(
            totals.logical_reads, totals.statements),
        "storage.pool_hit_ratio": _per(pool_hits, pool_hits + pool_misses),
        "storage.evictions_per_stmt": _per(
            pool.evictions - base["pool"].evictions, statements),
        "storage.physical_reads_per_stmt": _per(pool_misses, statements),
        "monitor.sensor_us": us("daemon", "monitor.sensor"),
        "monitor.sensor_calls_per_stmt": _per(
            statement_calls["daemon"].get("monitor.sensor", 0), n),
        "monitor.own_sensor_us": _own_sensor_us(arms["monitoring"]),
        "monitor.stmt_evictions_per_stmt": _per(
            sum(s.statements.evicted for s in shards)
            - base["stmt_evicted"], statements),
        "monitor.workload_dropped": float(
            sum(s.workload.dropped for s in shards)),
        "sharding.merge_us": _per(
            poll_self["daemon"].get("sharding.merge", 0.0) * 1e6, polls),
        "ima.query_us": _per(
            poll_self["daemon"].get("ima.query", 0.0) * 1e6, polls),
        "ima.rows_per_poll": _per(daemon.poll_rows - base["poll_rows"],
                                  daemon.polls - base["polls"]),
        "daemon.poll_ms_p50": (percentile(poll_durations["daemon"], 0.5)
                               * 1e3 if polls else 0.0),
        "daemon.poll_ms_p99": (percentile(poll_durations["daemon"], 0.99)
                               * 1e3 if polls else 0.0),
        "daemon.poll_failures": float(status.poll_failures),
        "daemon.rows_dropped": float(status.rows_dropped),
        "workload_db.append_us_per_row": _per(
            poll_self["daemon"].get("workload_db.append", 0.0) * 1e6,
            tracer.appended_rows.get("daemon", 0)),
        "workload_db.bytes_per_row": _per(
            setup.workload_db.total_bytes, setup.workload_db.total_rows()),
        "overload.degraded_shards": float(sum(
            1 for level in setup.controller.levels() if level != DETAILED)),
        "overload.conservation_violations": float(sum(
            len(conservation_violations(arm.setup.monitor))
            for arm in arms.values() if arm.setup.monitor is not None)),
        "analyzer.whatif_calls": float(analysis_calls.get(
            "analyzer.whatif", 0)),
        "analyzer.whatif_us": analysis_self.get("analyzer.whatif", 0.0)
        * 1e6,
        "analyzer.recommendations": float(bench.recommendations),
        "trace.overhead_pct": _overhead_pct(measured),
    }
    # Accounting of the Monitoring - Original statement gap: the layers'
    # self times tile each statement, so their deltas sum to the gap.
    gap = sum(_per(sign * sum(statement_self[build].values()) * 1e6,
                   statement_count[build])
              for build, sign in (("monitoring", 1.0), ("original", -1.0)))
    sensor = us("monitoring", "monitor.sensor") - us("original",
                                                     "monitor.sensor")
    engine_self = us("monitoring", "engine.execute") - us("original",
                                                          "engine.execute")
    metrics["trace.gap_us"] = gap
    metrics["trace.gap_sensor_us"] = sensor
    metrics["trace.gap_engine_self_us"] = engine_self
    metrics["trace.gap_remainder_us"] = gap - sensor - engine_self
    samples = {name: n for name in metrics}
    samples.update({name: polls for name in metrics
                    if name.startswith(("sharding.", "ima.", "daemon.",
                                        "workload_db."))})
    return {name: (metrics[name], unit, samples[name])
            for name, unit in PER_LAYER_UNITS.items()}


def _own_sensor_us(arm: Arm) -> float:
    """The Monitoring build's own ``sensor_time_s`` per statement (the
    monitor times itself; this build has no daemon queries mixed in)."""
    monitor = arm.setup.monitor
    assert monitor is not None
    return _per(monitor.sensor_time_s * 1e6, arm.client_statements)


def _overhead_pct(measured: dict[str, Totals]) -> float:
    """Traced against untraced median chunk statement time, all builds."""
    plain = [x for b in BUILDS for x in measured[b].slot_exec_s]
    traced = [x for b in BUILDS for x in measured[f"traced:{b}"].slot_exec_s]
    if not plain or not traced:
        return 0.0
    return (statistics.median(traced) / statistics.median(plain)
            - 1.0) * 100.0


def format_table(result: Result) -> list[str]:
    lines = [result.note]
    for name, (value, unit, samples) in result.metrics.items():
        lines.append(f"{name:34s} {value:14.6g} {unit:7s} n={samples}")
    lines.append(f"attempted={result.attempted} failed={result.failed} "
                 f"correct={result.correct}")
    return lines

