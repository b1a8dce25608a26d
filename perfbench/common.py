"""Shared pieces of the benchmark: inputs, model fits, the report.

Every workload runs on the same relation: ``generate_flights`` at the
``small`` preset (seed 7), cut into a 50,000-row base and a held-out
10,000-row tail ordered by ``fl_date``.  The tail feeds the append
batches, so every appended label is already in the base schema's
domains.  The workload seed drives only the query streams and which
tail rows form each batch; the data and the fitted models are the same
for every seed.
"""

from __future__ import annotations

import os
import platform
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: The paper's Ent1&2&3 on FlightsCoarse (pairs 1C, 2C and 3) at the
#: ``small`` preset: 90 buckets per pair, 15 Mirror Descent sweeps.
SCALE = "small"
DATA_SEED = 7
BASE_ROWS = 50_000
HELD_OUT_ROWS = 10_000
PAIRS = (
    ("origin_state", "distance"),
    ("dest_state", "distance"),
    ("fl_time", "distance"),
)
PER_PAIR_BUDGET = 90
ITERATIONS = 15
SHARDS = 4
SHARD_BY = "origin_state"
MODEL_NAME = "flights"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Rows per append batch.
BATCH_ROWS = 200



def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values))


def median_rate(durations, window: float = 1.0) -> float:
    """Completions per second of a closed loop: back-to-back
    ``durations`` are cut into consecutive windows of ``window`` seconds
    and the median window rate is reported (robust to a slow second)."""
    rates, count, spent = [], 0, 0.0
    for duration in durations:
        count += 1
        spent += duration
        if spent >= window:
            rates.append(count / spent)
            count, spent = 0, 0.0
    if not rates:
        return count / spent
    return median(rates)


def fastest(per_round) -> float:
    """The run's fastest round: the lowest of the per-round values.

    The 2-vCPU box this benchmark was tuned on runs each vCPU in a fast
    or a ~1.5x slower state for stretches of 5 to 70 s (a fixed-work
    canary read 6.0 or 9.4 ms), so a whole-run median mostly measures
    how long a run spent slowed.  Each run is therefore cut into rounds
    of a few seconds, a metric is taken within each round, and the
    fastest round is reported; every round's value is in the report.
    """
    return float(min(per_round))


def round_query_metrics(report, layers, rounds) -> None:
    """``query_p50_ms`` over rounds of closed-loop query latencies (the
    untraced rounds), plus the whole run's p99 and throughput."""
    rounds = [latencies for latencies in rounds if latencies]
    p50s = [percentile(latencies, 50) * 1e3 for latencies in rounds]
    every = [x for latencies in rounds for x in latencies]
    report.metric("query_p50_ms", fastest(p50s), "ms", len(every))
    report.info["query_p50_ms_by_round"] = [round(x, 4) for x in p50s]
    layers.add("query_qps", median_rate(every))
    layers.add("query_p99_ms", percentile(every, 99) * 1e3)


def round_append_metric(report, rounds) -> None:
    """``append_p50_ms``: the median append time within each round, for
    the fastest round."""
    p50s = [median(seconds) * 1e3 for seconds in rounds if seconds]
    report.metric(
        "append_p50_ms", fastest(p50s), "ms", sum(len(r) for r in rounds)
    )
    report.info["append_p50_ms_by_round"] = [round(x, 3) for x in p50s]


class Inputs:
    """The base relation and the held-out tail."""

    def __init__(self):
        from repro.datasets import generate_flights

        dataset = generate_flights(
            num_rows=BASE_ROWS + HELD_OUT_ROWS, seed=DATA_SEED
        )
        full = dataset.coarse
        rows = np.arange(full.num_rows)
        self.base = full.sample_rows(rows[:BASE_ROWS])
        tail = full.sample_rows(rows[BASE_ROWS:])
        date = tail.column(tail.schema.position("fl_date"))
        self.tail = tail.sample_rows(np.argsort(date, kind="stable"))
        self.schema = self.base.schema

    def batches(self, seed: int):
        """Time-ordered append batches of consecutive tail rows, starting
        at a seed-chosen offset (wrapping around the tail)."""
        rng = np.random.default_rng(seed)
        first = int(rng.integers(0, self.tail.num_rows))
        while True:
            rows = np.arange(first, first + BATCH_ROWS) % self.tail.num_rows
            yield self.tail.sample_rows(np.sort(rows))
            first += BATCH_ROWS


def builder(relation):
    from repro import SummaryBuilder

    return (
        SummaryBuilder(relation)
        .pairs(*PAIRS)
        .per_pair_budget(PER_PAIR_BUDGET)
        .iterations(ITERATIONS)
        .name(MODEL_NAME)
    )


def fit_unsharded(relation):
    """The Ent1&2&3 summary, through the public builder."""
    return builder(relation).fit()


def fit_sharded(relation):
    """The 4-shard fit by ``origin_state`` (shards fit in worker
    processes, one per core)."""
    return builder(relation).shards(SHARDS, by=SHARD_BY).fit()


def fit_traced(relation, tracer, layers):
    """The unsharded fit split into its public steps, each timed:
    statistic selection, polynomial compression, Mirror Descent.

    Same work as :func:`fit_unsharded`; ``layers`` collects the build
    path's per-layer numbers.
    """
    from repro import CompressedPolynomial, EntropySummary, MirrorDescentSolver
    from repro.stats.selection import build_statistic_set

    with tracer.span("stats.select") as timed:
        statistic_set = build_statistic_set(
            relation, pairs=list(PAIRS), per_pair_budget=PER_PAIR_BUDGET
        )
    layers.add("stats.select_s", timed.seconds)
    with tracer.span("core.polynomial.build") as timed:
        polynomial = CompressedPolynomial(statistic_set)
    layers.add("core.polynomial.build_s", timed.seconds)
    layers.add("core.polynomial.terms", polynomial.num_terms)
    with tracer.span("core.solver.solve") as timed:
        params, report = MirrorDescentSolver(
            polynomial, max_iterations=ITERATIONS
        ).solve()
    layers.add("core.solver.solve_s", timed.seconds)
    layers.add("core.solver.sweeps", report.iterations)
    layers.add("core.solver.final_error", report.final_error)
    return EntropySummary(
        statistic_set, polynomial, params, report, MODEL_NAME
    )


def fit_shards_traced(relation, tracer, layers):
    """The sharded fit's per-shard steps, serially in this process.

    ``SummaryBuilder`` fits shards in worker processes, whose solver reports
    do not come back; this repeats the same per-shard work in-process so
    its layers can be timed.  It is not part of any set-up time.
    """
    from repro import CompressedPolynomial, MirrorDescentSolver, partition_relation
    from repro.stats.selection import build_statistic_set

    partition = partition_relation(relation, SHARDS, by=SHARD_BY)
    per_pair = max(2, -(-PER_PAIR_BUDGET // SHARDS))
    select_s = build_s = solve_s = 0.0
    terms = sweeps = 0
    final_error = 0.0
    for shard in partition.relations:
        with tracer.span("stats.select") as timed:
            statistic_set = build_statistic_set(
                shard, pairs=list(PAIRS), per_pair_budget=per_pair
            )
        select_s += timed.seconds
        with tracer.span("core.polynomial.build") as timed:
            polynomial = CompressedPolynomial(statistic_set)
        build_s += timed.seconds
        terms += polynomial.num_terms
        with tracer.span("core.solver.solve") as timed:
            _, report = MirrorDescentSolver(
                polynomial, max_iterations=ITERATIONS
            ).solve()
        solve_s += timed.seconds
        sweeps += report.iterations
        final_error = max(final_error, report.final_error)
    layers.add("stats.select_s", select_s)
    layers.add("core.polynomial.build_s", build_s)
    layers.add("core.polynomial.terms", terms)
    layers.add("core.solver.solve_s", solve_s)
    layers.add("core.solver.sweeps", sweeps / SHARDS)
    layers.add("core.solver.final_error", final_error)


def model_terms(summary) -> int:
    shards = getattr(summary, "shards", None)
    if shards is None:
        return int(summary.polynomial.num_terms)
    return int(sum(shard.polynomial.num_terms for shard in shards))


def version_bytes(store, record) -> int:
    """On-disk bytes of one stored model version (all its files)."""
    prefix = Path(store.root) / record.prefix
    return sum(
        path.stat().st_size
        for path in prefix.parent.iterdir()
        if path.name == prefix.name
        or path.name.startswith(prefix.name + ".")
        or path.name.startswith(prefix.name + "-shard")
    )


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc status")


def box_info() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git unavailable)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


class Layers:
    """Per-layer samples: each name keeps every observation."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def mean(self, name: str, default: float = 0.0) -> float:
        values = self.samples.get(name)
        return float(np.mean(values)) if values else default


class Report:
    """What one run measured: metrics with units and sample counts,
    raw counters, the box and the inputs."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.metrics: dict[str, dict] = {}
        self.counters: dict[str, float] = {}
        self.info: dict = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "scale": SCALE,
            "box": box_info(),
        }
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []

    def setup(self, seconds) -> None:
        """``setup_s``: the median of the run's set-ups (each is kept)."""
        self.metric("setup_s", median(seconds), "s", len(seconds))
        self.info["setup_s_each"] = [round(x, 4) for x in seconds]

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = {
            "value": float(value),
            "unit": unit,
            "samples": int(samples),
        }

    def fail(self, message: str) -> None:
        """Record one operation that failed or failed its answer check."""
        self.failed += 1
        if len(self.check_failures) < 20:
            self.check_failures.append(message)


class Scratch:
    """A private directory under ``.perfbench/`` in the checkout,
    removed when the run ends."""

    def __init__(self, label: str):
        base = ROOT / ".perfbench"
        base.mkdir(exist_ok=True)
        self.path = base / f"{label}-{os.getpid()}-{time.time_ns()}"
        self.path.mkdir()

    def __enter__(self) -> Path:
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def trace_dir() -> Path:
    path = ROOT / ".perfbench" / "traces"
    path.mkdir(parents=True, exist_ok=True)
    return path
