"""Sharded summaries: build throughput, merge accuracy, batch latency.

The acceptance bar for the sharding subsystem:

* **build** — fitting 4 shards (same *total* 2D bucket budget, divided
  across shards) is at least 2x faster than the single global fit.
  Two effects compound: per-shard polynomials are far smaller (solve
  cost grows superlinearly with per-model statistic count), and the
  shard fits run in parallel worker processes on multi-core machines.
  The 2x bound holds even serially on one core.
* **accuracy** — merged estimates track the unsharded model: 2% + 0.5
  per query on single-attribute counts (as in
  ``tests/test_sharding.py``), and less than a 2x increase in mean
  relative error vs ground truth on mixed workloads — the price of
  coarser per-shard 2D buckets at constant total budget.
* **latency** — large batched workloads through ``Explorer.run_many``
  are no slower against the sharded model; the per-shard polynomials
  are small enough that evaluating all of them usually costs *less*
  than one pass over the big unsharded polynomial.

Numbers append to ``BENCH_sharding.json`` through the shared emitter
(:mod:`benchmarks._emit`) in the same schema as ``BENCH_serve.json``.

Scale via ``REPRO_SCALE`` (``paper`` default, ``small`` for CI).
"""

import time

import numpy as np
import pytest

from benchmarks._emit import BenchReport
from repro.api import Explorer, SummaryBuilder

REPORT = BenchReport("sharding")
from repro.datasets import generate_flights
from repro.experiments.configs import active_scale
from repro.stats.predicates import Conjunction, RangePredicate

#: Total 2D bucket budget per pair — divided across shards so the
#: sharded and unsharded models are the same overall size.
TOTAL_PER_PAIR_BUDGET = 180
NUM_SHARDS = 4
ITERATIONS = 12
PAIRS = (
    ("origin_state", "distance"),
    ("dest_state", "distance"),
    ("fl_time", "distance"),
)


def _relation():
    return generate_flights(
        num_rows=active_scale().flights_rows, seed=7
    ).coarse


def _builder(relation):
    return (
        SummaryBuilder(relation)
        .pairs(*PAIRS)
        .per_pair_budget(TOTAL_PER_PAIR_BUDGET)
        .iterations(ITERATIONS)
    )


def test_sharded_build_speedup():
    """Acceptance: a 4-shard build beats the global fit by >= 2x."""
    relation = _relation()
    _builder(relation).iterations(2).fit()  # warm numpy/solver caches

    start = time.perf_counter()
    unsharded = _builder(relation).name("flights-flat").fit()
    flat_time = time.perf_counter() - start

    start = time.perf_counter()
    sharded = (
        _builder(relation).name("flights-sharded").shards(NUM_SHARDS).fit()
    )
    sharded_time = time.perf_counter() - start

    print(
        f"\nbuild: unsharded {flat_time:.2f}s "
        f"({unsharded.polynomial.num_terms} terms) vs {NUM_SHARDS} shards "
        f"{sharded_time:.2f}s ({sharded.size_report()['num_terms']} terms "
        f"total) — {flat_time / sharded_time:.2f}x"
    )
    REPORT.record(
        {
            "num_shards": NUM_SHARDS,
            "unsharded_build_s": round(flat_time, 3),
            "sharded_build_s": round(sharded_time, 3),
            "build_speedup": round(flat_time / sharded_time, 2),
        },
        thresholds=[("build_speedup", ">=", 2.0)],
    )
    assert sharded.total == relation.num_rows
    assert flat_time >= 2.0 * sharded_time, (
        f"sharded build {sharded_time:.2f}s not 2x faster than "
        f"unsharded {flat_time:.2f}s"
    )


def _workload(schema, rng, count):
    """Mixed single- and two-attribute range/point counting queries."""
    predicates = []
    origin_size = schema.domain("origin_state").size
    time_size = schema.domain("fl_time").size
    distance_size = schema.domain("distance").size
    for index in range(count):
        state = int(rng.integers(0, origin_size))
        if index % 3 == 0:
            predicates.append(
                Conjunction(schema, {"origin_state": RangePredicate.point(state)})
            )
        elif index % 3 == 1:
            low = int(rng.integers(0, distance_size - 12))
            predicates.append(
                Conjunction(
                    schema,
                    {
                        "origin_state": RangePredicate.point(state),
                        "distance": RangePredicate(low, low + 11),
                    },
                )
            )
        else:
            low = int(rng.integers(0, time_size - 8))
            predicates.append(
                Conjunction(schema, {"fl_time": RangePredicate(low, low + 7)})
            )
    return predicates


def test_sharded_estimates_match_unsharded():
    """Merged answers track the global model within documented bounds.

    Single-attribute counts agree per query (2% + 0.5, both models
    reproduce the fitted marginals).  Multi-attribute conjunctions are
    where two independently fitted MaxEnt models legitimately differ
    (each shard has 1/n of the 2D buckets), so the bound is aggregate
    and anchored to ground truth: the sharded model's mean relative
    error stays below 2x the unsharded model's.
    """
    relation = _relation()
    unsharded = _builder(relation).fit()
    sharded = _builder(relation).shards(NUM_SHARDS).fit()
    predicates = _workload(relation.schema, np.random.default_rng(29), 60)

    flat_errors = []
    sharded_errors = []
    for predicate in predicates:
        exact = float(relation.count_where(predicate.attribute_masks()))
        reference = unsharded.count(predicate).expectation
        merged = sharded.estimate(predicate).expectation
        if len(predicate.constrained_positions) == 1:
            assert merged == pytest.approx(reference, rel=0.02, abs=0.5), (
                f"{predicate!r}: sharded {merged:.2f} vs unsharded "
                f"{reference:.2f} exceeds the 2% single-attribute tolerance"
            )
        flat_errors.append(abs(reference - exact) / max(exact, 8.0))
        sharded_errors.append(abs(merged - exact) / max(exact, 8.0))
    flat_error = np.mean(flat_errors)
    sharded_error = np.mean(sharded_errors)
    print(
        f"\naccuracy over {len(predicates)} queries: mean relative error "
        f"unsharded {flat_error:.4f} vs sharded {sharded_error:.4f} "
        f"({sharded_error / flat_error:.2f}x)"
    )
    REPORT.record(
        {
            "accuracy_queries": len(predicates),
            "mean_rel_error_unsharded": round(float(flat_error), 5),
            "mean_rel_error_sharded": round(float(sharded_error), 5),
            "error_ratio": round(float(sharded_error / flat_error), 3),
        },
        thresholds=[("error_ratio", "<=", 2.0)],
    )
    assert sharded_error <= 2.0 * flat_error, (
        f"sharded mean error {sharded_error:.4f} exceeds 2x the "
        f"unsharded {flat_error:.4f}"
    )


def test_sharded_batch_query_latency():
    """Large batches are served at least as fast by the sharded model."""
    relation = _relation()
    unsharded = _builder(relation).fit()
    sharded = _builder(relation).shards(NUM_SHARDS).fit()
    predicates = _workload(relation.schema, np.random.default_rng(31), 96)

    flat_session = Explorer.attach(unsharded)
    sharded_session = Explorer.attach(sharded)

    def run(session):
        session.clear_cache()
        start = time.perf_counter()
        values = session.count_many(predicates)
        return time.perf_counter() - start, values

    rounds = [(run(flat_session), run(sharded_session)) for _ in range(3)]
    flat_time = min(elapsed for (elapsed, _), _ in rounds)
    sharded_time = min(elapsed for _, (elapsed, _) in rounds)
    print(
        f"\nbatch of {len(predicates)}: unsharded {flat_time * 1e3:.1f} ms vs "
        f"{NUM_SHARDS} shards {sharded_time * 1e3:.1f} ms "
        f"({flat_time / sharded_time:.2f}x)"
    )
    REPORT.record(
        {
            "batch_queries": len(predicates),
            "batch_ms_unsharded": round(flat_time * 1e3, 2),
            "batch_ms_sharded": round(sharded_time * 1e3, 2),
            "batch_time_ratio": round(sharded_time / flat_time, 3),
        },
        thresholds=[("batch_time_ratio", "<=", 1.5)],
    )
    # The sharded pass does strictly more bookkeeping per query, so
    # allow a little noise; in practice the smaller per-shard
    # polynomials make it faster outright.
    assert sharded_time <= 1.5 * flat_time, (
        f"sharded batch {sharded_time * 1e3:.1f} ms much slower than "
        f"unsharded {flat_time * 1e3:.1f} ms"
    )
