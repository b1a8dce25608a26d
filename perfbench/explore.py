"""``explore``: one analyst's session on the unsharded Ent1&2&3 summary.

One thread drives ``Explorer.sql`` in a closed loop over a stream of
canonically distinct queries (four shapes in equal shares), so almost
every query is cold and the evaluation kernel does most of the work.
The loop runs in rounds: one second of queries, then one append batch
that refreshes the same summary through ``IngestPipeline``
(``append_p50_ms`` on the unsharded model); the session keeps querying
the summary it opened.
"""

from __future__ import annotations

import itertools
import time

import appends
import checks
import common
from querypath import QueryPath, cache_layers, fold_query_spans, live_shard_frac
from streams import Streams

#: Distinct queries generated per run: more than the Explorer LRU,
#: engine and arena caches hold (close to the point shape's whole space).
STREAM = 11_000
#: Untimed warm-up: WARMUP distinct queries, then WARMUP_APPENDS appends
#: each followed by WARMUP more.
WARMUP = 70
WARMUP_APPENDS = 2
#: Query time per round; each round ends with one append.
ROUND_QUERY_SECONDS = 1.0


def run(ctx, report, tracer, layers) -> None:
    from repro import Explorer, SummaryStore

    inputs = common.Inputs()
    base = inputs.base

    setup = []
    for _ in range(common.SETUP_REPEATS):
        began = time.perf_counter()
        if ctx.trace:
            summary = common.fit_traced(base, tracer, layers)
        else:
            summary = common.fit_unsharded(base)
        explorer = Explorer.attach(summary)
        setup.append(time.perf_counter() - began)
    report.setup(setup)
    report.info["terms"] = common.model_terms(summary)
    report.info["rows"] = summary.total

    warm = WARMUP * (WARMUP_APPENDS + 1)
    stream = Streams(inputs.schema).distinct(ctx.seed, warm + STREAM)
    warmup, timed = stream[:warm], stream[warm:]
    path = QueryPath(tracer, report, summary.total)

    with common.Scratch("explore") as scratch:
        store = SummaryStore(scratch / "store")
        record = store.save(summary, common.MODEL_NAME)
        report.metric(
            "summary_mb", common.version_bytes(store, record) / 1e6, "MB", 1
        )
        pipe = appends.pipeline(summary, base, store, ctx.trace)
        batches = inputs.batches(ctx.seed)

        # Warm-up.  Until the process's second append, this session's
        # queries run ~1.6x slower than ever after: the query path's
        # large temporaries are mmapped per query until freed solver
        # arrays raise glibc's dynamic mmap threshold.  Timing starts in
        # the steady state; the queries before the second append give
        # the per-layer ``query_p50_ms_fresh``.
        chunks = [warmup[i : i + WARMUP] for i in range(0, warm, WARMUP)]
        fresh = path.run(explorer, chunks[0])
        for index in range(WARMUP_APPENDS):
            report.attempted += 1
            appends.append(
                pipe, next(batches), store, tracer, common.Layers(), False
            )
            done = path.run(explorer, chunks[index + 1])
            if index == 0:
                fresh += done
        layers.add("query_p50_ms_fresh", common.percentile(fresh, 50) * 1e3)
        explorer.clear_cache()

        # The timed phase runs in rounds: ROUND_QUERY_SECONDS of queries,
        # then one append, until --seconds have passed.  A traced run
        # traces every second round; the difference between the two
        # halves is the tracing overhead.  The stream cycles if a run
        # outlasts it (a cycle is longer than every cache).
        queries = itertools.cycle(timed)
        rounds, appended = [], []
        since, issued = len(tracer.spans), 0
        began = time.perf_counter()
        while len(rounds) < 2 or time.perf_counter() - began < ctx.seconds:
            on = ctx.trace and len(rounds) % 2 == 1
            restore = path.instrument(explorer) if on else None
            done = path.run(
                explorer,
                queries,
                deadline=time.perf_counter() + ROUND_QUERY_SECONDS,
                traced=on,
                op_base=issued,
            )
            if restore is not None:
                restore()
            issued += len(done)
            report.attempted += 1
            seconds, _, _ = appends.append(
                pipe, next(batches), store, tracer, layers, ctx.trace
            )
            rounds.append((on, done))
            appended.append([seconds])
    report.metric("peak_rss_mb", common.peak_rss_mb(), "MB", 1)
    untraced = [done for on, done in rounds if not on]
    traced = [x for on, done in rounds if on for x in done]
    cache_layers(explorer, issued, layers, report.counters)
    report.info["queries_issued"] = issued
    report.info["rounds"] = len(rounds)
    common.round_query_metrics(report, layers, untraced)
    common.round_append_metric(report, appended)
    if ctx.trace:
        fold_query_spans(tracer, since, layers)
        layers.add(
            "trace.overhead_us",
            (
                common.median(traced)
                - common.median([x for done in untraced for x in done])
            )
            * 1e6,
        )
        layers.add("plan.live_shard_frac", live_shard_frac(path.plans))

    sqls = checks.count_queries(timed)
    oracle = Explorer.attach(summary)
    report.metric(
        "answer_err",
        checks.answer_error(lambda sql: oracle.sql(sql).scalar, base, sqls),
        "ratio",
        len(sqls),
    )
