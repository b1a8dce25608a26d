"""``serve``: a shared dashboard over ``python -m repro serve``.

The server runs in its own process with its defaults (binary protocol,
2 ms coalescing window, 2,048-entry TTL cache, one worker) on the
4-shard fit saved to a private ``SummaryStore``; every run boots fresh
servers.  One thread of this process offers open-loop load over two
connections at a ladder of fixed rates.  About 60% of requests come
from a hot set of 20 query texts (10 canonical queries, each spelled
with ``BETWEEN`` and with ``>=``/``<=``) that fits every cache; the
rest walk a tail of canonically distinct queries, more than the TTL
cache holds, so each tail query misses.

Server-side layer numbers are deltas of the server's own ``metrics``
op scraped around each reference chunk; client-side numbers are timed
around this process's sends and receives.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import itertools
import os
import random
import selectors
import signal
import subprocess
import sys
import time

import appends
import checks
import common
from openloop import OpenLoop
from querypath import live_shard_frac
from streams import Streams

#: Offered rates (queries/s) and how the run is spent.  The reference
#: rate's latencies are ``query_p50_ms`` / ``query_p99_ms``: it gets
#: REFERENCE_SHARE of the run, in CHUNKS_PER_RUNG chunks right after each
#: rung, and each chunk is one round (``query_p50_ms`` is the fastest
#: chunk's p50; ``query_p99_ms`` pools every chunk).
#: The other rungs split the rest of the run, highest first: every
#: reference chunk thus meets a server that has already run at its peak
#: concurrency.  Run ascending, the first rungs' latencies depended on
#: whether earlier coalescer flushes had overlapped, which split runs
#: into two modes.  One append to the served model follows each chunk,
#: while no request is in flight.
LADDER = (700, 850, 1000, 1300, 1600)
REFERENCE_RATE = 300
REFERENCE_SHARE = 0.7
CHUNKS_PER_RUNG = 2
HOT_SHARE = 0.6
TAIL = 7_000
#: Tail queries sent before timing starts, at WARMUP_RATE: more than
#: the TTL cache holds, so the server reaches its steady state (full
#: caches, settled heap) before the first rung.
WARMUP_TAIL = 2_500
WARMUP_RATE = 500
#: Latency limit on p99 for ``serve.max_qps_at_slo``.  50 ms, not 20:
#: at low load the served p99 already ranges 8–32 ms from run to run on
#: a 2-core box, so a 20 ms limit would measure that spread, not the
#: knee.
SLO_MS = 50.0
#: Distinct served texts compared against in-process answers.
PARITY_QUERIES = 300
BOOT_TIMEOUT_S = 120.0


# -- the server process --------------------------------------------------------
def start_server(store_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(common.ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--store", str(store_dir), "--name", common.MODEL_NAME,
            "--port", "0",
        ],
        cwd=common.ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    with selectors.DefaultSelector() as selector:
        selector.register(process.stdout, selectors.EVENT_READ)
        while True:
            if not selector.select(timeout=max(deadline - time.monotonic(), 0)):
                stop_server(process)
                raise RuntimeError("server did not start in time")
            line = process.stdout.readline()
            if not line:
                stop_server(process)
                raise RuntimeError("server exited during start-up")
            if line.startswith("serving "):
                port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
                return process, port


def stop_server(process) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


def wait_ready(port: int) -> None:
    from repro.serve import ServeClient

    with ServeClient(port=port, timeout=BOOT_TIMEOUT_S) as client:
        client.ping()


# -- server metrics ------------------------------------------------------------
def scrape_deltas(before: dict, after: dict) -> dict:
    from repro.obs.metrics import histogram_stats, sample_value

    out = {}
    for stage in (
        "parse", "canonicalize", "route", "cache_lookup",
        "coalesce_wait", "evaluate", "encode",
    ):
        total_after, _, _ = histogram_stats(after, "repro_stage_seconds", {"stage": stage})
        total_before, _, _ = histogram_stats(before, "repro_stage_seconds", {"stage": stage})
        out[f"stage.{stage}"] = total_after - total_before
    for name in (
        "repro_cache_hits_total", "repro_cache_misses_total",
        "repro_coalescer_submitted_total", "repro_coalescer_flushes_total",
        "repro_admission_rejected_total",
    ):
        out[name] = sample_value(after, name) - sample_value(before, name)
    seconds_after, count_after, _ = histogram_stats(
        after, "repro_request_seconds", {"op": "query"}
    )
    seconds_before, count_before, _ = histogram_stats(
        before, "repro_request_seconds", {"op": "query"}
    )
    out["request_seconds"] = seconds_after - seconds_before
    out["requests"] = count_after - count_before
    return out


# -- the run -------------------------------------------------------------------
def request_mix(streams, seed: int):
    """The hot texts, the tail, the warm-up texts and the timed request
    stream.  The warm-up sends WARMUP_TAIL tail queries, enough to fill
    the TTL cache, between two passes over the hot texts; the timed
    stream draws a hot text 60% of the time and the next tail query
    otherwise (cycling through the tail, which outlasts the TTL cache)."""
    hot_keys, hot = streams.hot_set(seed)
    tail = streams.distinct(seed, WARMUP_TAIL + TAIL, exclude=hot_keys)
    warmup = [sql for _, sql in hot + tail[:WARMUP_TAIL] + hot]
    rng = random.Random(seed)

    def timed():
        queries = itertools.cycle(tail[WARMUP_TAIL:])
        while True:
            if rng.random() < HOT_SHARE:
                yield rng.choice(hot)[1]
            else:
                yield next(queries)[1]

    return hot, tail, warmup, timed()


def summarize(outcomes):
    from repro.serve import wire

    latencies = [o.received - o.due for o in outcomes if o.opcode == wire.OP_REPLY]
    rtts = [o.received - o.sent for o in outcomes if o.opcode == wire.OP_REPLY]
    lags = [o.ready - o.due for o in outcomes]
    errors = sum(1 for o in outcomes if o.opcode != wire.OP_REPLY)
    last_due = max(o.due for o in outcomes)
    last_reply = max((o.received for o in outcomes if o.received), default=last_due)
    return latencies, rtts, lags, errors, last_reply - last_due


def _rung_row(rate, outcomes, before, after):
    latencies, rtts, lags, errors, drain = summarize(outcomes)
    third = max(len(latencies) // 3, 1)
    growth_ms = (
        common.median(latencies[-third:]) - common.median(latencies[:third])
    ) * 1e3 if latencies else float("inf")
    p99 = common.percentile(latencies, 99) * 1e3 if latencies else float("inf")
    span = max(o.received for o in outcomes) - min(o.due for o in outcomes)
    row = {
        "rate": rate,
        "sent": len(outcomes),
        "completed": len(latencies),
        "errors": errors,
        "p50_ms": common.percentile(latencies, 50) * 1e3 if latencies else float("inf"),
        "p99_ms": p99,
        "lag_p99_ms": common.percentile(lags, 99) * 1e3,
        "drain_ms": drain * 1e3,
        "backlog_growth_ms": growth_ms,
        "completed_qps": len(latencies) / max(span, 1e-9),
        "latencies": latencies,
        "rtts": rtts,
        "server": scrape_deltas(before, after),
    }
    # A rung meets the limit when nothing failed, its p99 is within the
    # limit, and no backlog built up: the last third of its requests
    # waited no longer (median) than the first third, give or take half
    # the limit.
    row["meets_slo"] = (
        errors == 0
        and p99 <= SLO_MS
        and growth_ms <= SLO_MS / 2
    )
    return row


async def drive(port, mix, report, tracer, total, between):
    """Warm up, then run the ladder, calling ``between()`` after each
    reference chunk; returns (first served payload per text, ladder
    rows)."""
    from repro.serve import wire

    loop = OpenLoop("127.0.0.1", port)
    await loop.connect(2)
    served: dict[str, dict] = {}
    ladder = []
    try:
        await loop.rung(WARMUP_RATE, len(mix.warmup) / WARMUP_RATE, iter(mix.warmup))
        for rate, seconds in mix.rungs:
            before = (await loop.call("metrics"))["result"]["snapshot"]
            # The generator's own garbage-collection pauses would be
            # charged to the server as latency; collect between rungs.
            gc.collect()
            gc.disable()
            try:
                outcomes = await loop.rung(rate, seconds, mix.queries)
            finally:
                gc.enable()
            after = (await loop.call("metrics"))["result"]["snapshot"]
            for outcome in outcomes:
                report.attempted += 1
                if outcome.opcode is None:
                    report.fail(f"{outcome.sql}: no reply")
                    continue
                response = wire.unpackb(outcome.body)
                if outcome.opcode != wire.OP_REPLY or not response.get("ok"):
                    report.fail(f"{outcome.sql}: {response.get('error')}")
                    continue
                payload = wire.client_view(response["result"])
                problem = checks.check_answer(payload, total)
                if problem is not None:
                    report.fail(f"{outcome.sql}: {problem}")
                served.setdefault(outcome.sql, payload)
                # Spans come from the stamps taken anyway, after the
                # replies are in: recording them costs requests nothing.
                root = tracer.add("serve.request", outcome.due, outcome.received)
                tracer.add("loadgen.wait", outcome.due, outcome.sent, parent=root)
                tracer.add("serve.roundtrip", outcome.sent, outcome.received, parent=root)
            ladder.append(_rung_row(rate, outcomes, before, after))
            if rate == REFERENCE_RATE:
                # Every reply is in, so blocking the loop delays nothing.
                between()
    finally:
        await loop.close()
    return served, ladder


def run(ctx, report, tracer, layers) -> None:
    from repro import Explorer, SummaryStore
    from repro.core.arena import ShardArena

    inputs = common.Inputs()
    base = inputs.base
    with common.Scratch("serve") as scratch:
        setup, process = [], None
        try:
            for attempt in range(common.SETUP_REPEATS):
                if process is not None:
                    stop_server(process)
                    process = None
                store_dir = scratch / f"store{attempt}"
                began = time.perf_counter()
                summary = common.fit_sharded(base)
                store = SummaryStore(store_dir)
                with tracer.span("api.store.save") as save:
                    record = store.save(summary, common.MODEL_NAME)
                process, port = start_server(store_dir)
                wait_ready(port)
                setup.append(time.perf_counter() - began)
                layers.add("api.store.save_s", save.seconds)
            report.setup(setup)
            report.info["terms"] = common.model_terms(summary)
            report.info["rows"] = summary.total
            report.metric(
                "summary_mb", common.version_bytes(store, record) / 1e6, "MB", 1
            )

            # Appends to the served model run between rungs; the server
            # keeps serving the base version until the reload at the end.
            pipe = appends.pipeline(summary, base, store, ctx.trace)
            batches = inputs.batches(ctx.seed)
            times, published = [], []

            def append_one():
                report.attempted += 1
                seconds, _, latest = appends.append(
                    pipe, next(batches), store, tracer, layers, ctx.trace
                )
                times.append([seconds])
                published.append(latest)

            hot, tail, warmup, queries = request_mix(Streams(inputs.schema), ctx.seed)
            report.info["hot_texts"] = len(hot)
            rest = ctx.seconds * (1 - REFERENCE_SHARE) / len(LADDER)
            chunk = ctx.seconds * REFERENCE_SHARE / (len(LADDER) * CHUNKS_PER_RUNG)
            rungs = []
            for rate in sorted(LADDER, reverse=True):
                rungs += [(rate, rest)] + [(REFERENCE_RATE, chunk)] * CHUNKS_PER_RUNG
            plan = argparse.Namespace(warmup=warmup, queries=queries, rungs=rungs)
            served, ladder = asyncio.run(
                drive(port, plan, report, tracer, summary.total, append_one)
            )
            report.metric("peak_rss_mb", common.peak_rss_mb(process.pid), "MB", 1)
            _ladder_metrics(report, layers, ladder)
            report.info["served_distinct"] = len(served)

            # Served answers against the in-process Explorer on the
            # same store version.
            local = Explorer.open(store, common.MODEL_NAME, version=record.version)
            for sql in list(served)[:PARITY_QUERIES]:
                report.attempted += 1
                problem = checks.same_answer(served[sql], local.sql(sql))
                if problem is not None:
                    report.fail(f"served vs in-process {sql}: {problem}")
            sqls = checks.count_queries(tail[WARMUP_TAIL:])
            report.metric(
                "answer_err",
                checks.answer_error(lambda sql: local.sql(sql).scalar, base, sqls),
                "ratio",
                len(sqls),
            )

            if ctx.trace:
                common.fit_shards_traced(base, tracer, layers)
                with tracer.span("api.store.load") as load:
                    loaded = store.load(common.MODEL_NAME, version=record.version)
                layers.add("api.store.load_s", load.seconds)
                with tracer.span("core.arena.build") as build:
                    ShardArena(loaded)
                layers.add("core.arena.build_ms", build.seconds * 1e3)
                planner = local.planner
                layers.add(
                    "plan.live_shard_frac",
                    live_shard_frac([planner.plan(sql) for sql in served]),
                )

            common.round_append_metric(report, times)
            # The server must pick up the last appended version, with
            # answers matching it in-process.
            _check_reload(port, store, published[-1], tail[WARMUP_TAIL:], report)
        finally:
            if process is not None:
                stop_server(process)


def _check_reload(port, store, record, tail, report) -> None:
    from repro import Explorer
    from repro.serve import ServeClient, ServeError

    local = Explorer.open(store, common.MODEL_NAME, version=record.version)
    with ServeClient(port=port) as client:
        report.attempted += 1
        version = client.reload()
        if version != record.version:
            report.fail(f"reload served v{version}, expected v{record.version}")
            return
        for _, sql in tail[:50]:
            report.attempted += 1
            try:
                problem = checks.same_answer(client.query(sql), local.sql(sql))
            except ServeError as error:
                problem = str(error)
            if problem is not None:
                report.fail(f"after reload {sql}: {problem}")


def knee_rate(ladder) -> float:
    """The highest rate meeting the latency limit.

    Walking up from the lowest rung, the last rung that meets the limit
    (with every rung below it meeting it too) is the floor.  When the
    next rung fails on p99 alone, the crossing is interpolated linearly
    in p99 between the two, so the figure moves with the server instead
    of jumping a whole rung; when it fails otherwise (errors, a growing
    backlog), the floor stands.  0 when the lowest rung already fails.
    """
    rows = sorted(ladder, key=lambda row: row["rate"])
    floor = None
    for row in rows:
        if not row["meets_slo"]:
            if floor is None:
                return 0.0
            p99_only = row["errors"] == 0 and row["backlog_growth_ms"] <= SLO_MS / 2
            if not p99_only or row["p99_ms"] <= floor["p99_ms"]:
                return float(floor["rate"])
            share = (SLO_MS - floor["p99_ms"]) / (row["p99_ms"] - floor["p99_ms"])
            return floor["rate"] + share * (row["rate"] - floor["rate"])
        floor = row
    return float(floor["rate"])


def _reference_row(chunks) -> dict:
    """The reference chunks as one rung: the fastest chunk's p50, the
    pooled p99, server deltas summed."""
    latencies = [x for chunk in chunks for x in chunk["latencies"]]
    row = {
        "rate": REFERENCE_RATE,
        "p50_ms": common.fastest([chunk["p50_ms"] for chunk in chunks]),
        "p99_ms": common.percentile(latencies, 99) * 1e3,
        "lag_p99_ms": common.median([chunk["lag_p99_ms"] for chunk in chunks]),
        "backlog_growth_ms": max(chunk["backlog_growth_ms"] for chunk in chunks),
        "errors": sum(chunk["errors"] for chunk in chunks),
        "meets_slo": all(chunk["meets_slo"] for chunk in chunks),
        "latencies": latencies,
        "rtts": [x for chunk in chunks for x in chunk["rtts"]],
        "server": {
            key: sum(chunk["server"][key] for chunk in chunks)
            for key in chunks[0]["server"]
        },
    }
    return row


def _ladder_metrics(report, layers, ladder) -> None:
    reference = _reference_row(
        [row for row in ladder if row["rate"] == REFERENCE_RATE]
    )
    others = [row for row in ladder if row["rate"] != REFERENCE_RATE]
    n = len(reference["latencies"])
    report.metric("query_p50_ms", reference["p50_ms"], "ms", n)
    report.info["query_p50_ms_by_round"] = [
        round(row["p50_ms"], 4) for row in ladder if row["rate"] == REFERENCE_RATE
    ]
    layers.add("query_p99_ms", reference["p99_ms"])
    layers.add("query_qps", max(row["completed_qps"] for row in others))
    layers.add("serve.max_qps_at_slo", knee_rate(others + [reference]))
    report.info["ladder"] = [
        {k: v for k, v in row.items() if k not in ("latencies", "rtts", "server")}
        | {"server": row["server"]}
        for row in ladder
    ]
    layers.add("loadgen.lag_p99_ms", reference["lag_p99_ms"])
    server = reference["server"]
    requests = max(server["requests"], 1)
    stage_sum = 0.0
    for stage in (
        "parse", "canonicalize", "route", "cache_lookup",
        "coalesce_wait", "evaluate", "encode",
    ):
        per_request = server[f"stage.{stage}"] / requests * 1e6
        stage_sum += per_request
        layers.add(f"serve.stage.{stage}_us", per_request)
    request_us = server["request_seconds"] / requests * 1e6
    rtt_us = sum(reference["rtts"]) / max(len(reference["rtts"]), 1) * 1e6
    socket_us = rtt_us - request_us
    layers.add("serve.request_us", request_us)
    layers.add("serve.socket_us", socket_us)
    layers.add("trace.query_us", rtt_us)
    layers.add("trace.attributed_frac", (stage_sum + socket_us) / rtt_us)
    lookups = server["repro_cache_hits_total"] + server["repro_cache_misses_total"]
    layers.add(
        "serve.cache.hit_rate",
        server["repro_cache_hits_total"] / lookups if lookups else 0.0,
    )
    flushes = server["repro_coalescer_flushes_total"]
    layers.add(
        "serve.coalescer.batch_mean",
        server["repro_coalescer_submitted_total"] / flushes if flushes else 0.0,
    )
    layers.add(
        "serve.admission.rejected",
        sum(row["server"]["repro_admission_rejected_total"] for row in ladder),
    )
    for key in ("repro_cache_hits_total", "repro_cache_misses_total",
                "repro_coalescer_submitted_total", "repro_coalescer_flushes_total"):
        report.counters[f"reference_rung.{key}"] = server[key]
    report.counters["reference_rung.requests"] = server["requests"]
