"""The in-process query path: a closed loop over ``Explorer.sql``.

Untraced, each query is timed around ``Explorer.sql`` and nothing else.
Traced, the session's planner methods are wrapped so each query yields
a ``query`` span with ``parse`` (``Planner.parse``), ``canonicalize``
(``Planner.normalize``), ``route`` (``Planner.plan``) and
``kernel.<op>`` (``Planner.execute``) children.  What the root keeps as
self time is the Explorer's own work: cache lookups and keys.
"""

from __future__ import annotations

import time

from checks import check_answer

KERNEL_OPS = ("count", "group_by", "sum")


def kernel_op(plan) -> str:
    query = plan.query
    if query.group_by:
        return "group_by"
    if query.aggregate.upper() == "SUM":
        return "sum"
    return "count"


class QueryPath:
    def __init__(self, tracer, report, total: float):
        self.tracer = tracer
        self.report = report
        self.total = total
        self.plans: list = []

    def instrument(self, explorer):
        """Wrap the session planner's public methods; returns a function
        that removes the wrappers."""
        tracer, planner = self.tracer, explorer.planner
        plans = self.plans

        def execute_name(plan):
            plans.append(plan)
            return "kernel." + kernel_op(plan)

        restores = [
            tracer.wrap(planner, "parse", "parse"),
            tracer.wrap(planner, "normalize", "canonicalize"),
            tracer.wrap(planner, "plan", "route"),
            tracer.wrap(planner, "execute", execute_name),
        ]

        def restore():
            for undo in restores:
                undo()

        return restore

    def run(self, explorer, items, *, deadline=None, traced=False, op_base=0):
        """Run ``(shape, sql)`` items until they end or ``deadline``
        passes; returns per-query latencies in seconds."""
        latencies = []
        report = self.report
        span = self.tracer.span
        for index, (_, sql) in enumerate(items):
            report.attempted += 1
            began = time.perf_counter()
            try:
                if traced:
                    with span("query", op=op_base + index):
                        result = explorer.sql(sql)
                else:
                    result = explorer.sql(sql)
            except Exception as error:  # counted, never fatal
                report.fail(f"{sql}: {type(error).__name__}: {error}")
                result = None
            ended = time.perf_counter()
            latencies.append(ended - began)
            if result is not None:
                problem = check_answer(result, self.total)
                if problem is not None:
                    report.fail(f"{sql}: {problem}")
            if deadline is not None and ended >= deadline:
                break
        return latencies


def fold_query_spans(tracer, since: int, layers) -> None:
    """Per-query layer times (µs) from the spans recorded since
    ``since``, plus how much of the traced query time they account for."""
    self_times = tracer.self_times(since)
    queries = tracer.durations("query", since)
    if not queries:
        return
    count = len(queries)
    for span_name, metric in (
        ("parse", "query.parse_us"),
        ("canonicalize", "plan.canonicalize_us"),
        ("route", "plan.route_us"),
    ):
        layers.add(metric, self_times.get(span_name, 0.0) / count * 1e6)
    kernel_total = 0.0
    for op in KERNEL_OPS:
        spans = tracer.durations("kernel." + op, since)
        op_self = self_times.get("kernel." + op, 0.0)
        kernel_total += op_self
        layers.add(
            "core.kernel_us." + op, op_self / len(spans) * 1e6 if spans else 0.0
        )
        layers.add("core.kernel_calls." + op, len(spans))
    traced_total = sum(queries)
    attributed = kernel_total + sum(
        self_times.get(name, 0.0) for name in ("parse", "canonicalize", "route")
    )
    layers.add("trace.query_us", traced_total / count * 1e6)
    layers.add("trace.attributed_frac", attributed / traced_total)


def live_shard_frac(plans) -> float:
    """Mean share of shards a query touched (1.0 for an unsharded model)."""
    fractions = []
    for plan in plans:
        if plan.route.target != "sharded":
            fractions.append(1.0)
            continue
        detail = plan.route.detail
        live = len(detail["live_shards"])
        fractions.append(live / (live + len(detail["pruned_shards"])))
    return sum(fractions) / len(fractions) if fractions else 0.0


def cache_layers(explorer, queries: int, layers, counters) -> None:
    """Hit rates of the session and model caches, with their bases.

    Explorer rates use *queries issued* as the base: a cold
    ``Explorer.execute`` looks the result cache up twice (first lookup
    and the leader's re-check), so hits over lookups would halve the
    miss side.  Model cache rates use their own lookups as the base.
    The raw counters go to the report.
    """
    info = explorer.cache_info()
    for kind, metric in (
        ("asts", "api.explorer.ast_hit_rate"),
        ("predicates", "api.explorer.predicate_hit_rate"),
        ("results", "api.explorer.result_hit_rate"),
    ):
        counters[f"explorer.{kind}.hits"] = info[kind]["hits"]
        counters[f"explorer.{kind}.misses"] = info[kind]["misses"]
        layers.add(metric, info[kind]["hits"] / queries if queries else 0.0)
    counters["explorer.queries_issued"] = queries
    summary = explorer.summary
    shards = getattr(summary, "shards", None) or [summary]
    hits = sum(shard.engine.cache_hits for shard in shards)
    misses = sum(shard.engine.cache_misses for shard in shards)
    counters["inference.cache_hits"] = hits
    counters["inference.cache_misses"] = misses
    layers.add(
        "core.inference.cache_hit_rate",
        hits / (hits + misses) if hits + misses else 0.0,
    )
    arena_hits = arena_misses = 0
    if hasattr(summary, "arena"):
        stats = summary.arena.stats()
        arena_hits, arena_misses = stats["cache_hits"], stats["cache_misses"]
    counters["arena.cache_hits"] = arena_hits
    counters["arena.cache_misses"] = arena_misses
    layers.add(
        "core.arena.cache_hit_rate",
        arena_hits / (arena_hits + arena_misses)
        if arena_hits + arena_misses
        else 0.0,
    )
