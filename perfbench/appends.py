"""Append batches through ``IngestPipeline``, timed from outside.

Untraced, ``append_ms`` is one ``IngestPipeline.append`` call on a
pipeline that publishes to the store: route, delta refit and publish.
Traced, the pipeline has no store and the steps run as separate public
calls — ``IngestPipeline.route``, ``IngestPipeline.append`` and
``SummaryStore.save`` of the refreshed summary — so each is timed on
its own; the refit is the append minus its route.
"""

from __future__ import annotations

import time

from common import ITERATIONS, MODEL_NAME


def pipeline(summary, relation, store, traced: bool):
    from repro.ingest import IngestPipeline

    return IngestPipeline(
        summary,
        relation,
        store=None if traced else store,
        name=MODEL_NAME,
        max_iterations=ITERATIONS,
    )


def append(pipe, batch, store, tracer, layers, traced: bool):
    """Apply one batch; returns ``(seconds, ingest report, store record)``."""
    from repro.ingest import AppendBatch

    batch = AppendBatch.from_relation(pipe.schema, batch)
    if not traced:
        began = time.perf_counter()
        result = pipe.append(batch)
        seconds = time.perf_counter() - began
        record = result.record
    else:
        with tracer.span("append") as whole:
            with tracer.span("ingest.route") as route:
                pipe.route(batch)
            with tracer.span("ingest.refit") as refit:
                result = pipe.append(batch)
            with tracer.span("api.store.save") as save:
                record = store.save(
                    result.summary, MODEL_NAME, lineage=result.lineage
                )
        seconds = whole.seconds
        layers.add("ingest.route_ms", route.seconds * 1e3)
        layers.add("ingest.refit_ms", (refit.seconds - route.seconds) * 1e3)
        layers.add("api.store.save_s", save.seconds)
    refreshed = result.summary
    shards = getattr(refreshed, "shards", None) or [refreshed]
    reports = [shards[index].report for index in result.shards_refit]
    reports = [report for report in reports if report is not None]
    layers.add("ingest.shards_refit", len(result.shards_refit))
    if reports:
        layers.add(
            "core.solver.delta_sweeps",
            sum(report.iterations for report in reports) / len(reports),
        )
        layers.add(
            "core.solver.delta_solve_ms",
            sum(report.seconds for report in reports) * 1e3,
        )
    return seconds, result, record
