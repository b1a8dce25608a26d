#!/usr/bin/env python3
"""Repository benchmark: the explore and serve workloads.

Run from the repository root::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` runs the same workload with spans
recorded around the public calls into each layer and reports the
per-layer metrics (spans are written to ``.perfbench/traces/``).  Both
print a human-readable report, one ``report:`` JSON line with the box,
the inputs and the raw counters, and as the last line the result
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every operation succeeded and every answer check
passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads (the server process and the
# fit's worker processes inherit it).  OpenBLAS's default pool spins a
# second thread that doubles the CPU a run uses on a 2-core box and ties
# every matrix product to the slower of the two cores.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("explore", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # Turn SIGTERM into an exception so every ``finally`` runs: servers
    # stop and scratch directories go away.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads(spec_path.read_text())

    import common
    from spans import Tracer

    module = __import__(args.workload)
    ctx = argparse.Namespace(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
    )
    report = common.Report(args.workload, args.seed, args.seconds, ctx.trace)
    tracer = Tracer(ctx.trace)
    layers = common.Layers()
    module.run(ctx, report, tracer, layers)

    failed_frac = report.failed / max(report.attempted, 1)
    layers.add("ops_failed_frac", failed_frac)
    if ctx.trace:
        path = common.trace_dir() / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(path)
        report.info["trace_file"] = str(path.relative_to(ROOT))

    wanted = spec["per_layer"] if ctx.trace else spec["end_to_end"]
    metrics = {}
    print(f"== {args.workload} seed={args.seed} trace={args.trace}")
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if ctx.trace:
            samples = layers.samples.get(name, [])
            value = layers.mean(name)
            note = f"n={len(samples)}" if samples else "not exercised here"
        else:
            measured = report.metrics.get(name)
            if measured is None:
                print(f"error: workload did not measure {name}", file=sys.stderr)
                return 1
            value = measured["value"]
            note = f"n={measured['samples']}"
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<34} {value:>14.6g} {unit:<6} ({note})")
    if not ctx.trace:
        for name, values in sorted(layers.samples.items()):
            print(f"  ({name} {sum(values) / len(values):.6g}, per-layer)")
    print(
        f"  operations: {report.attempted} attempted, {report.failed} failed"
        f" (ops_failed_frac={failed_frac:.6g})"
    )
    for message in report.check_failures:
        print(f"  FAILED: {message}")
    detail = {
        "info": report.info,
        "counters": report.counters,
        "end_to_end": report.metrics,
        "layers": {
            name: {"mean": layers.mean(name), "samples": len(values)}
            for name, values in sorted(layers.samples.items())
        },
    }
    print("report: " + json.dumps(detail, sort_keys=True))
    correct = report.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
