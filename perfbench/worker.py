"""One benchmark process: set up a workload, run passes, print one JSON line.

Started by run.py with the thread-pinning variables already in its
environment, so numpy's thread pools are sized before numpy is imported.
With --setup-only it stops after set-up and reports when set-up ended
(CLOCK_MONOTONIC, comparable with the parent's clock).

Passes run in a closed loop with one caller: the next pass starts when the
previous one ends, and no pass starts that the median pass would carry past
--seconds.  With --trace 1 the first half of the time runs untraced passes
and the second half traced ones, so the difference of their medians is the
tracing overhead.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from workloads import FIGURE_UNITS, WORKLOADS, digest

STATE_DIR = Path(".perfbench")


def run_passes(run_pass, state, tmp, seconds, tracer=None):
    """Closed loop of passes; under a tracer each pass gets a root span.

    Returns the pass durations, the pass results and the root spans.
    """
    durations, results, roots = [], [], []
    begin = time.perf_counter()
    while True:
        gc.collect()  # keep one pass's garbage out of the next pass and the RSS peak
        with tracer.span("pass") if tracer else contextlib.nullcontext() as root:
            t0 = time.perf_counter()
            results.append(digest(run_pass(state, tmp)))
            durations.append(time.perf_counter() - t0)
        roots.append(root)
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(durations) > seconds:
            return durations, results, roots


def median_metrics(samples):
    """Per-metric median over passes of {name: (value, unit)} dicts."""
    return {name: (statistics.median(s[name][0] for s in samples), unit)
            for name, (_, unit) in samples[0].items()}


def summarize(durations, results):
    digests = [r.digest for r in results]
    errors = sorted({e for r in results for e in r.errors})
    figures = {}
    for key in FIGURE_UNITS:
        values = [r.figures[key] for r in results if key in r.figures]
        if values:
            figures[key] = statistics.median(values)
    return {
        "passes": len(results),
        "solve_s": statistics.median(durations),
        "pass_s": durations,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "correct": all(r.correct for r in results),
        "errors": errors[:10],
        "digest": digests[0],
        "digest_stable": len(set(digests)) == 1,
        "figures": figures,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup, run_pass = WORKLOADS[args.workload]
    tmp = STATE_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if not args.trace:
            state = setup(args.seed, tmp)
            setup_done = time.monotonic()
            if args.setup_only:
                print(json.dumps({"setup_done": setup_done}))
                return 0
            durations, results, _ = run_passes(run_pass, state, tmp, args.seconds)
            report = summarize(durations, results)
            report["setup_done"] = setup_done
        else:
            report = traced_run(args, setup, run_pass, tmp)
        report["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(report))
    return 0


def traced_run(args, setup, run_pass, tmp):
    from tracing import Tracer, layer_metrics, setup_metrics, subtree

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup") as setup_root:
            state = setup(args.seed, tmp)
    finally:
        tracer.uninstall()
    plain, _, _ = run_passes(run_pass, state, tmp, args.seconds / 2)

    tracer.install()
    try:
        durations, results, roots = run_passes(run_pass, state, tmp,
                                               args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    report = summarize(durations, results)

    pass_spans = [subtree(tracer.spans, r) for r in roots]
    per_layer = median_metrics([layer_metrics(spans) for spans in pass_spans])
    per_layer.update(setup_metrics(subtree(tracer.spans, setup_root)))
    for key, unit in FIGURE_UNITS.items():
        per_layer[key] = (report["figures"].get(key, 0.0), unit)
    per_layer["fail_ratio"] = (report["failed"] / report["attempted"], "ratio")
    per_layer["trace.solve_s"] = (report["solve_s"], "s")
    per_layer["trace.overhead_s"] = (
        report["solve_s"] - statistics.median(plain), "s")
    report["per_layer"] = {k: {"value": v, "unit": u}
                           for k, (v, u) in sorted(per_layer.items())}
    tracer.dump(STATE_DIR / f"trace-{args.workload}.json")
    return report


if __name__ == "__main__":
    sys.exit(main())
