"""One workload process: set up, print READY, run timed operations, report.

Started by run.py with the BLAS thread count pinned in its environment;
not meant to be run by hand.  The last line of its standard output is one
JSON object that run.py reads.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --seconds S --workdir DIR [--size full|toy] [--experiment-threads T]

MODE is `setup` (exit after READY), `measure` (untraced operations only) or
`trace` (set-up traced, then untraced and traced operations alternating).
"""

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer

MIN_OPS = 3


def run_ops(workload, workdir, seconds, tracer=None):
    """Closed loop, one client: start the next operation when the last one
    ends, until the next would likely end past `seconds` (and at least
    MIN_OPS have run).  With a tracer, every second operation is traced, so
    traced and untraced operations share the same stretch of time."""
    ops = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        out = Path(workdir) / f"op{len(ops)}"
        out.mkdir(parents=True)
        with traced_calls(tracer) if traced else contextlib.nullcontext():
            op = tracer.span("op", workload.op) if traced else workload.op
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                outcome = op(out)
                error = None
            except workloads.CheckFailed as err:
                outcome, error = None, f"check failed: {err}"
            except Exception:                   # every failure is counted
                outcome, error = None, traceback.format_exc()
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        ops.append({"wall_s": wall, "cpu_s": cpu, "traced": traced,
                    "outcome": outcome, "error": error})
        shutil.rmtree(out)
        elapsed = time.perf_counter() - start
        typical = statistics.median(o["wall_s"] for o in ops)
        enough = len(ops) >= (MIN_OPS if tracer is None else 2 * MIN_OPS)
        if enough and elapsed + typical > seconds:
            return ops


@contextlib.contextmanager
def traced_calls(tracer):
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def check_repeats(ops):
    """Same seed, same inputs: every operation must give the first one's
    estimate hash.  A mismatch fails the operation that differs."""
    ref = next((o["outcome"] for o in ops if o["outcome"]), None)
    for o in ops:
        if o["outcome"] and o["outcome"]["hash"] != ref["hash"]:
            o["error"] = "estimate hash differs from the first operation"
            o["outcome"] = None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full")
    parser.add_argument("--experiment-threads", type=int, default=None)
    args = parser.parse_args()

    workload = workloads.make(args.workload, args.size,
                              args.experiment_threads)
    report = {}
    if args.mode == "trace":
        with traced_calls(Tracer()) as tracer:
            workload.setup(args.seed, args.workdir)
        report["setup_layers"] = tracer.layer_totals()
    else:
        workload.setup(args.seed, args.workdir)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = Tracer() if args.mode == "trace" else None
    ops = run_ops(workload, args.workdir, args.seconds, tracer)
    check_repeats(ops)
    if tracer is not None:
        report["layers"] = tracer.layer_totals()
        report["counters"] = dict(tracer.counters)
        report["spans"] = tracer.dump()
    report["ops"] = ops
    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
