"""Self-test of the benchmark at toy sizes (about a minute):

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced and checks that the
result is correct and carries every declared metric with its declared unit,
each a finite number, and no end-to-end metric equal to 0.  Then checks
that one seed gives the same batch and estimate in two processes and that
two seeds give different batches.  Exits 0 when every check passes.
"""

import argparse
import math
import shutil
import sys
import tempfile
from pathlib import Path

import run as bench


def _args(workload, seed=0, trace=0):
    return argparse.Namespace(workload=workload, seed=seed, seconds=1.0,
                              trace=trace, size="toy")


def check_metrics(problems):
    e2e_units, layer_units, names = bench.load_declared()
    for name in names:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            result, _ = bench.run(_args(name, trace=trace))
            where = f"{name} --trace {trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                problems.append(f"{where}: metrics/units {got} != {units}")
            for key, entry in result["metrics"].items():
                value = entry["value"]
                if not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{where}: {key} = {value!r}")
                elif trace == 0 and value == 0:
                    problems.append(f"{where}: {key} is 0")
            print(f"checked {where}", flush=True)


def check_seeds(problems):
    scratch = bench.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        outcomes = []
        for i, seed in enumerate((0, 0, 1)):
            _, report = bench.run_worker(_args("pipeline_default", seed),
                                         workdir / f"w{i}", "measure")
            outcomes.append(report["ops"][0]["outcome"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    first, again, other = outcomes
    if first["batch_hash"] != again["batch_hash"] \
            or first["hash"] != again["hash"]:
        problems.append("seed 0 gave different outputs in two processes")
    if first["batch_hash"] == other["batch_hash"]:
        problems.append("seeds 0 and 1 gave the same batch")
    print("checked seeds", flush=True)


def main():
    problems = []
    try:
        check_metrics(problems)
        check_seeds(problems)
    except bench.BenchError as err:
        problems.append(str(err))
    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
