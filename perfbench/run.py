"""tiltrec benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  Every workload process is started with the
BLAS thread count pinned to 1 in its environment, because tiltrec's output
bits depend on it.  Workloads, metrics and what each metric should move are
described in perfbench/README.md.

--trace 0 prints the end-to-end metrics.  set-up is timed in SETUP_REPEATS
separate processes (start of the interpreter to READY) and reported as the
median; operations run in a closed loop with one client for --seconds.

--trace 1 prints the per-layer metrics: one process traces its set-up,
then alternates untraced and traced operations for --seconds; then two
one-off comparisons run in further processes (BLAS threads = nproc
against 1 on every workload; tiltrec --threads 1 against 2 on
experiment_wide).  The spans of the traced operations are written under
.perfbench_out/.

The last line of standard output is the result object; the lines before it
record the environment and the per-operation samples.  Exit status is 0
only when a result was printed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 150.0

# quality figures of methods a workload does not run are reported as -1
QUALITY = ["re_admm", "tv_admm", "objective_admm", "re_em", "tv_em",
           "re_hybrid", "tv_hybrid"]
NOT_RUN = -1.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------- processes

def worker_env(blas_threads=BLAS_THREADS):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, workdir, mode, seconds=0.0, blas_threads=BLAS_THREADS,
               experiment_threads=None):
    """Start one worker and wait for it.  Returns (setup seconds measured
    from process start to READY, parsed report or None)."""
    Path(workdir).mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", repr(seconds),
           "--workdir", str(workdir), "--size", args.size]
    if experiment_threads is not None:
        cmd += ["--experiment-threads", str(experiment_threads)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=worker_env(blas_threads), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S:.0f}s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{mode} worker failed (exit {proc.returncode}) "
                         f"before reporting")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if mode != "setup" else None)


# ---------------------------------------------------------------- environment

def environment():
    import numpy
    import scipy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except OSError:
        git_sha = None
    src_hash, src_lines = hashlib.sha256(), 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        src_hash.update(path.relative_to(ROOT).as_posix().encode() + data)
        src_lines += data.count(b"\n")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": git_sha, "src_sha256": src_hash.hexdigest(),
            "src_lines": src_lines, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": BLAS_THREADS}}


# ---------------------------------------------------------------- metrics

def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(args, workdir):
    setups = []
    for i in range(SETUP_REPEATS - 1):
        setups.append(run_worker(args, workdir / f"setup{i}", "setup")[0])
    setup_s, report = run_worker(args, workdir / "measure", "measure",
                                 args.seconds)
    setups.append(setup_s)
    ops = report["ops"]
    metrics = {"setup_s": _median(setups),
               "wall_s": _median([o["wall_s"] for o in ops]),
               "cpu_s": _median([o["cpu_s"] for o in ops]),
               "peak_rss_mb": report["peak_rss_mb"]}
    detail = {"setup_samples_s": setups, "ops": ops}
    return metrics, ops, detail


def per_layer(args, workdir, nproc, declared):
    half = args.seconds / 2
    _, report = run_worker(args, workdir / "trace", "trace", args.seconds)
    ops = report["ops"]
    traced = [o for o in ops if o["traced"]]
    layers, counters = report["layers"], report["counters"]
    n = len(traced)
    wall = _median([o["wall_s"] for o in ops if not o["traced"]])
    traced_wall = _median([o["wall_s"] for o in traced])

    def ratio(num, den):
        return num / den if den else 0.0

    def span_total(name, field):
        return layers.get(name, {}).get(field, 0)

    # "<layer>.<s|self_s|calls>" per traced operation; "setup.<layer>.s"
    # from the traced set-up
    m = {}
    for metric in declared:
        base, _, field = metric.rpartition(".")
        if field not in ("s", "self_s", "calls"):
            continue
        if base.startswith("setup."):
            m[metric] = report["setup_layers"].get(
                base[len("setup."):], {}).get(field, 0)
        else:
            m[metric] = span_total(base, field) / n

    admm_iters = counters.get("admm.iters", 0)
    m["admm.iters"] = admm_iters / n
    m["admm.s_per_iter"] = ratio(span_total("admm.run_admm", "s"), admm_iters)
    m["admm.converged_frac"] = ratio(counters.get("admm.converged", 0),
                                     counters.get("admm.runs", 0))
    em_iters = counters.get("em.iters", 0)
    m["em.iters"] = em_iters / n
    m["em.s_per_iter"] = ratio(span_total("em.run_em", "self_s")
                               + span_total("em.m_step", "s"), em_iters)
    m["spectral.blockwise_mean_outer.gflop_per_s"] = ratio(
        counters.get("spectral.blockwise_mean_outer.flop", 0) / 1e9,
        span_total("spectral.blockwise_mean_outer", "s"))
    m["cli.io.bytes_read"] = counters.get("cli.io.bytes_read", 0) / n
    m["cli.io.bytes_written"] = counters.get("cli.io.bytes_written", 0) / n
    quality = next((o["outcome"]["quality"] for o in traced if o["outcome"]),
                   {})
    for name in QUALITY:
        m[f"quality.{name}"] = quality.get(name, NOT_RUN)
    m["trace.overhead_frac"] = ratio(traced_wall, wall) - 1.0
    m["trace.unattributed_frac"] = ratio(span_total("op", "self_s"),
                                         span_total("op", "s"))

    # one-off comparisons, reported but not gated
    _, wide = run_worker(args, workdir / "blas", "measure", half,
                         blas_threads=nproc)
    m["blas.threads_speedup"] = ratio(wall, _median(
        [o["wall_s"] for o in wide["ops"]]))
    m["cli.experiment.threads_speedup"] = 0.0
    m["cli.experiment.threads_cpu_delta_s"] = 0.0
    m["cli.experiment.threads_rss_delta_mb"] = 0.0
    extra_ops = wide["ops"]
    if args.workload == "experiment_wide":
        _, one = run_worker(args, workdir / "threads1", "measure", half,
                            experiment_threads=1)
        m["cli.experiment.threads_speedup"] = ratio(
            _median([o["wall_s"] for o in one["ops"]]), wall)
        m["cli.experiment.threads_cpu_delta_s"] = (
            _median([o["cpu_s"] for o in ops if not o["traced"]])
            - _median([o["cpu_s"] for o in one["ops"]]))
        m["cli.experiment.threads_rss_delta_mb"] = (
            report["peak_rss_mb"] - one["peak_rss_mb"])
        extra_ops = extra_ops + one["ops"]

    _check_project_clean(traced, m)
    detail = {"spans": report["spans"], "counters": counters}
    return m, ops + extra_ops, detail


def _check_project_clean(traced, m):
    """pipeline_default simulates every drawn angle at every tilt twice
    (variance probe, then the noisy batch): 2 x angles x (2K+1) calls."""
    expected = [o["outcome"].get("expected_project_clean")
                for o in traced if o["outcome"]]
    if expected and expected[0] is not None \
            and m["sim.project_clean.calls"] != _median(expected):
        for o in traced:
            o["error"] = (f"sim.project_clean.calls = "
                          f"{m['sim.project_clean.calls']}, expected "
                          f"{expected[0]}")


# ---------------------------------------------------------------- main

def load_declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def run(args):
    """Run one workload; returns (result object, lines of detail)."""
    if not (ROOT / "src" / "tiltrec" / "__init__.py").is_file():
        raise BenchError(f"no tiltrec sources under {ROOT / 'src'}")
    e2e_units, layer_units, names = load_declared()
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}")
    nproc = len(os.sched_getaffinity(0))
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.trace:
            values, ops, detail = per_layer(args, workdir, nproc,
                                            layer_units)
            units = layer_units
        else:
            values, ops, detail = end_to_end(args, workdir)
            units = e2e_units
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not computed: {missing}")

    if args.trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        with open(out / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump(detail, fh)
    quality = next((o["outcome"]["quality"] for o in ops if o["outcome"]), {})
    info = [{"environment": environment()},
            {"workload": args.workload, "seed": args.seed, "quality": quality,
             "samples": [{k: o[k] for k in ("wall_s", "cpu_s", "traced",
                                            "error")} for o in ops],
             "setup_samples_s": detail.get("setup_samples_s")}]
    failed = sum(1 for o in ops if o["error"])
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.size = "full"
    try:
        result, info = run(args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    for line in info:
        print(json.dumps(line))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
