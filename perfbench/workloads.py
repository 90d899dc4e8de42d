"""The four benchmark workloads and the checks made on every operation.

Each workload builds its inputs from the seed in `setup` and then runs one
operation per `op` call in a fresh output directory.  An operation returns
its quality figures and a hash of its estimate; it raises `CheckFailed`
when an output is wrong.  The program is driven the way a user drives it:
through ``tiltrec.cli.main`` where a command exists, through the public
solver API for the moment-only workload.

Sizes: `FULL` is what the benchmark measures; `TOY` only exercises the same
code paths quickly, for the self-test.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np

from tiltrec import admm, basis, metrics, moments, sim
from tiltrec.cli import main as cli_main

DEG = math.pi / 180.0


class CheckFailed(Exception):
    """An operation finished but one of its outputs is wrong."""


# ---------------------------------------------------------------- sizes

# The default CLI instance (c=0.3, K=6, alpha=1.5 deg, L=32, n_theta=24)
# with the basis halved to R=8 so one simulate -> reconstruct -> evaluate
# operation fits several times into a run.
_PIPELINE = {"phantom": {"R": 8.0},
             "acquisition": {"N": 4000, "target_snr_db": 6.6},
             "solver": {"admm_iters": 300}}
# The check-5 geometry of the acceptance suite (R=8, L=128, alpha=7.5 deg).
# EM budgets are set below the iteration count at which EM meets its
# tolerance, so every seed does the same number of iterations.
_CHECK5 = {"phantom": {"R": 8.0},
           "distribution": {"n_theta": 24},
           "acquisition": {"K": 6, "alpha_deg": 7.5, "L": 128},
           "solver": {"lambda2": 5.0}}

FULL = {
    "pipeline_default": {"config": _PIPELINE},
    "admm_narrow": {"R": 16.0, "n_xi": 64, "max_iter": 200},
    "experiment_wide": {
        "config": {**_CHECK5,
                   "acquisition": {**_CHECK5["acquisition"], "N": 1000},
                   "solver": {**_CHECK5["solver"], "n_xi": 32,
                              "admm_iters": 500, "hybrid_admm_iters": 500,
                              "em_iters": 10, "hybrid_em_iters": 5},
                   "experiment": {"snrs_db": [6.6, -4.4], "trials": 1,
                                  "methods": ["admm", "em", "admm+em"]}},
        "threads": 2},
    "em_records_large": {
        "config": {**_CHECK5,
                   "acquisition": {**_CHECK5["acquisition"], "N": 6000,
                                   "target_snr_db": -4.4},
                   "solver": {**_CHECK5["solver"], "em_iters": 6}}},
}

_TOY_ACQ = {"N": 60, "K": 2, "alpha_deg": 3.8, "L": 16}
_TOY_SOLVER = {"admm_iters": 5, "em_iters": 3, "hybrid_admm_iters": 3,
               "hybrid_em_iters": 2, "n_xi": 16}
TOY = {
    "pipeline_default": {"config": {
        "phantom": {"R": 4.0}, "distribution": {"n_theta": 8},
        "acquisition": {**_TOY_ACQ, "target_snr_db": 6.6},
        "solver": _TOY_SOLVER}},
    "admm_narrow": {"R": 4.0, "n_xi": 16, "max_iter": 5},
    "experiment_wide": {
        "config": {"phantom": {"R": 4.0}, "distribution": {"n_theta": 8},
                   "acquisition": _TOY_ACQ, "solver": _TOY_SOLVER,
                   "experiment": {"snrs_db": [6.6, -4.4], "trials": 1,
                                  "methods": ["admm", "em", "admm+em"]}},
        "threads": 2},
    "em_records_large": {"config": {
        "phantom": {"R": 4.0}, "distribution": {"n_theta": 8},
        "acquisition": {**_TOY_ACQ, "target_snr_db": -4.4},
        "solver": _TOY_SOLVER}},
}
SIZES = {"full": FULL, "toy": TOY}


# ---------------------------------------------------------------- helpers

def _run_cli(argv):
    """Run one tiltrec command in process; its printout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli_main([str(a) for a in argv])
    if code != 0:
        raise CheckFailed(f"tiltrec {argv[-1] if argv else ''} exited "
                          f"{code}: {err.getvalue().strip()}")


def _write_config(workdir, seed, overrides):
    cfg = json.loads(json.dumps(overrides))
    cfg["seed"] = int(seed)
    path = Path(workdir) / "config.json"
    path.write_text(json.dumps(cfg, sort_keys=True))
    return path


def _payload_hash(path):
    """sha256 of a header-line file's binary payload (the header carries a
    wall-clock runtime, so it is left out)."""
    with open(path, "rb") as fh:
        fh.readline()
        return hashlib.sha256(fh.read()).hexdigest()


def check_batch_file(path):
    """The batch file's size must match what its header promises."""
    with open(path, "rb") as fh:
        line = fh.readline()
    header = json.loads(line.decode("ascii"))
    n_values = header["N"] * (2 * header["K"] + 1) * header["L"]
    if header["hidden_angles"]:
        n_values += header["N"]
    expected = len(line) + 8 * n_values
    actual = Path(path).stat().st_size
    if actual != expected:
        raise CheckFailed(f"{path}: {actual} bytes, header implies {expected}")
    return header


def _manifest_extra(out_dir, command):
    with open(Path(out_dir) / f"manifest_{command}.json") as fh:
        return json.load(fh).get("extra", {})


def _last_objective(history_csv):
    with open(history_csv) as fh:
        rows = list(csv.DictReader(fh))
    return float(rows[-1]["objective"])


def _require_finite(values):
    bad = {k: v for k, v in values.items() if not math.isfinite(v)}
    if bad:
        raise CheckFailed(f"non-finite outputs: {bad}")
    return values


# ---------------------------------------------------------------- workloads

class Workload:
    """`size` is this workload's entry of FULL or TOY."""

    def __init__(self, size):
        self.size = size


class PipelineDefault(Workload):
    """simulate -> reconstruct --method admm --truth -> evaluate, via the CLI."""

    def setup(self, seed, workdir):
        self.cfg = _write_config(workdir, seed, self.size["config"])

    def op(self, out):
        sim_dir, rec, ev = out / "sim", out / "rec", out / "eval"
        _run_cli(["--config", self.cfg, "--out", sim_dir, "simulate"])
        header = check_batch_file(sim_dir / "batch.dat")
        _run_cli(["--config", self.cfg, "--out", rec, "--method", "admm",
                  "reconstruct", sim_dir / "batch.dat",
                  "--truth", sim_dir / "truth.dat"])
        _run_cli(["--out", ev, "evaluate", sim_dir / "truth.dat",
                  rec / "estimate.dat"])
        extra = _manifest_extra(ev, "evaluate")
        return {
            "quality": _require_finite({
                "re_admm": extra["re"], "tv_admm": extra["tv"],
                "objective_admm": _last_objective(rec / "admm_history.csv")}),
            "hash": _payload_hash(rec / "estimate.dat"),
            "batch_hash": _payload_hash(sim_dir / "batch.dat"),
            "expected_project_clean": 2 * (2 * header["K"] + 1)
            * _distinct_angles(sim_dir / "batch.dat", header),
        }


def _distinct_angles(path, header):
    """Number of distinct hidden angles stored at the end of a batch file."""
    data = np.fromfile(path, dtype="<f8",
                       offset=Path(path).stat().st_size - 8 * header["N"])
    return int(np.unique(data).size)


class AdmmNarrow(Workload):
    """run_admm on the analytic features of the narrow-wedge instance."""

    def setup(self, seed, workdir):
        # module-qualified calls, so the tracer's wrappers are seen
        self.spec = basis.build_basis_spec(0.3, self.size["R"])
        quad = basis.build_quadrature(self.spec.c, self.size["n_xi"])
        alpha = 1.5 * DEG
        self.p = sim.bump_distribution(24, 1.1, 2.5)
        self.truth = sim.random_phantom(self.spec, 1.0, seed=11)
        psi = basis.eval_tilt_matrix(self.spec, quad, 6, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            self.features = moments.population_features(
                self.truth, self.p, psi, quad, 6, alpha)
        self.config = admm.AdmmConfig(lam2=0.5, max_iter=self.size["max_iter"],
                                      seed=int(seed))

    def op(self, out):
        res = admm.run_admm(self.features, self.config, self.spec, 24)
        re, _ = metrics.relative_error(self.truth, res.a, 240)
        tv, _ = metrics.total_variation_dist(self.p, res.p)
        h = hashlib.sha256(np.ascontiguousarray(res.a.values).tobytes())
        h.update(np.ascontiguousarray(res.p.p).tobytes())
        return {"quality": _require_finite({
                    "re_admm": re, "tv_admm": tv,
                    "objective_admm": float(res.history["objective"][-1])}),
                "hash": h.hexdigest()}


class ExperimentWide(Workload):
    """tiltrec --threads T experiment: every method on every (SNR, trial)."""

    def setup(self, seed, workdir):
        self.cfg = _write_config(workdir, seed, self.size["config"])
        exp = self.size["config"]["experiment"]
        self.rows = len(exp["snrs_db"]) * exp["trials"] * len(exp["methods"])

    def op(self, out):
        _run_cli(["--config", self.cfg, "--out", out,
                  "--threads", self.size["threads"], "experiment"])
        with open(out / "trial_reports.csv") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.rows:
            raise CheckFailed(f"{len(rows)} report rows, expected {self.rows}")
        if _manifest_extra(out, "experiment").get("shared_inits") is not True:
            raise CheckFailed("manifest does not record shared_inits: true")
        quality = {}
        for method, key in (("admm", "admm"), ("em", "em"),
                            ("admm+em", "hybrid")):
            cells = [r for r in rows if r["method"] == method]
            quality[f"re_{key}"] = float(np.median([float(r["re"])
                                                    for r in cells]))
            quality[f"tv_{key}"] = float(np.median([float(r["tv"])
                                                    for r in cells]))
        # every column but the wall-clock runtime is deterministic
        h = hashlib.sha256()
        for r in rows:
            r.pop("runtime_s")
            h.update(json.dumps(r, sort_keys=True).encode())
        return {"quality": _require_finite(quality), "hash": h.hexdigest()}


class EmRecordsLarge(Workload):
    """tiltrec --method em reconstruct on one large saved noisy batch."""

    def setup(self, seed, workdir):
        self.cfg = _write_config(workdir, seed, self.size["config"])
        self.sim = Path(workdir) / "sim"
        _run_cli(["--config", self.cfg, "--out", self.sim, "simulate"])
        check_batch_file(self.sim / "batch.dat")

    def op(self, out):
        _run_cli(["--config", self.cfg, "--out", out, "--method", "em",
                  "reconstruct", self.sim / "batch.dat",
                  "--truth", self.sim / "truth.dat"])
        extra = _manifest_extra(out, "reconstruct")
        return {"quality": _require_finite({"re_em": extra["re"],
                                            "tv_em": extra["tv"]}),
                "hash": _payload_hash(out / "estimate.dat")}


WORKLOADS = {
    "pipeline_default": PipelineDefault,
    "admm_narrow": AdmmNarrow,
    "experiment_wide": ExperimentWide,
    "em_records_large": EmRecordsLarge,
}


def make(name, size="full", experiment_threads=None):
    params = dict(SIZES[size][name])
    if experiment_threads is not None:
        params["threads"] = experiment_threads
    return WORKLOADS[name](params)
