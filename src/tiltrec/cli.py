"""Command-line pipeline: simulate -> reconstruct -> evaluate -> experiment.

Every run writes a manifest (config echo plus content hashes of its inputs)
so it can be replayed, and all CSV outputs are byte-deterministic for a
given config and seed except the wall-clock runtime column.

The second moment is formed only when ADMM runs: the shared random start
reads the first moment alone, so an EM-only run never forms it.

simulate writes each record block of its sim.BatchDraw as it is drawn,
so it holds one block and the angle table.  reconstruct streams its batch
file: one pass of sim.BatchFile reads it a record block at a time and
feeds each block to the record reductions the method needs
(moments.MomentSums, em.EmWorkspace), so the command holds one record
block and EM's N x n_a statistics, never the whole payload.  One
helper thread hashes each block for the manifest while they reduce it.
experiment feeds its batches in memory through the same reductions, in
the same blocks, so both routes give the same bits.
"""

import argparse
import contextlib
import copy
import ctypes
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .admm import AdmmConfig, init_admm_state, random_start, run_admm
from .basis import (FBCoeffs, build_basis_spec, build_quadrature,
                    synthesize_image)
from .em import EmConfig, EmWorkspace, run_em
from .errors import ConfigError, SolverError
from .metrics import (joint_alignment, reports_to_csv, score, snr_db,
                      variance_for_snr)
from .moments import MomentSums, empirical_moments, first_moment
from .sim import (BatchDraw, BatchFile, ViewDistribution, build_line_grid,
                  bump_distribution, check_payload_size, generate_batch,
                  random_phantom, read_header_file, reduce_records,
                  save_batch, two_bump_distribution, uniform_distribution)
from .spectral import transform_batch

DEFAULT_CONFIG = {
    "seed": 0,
    "out": "run",
    "phantom": {"c": 0.3, "R": 16.0, "decay": 1.0, "seed": 11, "scale": 1.0},
    "distribution": {"family": "bump", "n_theta": 24, "loc": 1.1,
                     "kappa": 2.5, "loc2": 4.0, "weight": 0.5},
    "acquisition": {"N": 10000, "K": 6, "alpha_deg": 1.5, "L": 32,
                    "sigma2": 0.0, "target_snr_db": None},
    "solver": {"method": "admm", "lambda1": 1.0, "lambda2": 0.5, "rho": 1.0,
               "admm_iters": 500, "em_iters": 100,
               "hybrid_admm_iters": 100, "hybrid_em_iters": 50,
               "n_xi": 64},
    "experiment": {"snrs_db": [6.6, -4.4], "trials": 10,
                   "methods": ["admm", "em", "admm+em"],
                   "success_threshold": 0.3},
}
# the estimate meta fields evaluate reads, with their defaults
_ESTIMATE_META = {"method": "unknown", "snr_db": math.nan, "seed": -1,
                  "runtime_s": 0.0}

# each method's solver stages with their iteration budget keys
_STAGES = {"admm": [("admm", "admm_iters")], "em": [("em", "em_iters")],
           "admm+em": [("admm", "hybrid_admm_iters"),
                       ("em", "hybrid_em_iters")]}
_METHODS = tuple(_STAGES)
# the largest |SNR target| in dB: 10**(dB/10) leaves the float range past
# about 3083 dB, and 300 dB already puts the noise 30 orders from the signal
_SNR_LIMIT_DB = 300


def _deep_merge(base, override, where="config"):
    """base updated from override, which may only hold keys that base has,
    each of base's JSON type (an int passes for a float; a number under a
    finite float default must be finite; a None default takes any value);
    anything else raises a ConfigError naming the key."""
    if not isinstance(override, dict):
        raise ConfigError(f"{where} must be a JSON object")
    out = copy.deepcopy(base)
    for key, val in override.items():
        name = f"{where}.{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {name}")
        default = base[key]
        types = (int, float) if type(default) is float else (type(default),)
        if isinstance(default, dict):
            val = _deep_merge(default, val, name)
        elif default is not None and type(val) not in types:
            raise ConfigError(f"{name} must be {type(default).__name__}, "
                              f"got {json.dumps(val)}")
        elif (type(default) is float and math.isfinite(default)
              and not abs(val) <= sys.float_info.max):
            # json reads NaN, Infinity, 1e400 (inf) and ints past the float
            # range; each of these comparisons is false
            raise ConfigError(f"{name} must be a finite number, "
                              f"got {json.dumps(val)}")
        out[key] = val
    return out


def load_config(path=None, seed=None, out=None, method=None):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            cfg = _deep_merge(cfg, json.load(fh))
    if seed is not None:
        cfg["seed"] = int(seed)
    if out is not None:
        cfg["out"] = out
    if method is not None:
        cfg["solver"]["method"] = method
    for m in [cfg["solver"]["method"], *cfg["experiment"]["methods"]]:
        if m not in _METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {_METHODS}")
    targets = {"acquisition.target_snr_db": cfg["acquisition"]["target_snr_db"],
               **{f"experiment.snrs_db[{i}]": v
                  for i, v in enumerate(cfg["experiment"]["snrs_db"])}}
    for key, v in targets.items():
        if v is not None and (type(v) not in (int, float)
                              or not abs(v) <= _SNR_LIMIT_DB):
            raise ConfigError(
                f"config.{key} must be null or a finite number of dB in "
                f"[-{_SNR_LIMIT_DB}, {_SNR_LIMIT_DB}], got {json.dumps(v)}")
    for key, v in {"seed": cfg["seed"],
                   "phantom.seed": cfg["phantom"]["seed"]}.items():
        if v < 0:   # SeedSequence takes no negative entropy
            raise ConfigError(f"config.{key} must be a non-negative integer, "
                              f"got {v}")
    for key, low in {"experiment.trials": 1, "acquisition.K": 0,
                     "acquisition.N": 1, "acquisition.L": 1,
                     "distribution.n_theta": 1, "solver.n_xi": 1,
                     "solver.lambda1": 0, "solver.lambda2": 0,
                     **{f"solver.{budget}": 1 for stages in _STAGES.values()
                        for _, budget in stages}}.items():
        section, name = key.split(".")
        if cfg[section][name] < low:
            raise ConfigError(f"config.{key} must be >= {low}, got "
                              f"{cfg[section][name]}")
    for key in ("methods", "snrs_db"):   # an empty list writes no rows
        if not cfg["experiment"][key]:
            raise ConfigError(f"config.experiment.{key} must not be empty")
    if cfg["phantom"]["scale"] == 0:   # a zero object has no SNR
        raise ConfigError("config.phantom.scale must be nonzero, got 0")
    if not cfg["solver"]["rho"] > 0:
        raise ConfigError(f"config.solver.rho must be > 0, got "
                          f"{cfg['solver']['rho']}")
    return cfg


def _sha256(path):
    """Kept for perfbench's tracer, which wraps it by name; no command
    hashes a file it has read already."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir, command, cfg, inputs, outputs, extra=None):
    manifest = {
        "command": command,
        "config": cfg,
        "inputs": {str(p): d for p, d in inputs.items()},
        "outputs": [str(p) for p in outputs],
    }
    if extra:
        manifest["extra"] = extra
    path = Path(out_dir) / f"manifest_{command}.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_pgm(path, image):
    """8-bit binary PGM with min/max normalization; returns (lo, hi)."""
    img = np.asarray(image, dtype=float)
    lo, hi = float(img.min()), float(img.max())
    if hi > lo:
        scaled = np.round((img - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(img)
    data = scaled.astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(data.tobytes())
    return lo, hi


def _write_image(path, coeffs):
    """The symmetrized image of coeffs at 2R pixels as a PGM; returns the
    (lo, hi) normalization."""
    return write_pgm(path, synthesize_image(coeffs.symmetrized(),
                                            int(round(2 * coeffs.spec.R))))


def save_coeff_file(path, coeffs, p, meta=None):
    """Shared truth/estimate format: one JSON header line, then the complex
    coefficient payload and the distribution, both little-endian."""
    header = {
        "c": coeffs.spec.c,
        "R": coeffs.spec.R,
        "n_a": coeffs.spec.n_a,
        "n_theta": int(p.n_theta),
        "real_symmetric": bool(coeffs.real_symmetric),
    }
    if meta:
        header["meta"] = meta
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        fh.write(np.ascontiguousarray(coeffs.values, dtype="<c16").tobytes())
        fh.write(np.ascontiguousarray(p.p, dtype="<f8").tobytes())


def load_coeff_file(path):
    """(coefficients, distribution, header meta, sha256 of the file)."""
    header, payload, digest = read_header_file(
        path, {"c": float, "R": float, "n_a": 1, "n_theta": 1,
               "real_symmetric": bool})
    n_a = header["n_a"]
    check_payload_size(path, len(payload), 16 * n_a + 8 * header["n_theta"])
    # k = 0 keeps q_0 > 2cR - 2 functions and, as Bessel zeros interlace,
    # q_k >= q_0 - k, so n_a >= q_0^2: reject a larger c*R before building
    if 2 * header["c"] * header["R"] - 2 > math.sqrt(n_a):
        raise ConfigError(f"{path}: header c*R = "
                          f"{header['c'] * header['R']:.6g} gives a basis "
                          f"of more than n_a = {n_a} functions")
    spec = build_basis_spec(header["c"], header["R"])
    if spec.n_a != n_a:
        raise ConfigError(f"basis rebuilt from {path} has {spec.n_a} "
                          f"functions, header says {n_a}")
    vals = np.frombuffer(payload, dtype="<c16", count=spec.n_a).copy()
    p = np.frombuffer(payload, dtype="<f8", offset=16 * spec.n_a).copy()
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(p))):
        raise ConfigError(f"{path}: payload holds non-finite coefficients "
                          f"or probabilities")
    coeffs = FBCoeffs(values=vals, spec=spec,
                      real_symmetric=header["real_symmetric"])
    try:
        dist = ViewDistribution(p=p, n_theta=header["n_theta"])
    except ConfigError as err:
        raise ConfigError(f"{path}: probability payload: {err}") from None
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ConfigError(f"{path}: header field 'meta' must be a JSON "
                          f"object, got {json.dumps(meta)}")
    return coeffs, dist, meta, digest


def _build_problem(cfg):
    ph = cfg["phantom"]
    spec = build_basis_spec(ph["c"], ph["R"])
    truth = random_phantom(spec, ph["decay"], seed=ph["seed"])
    truth = FBCoeffs(values=ph["scale"] * truth.values, spec=spec,
                     real_symmetric=truth.real_symmetric)
    d = cfg["distribution"]
    family = d["family"]
    if family == "bump":
        p = bump_distribution(d["n_theta"], d["loc"], d["kappa"])
    elif family == "two_bump":
        p = two_bump_distribution(d["n_theta"], d["loc"], d["loc2"],
                                  d["kappa"], d["weight"])
    elif family == "uniform":
        p = uniform_distribution(d["n_theta"])
    else:
        raise ConfigError(f"unknown distribution family {family!r}")
    return spec, truth, p


def _variance(total, square_total, n):
    """E[y^2] - E[y]^2 of n samples from their sum and sum of squares; 0
    within the n*eps rounding of those sums: flat lines."""
    mean_sq = square_total / n
    var = mean_sq - (total / n) ** 2
    return var if var > n * np.finfo(float).eps * mean_sq else 0.0


def _draw_batch(acq, truth, p, grid, quad, seed, targets_db, stream=False):
    """(batches, clean variance) of the seed's draw, one batch per SNR
    target in targets_db.  A batch's noise variance meets its target, or is
    acq["sigma2"] when the target is None.  The batches are in memory
    (generate_batch), or with stream sim.BatchDraws.  The clean variance
    is that of a noiseless BatchDraw of the same seed, from its angle table
    and label counts; a lone noiseless stream is that draw."""
    def draw(kind, sigma2):
        return kind(truth, p, acq["N"], acq["K"],
                    math.radians(acq["alpha_deg"]), sigma2, grid, quad,
                    seed=seed)

    probe = draw(BatchDraw, 0.0)
    clean_var = _variance(*probe.clean_sums)
    if stream and targets_db == [None] and acq["sigma2"] == 0:
        return [probe], clean_var
    del probe   # its substream states, before the noisy draw makes its own
    if clean_var == 0 and set(targets_db) != {None}:
        raise ConfigError(f"flat clean lines at config.acquisition.L = "
                          f"{acq['L']} meet no SNR target {targets_db} dB")
    variances = [float(acq["sigma2"]) if t is None
                 else variance_for_snr(clean_var, t) for t in targets_db]
    if stream:
        return [draw(BatchDraw, s2) for s2 in variances], clean_var
    return draw(generate_batch, variances), clean_var


def cmd_simulate(cfg, out_dir):
    spec, truth, p = _build_problem(cfg)
    acq = cfg["acquisition"]
    [batch], clean_var = _draw_batch(
        acq, truth, p, build_line_grid(acq["L"]),
        build_quadrature(spec.c, cfg["solver"]["n_xi"]), cfg["seed"],
        [acq["target_snr_db"]], stream=True)
    sigma2 = batch.sigma2
    achieved = snr_db(clean_var, sigma2)

    out_dir.mkdir(parents=True, exist_ok=True)
    batch_path = out_dir / "batch.dat"
    truth_path = out_dir / "truth.dat"
    save_batch(batch, batch_path)
    save_coeff_file(truth_path, truth, p,
                    meta={"kind": "truth", "sigma2": sigma2})
    manifest = _write_manifest(
        out_dir, "simulate", cfg, {}, [batch_path, truth_path],
        extra={"sigma2": sigma2, "snr_db": achieved,
               "clean_variance": clean_var})
    print(f"wrote {batch_path} ({batch.N} records), SNR = "
          f"{achieved:.2f} dB, sigma2 = {sigma2:.6g}")
    return [batch_path, truth_path, manifest]


def history_to_csv(columns, path):
    """One header line of column names, then one row per entry (a solver
    iteration, an experiment SNR); columns maps each name to its values,
    written with %.17g."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _uses(methods, solver):
    """Whether one of methods has a solver stage."""
    return any(s == solver for m in methods for s, _ in _STAGES[m])


def _admm_snapshots(features, budgets, cfg, seed, spec, n_theta):
    """{budget: (result, seconds)}: one ADMM state, drawn at config.seed =
    seed, run through the budgets in increasing order.  Each result is
    bitwise a separate run of its budget (a tolerance stop holds for larger
    ones); seconds is the time from the start to reach it."""
    sol = cfg["solver"]

    def config(max_iter):
        return AdmmConfig(lam1=sol["lambda1"], lam2=sol["lambda2"],
                          rho=sol["rho"], max_iter=max_iter, seed=seed)

    t0 = time.perf_counter()
    state = init_admm_state(features, config(1), spec, n_theta)
    snapshots, res = {}, None
    for budget in sorted(budgets):
        if res is None or res.stop_reason == "max_iter":
            res = run_admm(features, config(budget - state.iter), spec,
                           n_theta, state=state)
        snapshots[budget] = res, time.perf_counter() - t0
    return snapshots


def _batch_statistics(methods, batch, quad, spec):
    """(features, mu_norm, EM workspace, its build seconds) of a batch in
    memory for methods.  The shared random start reads only the weighted
    first moment, so the full moments are formed only when a method runs
    ADMM, their only reader; the workspace is built, and timed, only when
    one runs EM.  Each is one pass of its consumers over the batch's record
    blocks."""
    features = (empirical_moments(batch, quad, spec)
                if _uses(methods, "admm") else None)
    mu_norm = (features.mu_norm if features is not None
               else float(np.linalg.norm(first_moment(batch, quad))))
    t0 = time.perf_counter()
    work = (EmWorkspace(transform_batch(batch, quad), spec, batch.n_theta)
            if _uses(methods, "em") else None)
    return features, mu_norm, work, time.perf_counter() - t0


def _file_statistics(batch, methods, quad, spec):
    """(sums, statistics) of an open sim.BatchFile: its records are read
    once, block by block, and each block is fed to the consumers methods
    need: MomentSums (the first moment and the sample variance; the second
    moment only when a method runs ADMM) and the EM workspace only when
    one runs EM.  The statistics are _batch_statistics' and bitwise equal
    to them on the batch the file holds; the seconds are the whole pass."""
    admm = _uses(methods, "admm")
    sums = MomentSums(batch, quad, spec if admm else None)
    t0 = time.perf_counter()
    work = (EmWorkspace(transform_batch(batch, quad), spec, batch.n_theta)
            if _uses(methods, "em") else None)
    reduce_records(batch.blocks(), [c for c in (sums, work) if c is not None])
    return sums, (sums.features() if admm else None,
                  float(np.linalg.norm(sums.first_moment())), work,
                  time.perf_counter() - t0)


def _run_methods(methods, statistics, spec, n_theta, cfg, seed,
                 out_dir=None):
    """Run each method's solver stages on the batch statistics of
    _batch_statistics or _file_statistics, each stage from the estimate of
    the one before and the first from the seed's random start, which the
    methods share.  ADMM runs once: a method's ADMM stage is the
    _admm_snapshots entry at its budget.  The EM workspace is shared by
    every EM stage.  A method's runtime is the time of each shared piece
    it reads, the ADMM snapshot and the EM workspace, plus its own stages.
    With out_dir (one method), every stage that ran, failed ones too,
    writes its history there.  Returns the start's hash and, per method,
    its estimate, runtime and one record per stage: the solver, n_iter,
    converged, stop_reason and the last value of each history column."""
    sol = cfg["solver"]
    features, mu_norm, work, work_s = statistics
    a0, _, p0 = random_start(mu_norm, spec.n_a, n_theta, seed)
    start = (FBCoeffs(values=a0, spec=spec, real_symmetric=False),
             ViewDistribution(p=p0, n_theta=n_theta))
    budgets = {sol[key] for m in methods for solver, key in _STAGES[m]
               if solver == "admm"}
    histories, results, solver = [], [], "admm"
    try:
        admm = (_admm_snapshots(features, budgets, cfg, seed, spec, n_theta)
                if budgets else {})
        for method in methods:
            (a, p), stages = start, []
            runtime = work_s if _uses([method], "em") else 0.0
            t0 = time.perf_counter()
            for solver, key in _STAGES[method]:
                if solver == "admm":
                    res, admm_s = admm[sol[key]]
                    runtime += admm_s
                else:
                    res = run_em(work, a, p, EmConfig(max_iter=sol[key]))
                histories.append((solver, res.history))
                stages.append({"solver": solver, "n_iter": res.n_iter,
                               "converged": res.converged,
                               "stop_reason": res.stop_reason,
                               **{key: column[-1] for key, column
                                  in res.history.items()}})
                a, p = res.a, res.p
            results.append((a, p, runtime + time.perf_counter() - t0, stages))
    except SolverError as err:
        histories.append((solver, err.history))
        raise
    finally:
        if out_dir is not None:
            for solver, history in histories:
                history_to_csv(history, out_dir / f"{solver}_history.csv")
    return hashlib.sha256(a0.tobytes() + p0.tobytes()).hexdigest(), results


def cmd_reconstruct(batch_path, cfg, out_dir, truth_path=None):
    """Solve the batch file at batch_path, read in one pass of record
    blocks (_file_statistics): what it holds at once is one record block,
    the N x n_a EM statistics when EM runs, and the n_a-sized moments."""
    batch_path = Path(batch_path)
    if not batch_path.exists():
        raise ConfigError(f"batch file not found: {batch_path}")
    method = cfg["solver"]["method"]
    with contextlib.closing(BatchFile(batch_path)) as batch:
        if _uses([method], "em") and batch.sigma2 <= 0:
            raise ConfigError("EM needs a noisy batch; sigma2 = 0 has no "
                              "likelihood model")
        spec = build_basis_spec(cfg["phantom"]["c"], cfg["phantom"]["R"])
        quad = build_quadrature(spec.c, cfg["solver"]["n_xi"])
        sums, statistics = _file_statistics(batch, [method], quad, spec)

    out_dir.mkdir(parents=True, exist_ok=True)
    start_hash, [(a, p, runtime, stages)] = _run_methods(
        [method], statistics, spec, batch.n_theta, cfg, cfg["seed"],
        out_dir=out_dir)

    est_path = out_dir / "estimate.dat"
    variance = _variance(float(sums.line_sum.sum()), sums.square_sum,
                         sums.line_sum.size * batch.N)
    achieved = snr_db(variance - batch.sigma2, batch.sigma2)
    save_coeff_file(est_path, a, p, meta={
        "kind": "estimate", "method": method, "seed": cfg["seed"],
        "runtime_s": runtime, "snr_db": achieved, "init_sha256": start_hash})

    pgm_path = out_dir / "reconstruction.pgm"
    lo, hi = _write_image(pgm_path, a)

    outputs = sorted(out_dir.glob("*history.csv")) + [est_path, pgm_path]
    extra = {"method": method, "runtime_s": runtime,
             "pgm_normalization": [lo, hi], "init_sha256": start_hash,
             "solver": stages}
    if truth_path is not None:
        truth_a, truth_p, _, _ = load_coeff_file(truth_path)
        r = score(truth_a, truth_p, a, p,
                  cfg["experiment"]["success_threshold"], method=method,
                  snr_db=achieved, seed=cfg["seed"], runtime=runtime)
        extra.update({"re": r.re, "tv": r.tv})
        print(f"method={method} RE={r.re:.6g} TV={r.tv:.6g} (rotation "
              f"{r.aligned_rotation:.4f} rad, shift {r.aligned_shift})")
    manifest = _write_manifest(out_dir, "reconstruct", cfg,
                               {batch_path: batch.source_sha256}, outputs,
                               extra=extra)
    print(f"wrote {est_path} in {runtime:.1f}s")
    return outputs + [manifest]


def cmd_evaluate(truth_path, estimate_path, out_dir, success_threshold):
    for p in (truth_path, estimate_path):
        if not Path(p).exists():
            raise ConfigError(f"input not found: {p}")
    truth_a, truth_p, _, truth_digest = load_coeff_file(truth_path)
    est_a, est_p, meta, est_digest = load_coeff_file(estimate_path)
    meta = _deep_merge(_ESTIMATE_META, {k: v for k, v in meta.items()
                                        if k in _ESTIMATE_META},
                       f"{estimate_path}: meta")
    report = score(truth_a, truth_p, est_a, est_p, success_threshold,
                   method=meta["method"], snr_db=float(meta["snr_db"]),
                   seed=meta["seed"], runtime=float(meta["runtime_s"]))
    re_joint, tv_joint, l_joint = joint_alignment(truth_a, est_a,
                                                  truth_p, est_p)

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "report.csv"
    reports_to_csv([report], csv_path)

    lo_t, hi_t = _write_image(out_dir / "truth.pgm", truth_a)
    lo_e, hi_e = _write_image(out_dir / "estimate_aligned.pgm",
                              est_a.rotated(report.aligned_rotation))
    manifest = _write_manifest(
        out_dir, "evaluate", {},
        {truth_path: truth_digest, estimate_path: est_digest},
        [csv_path, out_dir / "truth.pgm", out_dir / "estimate_aligned.pgm"],
        extra={"re": report.re, "tv": report.tv,
               "joint_alignment": {"re": re_joint, "tv": tv_joint,
                                   "shift": l_joint},
               "pgm_normalization": {"truth": [lo_t, hi_t],
                                     "estimate": [lo_e, hi_e]}})
    print(f"RE={report.re:.6g} TV={report.tv:.6g} joint(RE={re_joint:.6g}, "
          f"TV={tv_joint:.6g}, shift={l_joint})")
    return [csv_path, manifest]


def _experiment_trial(cfg, spec, truth, p, trial):
    """Every SNR cell of one trial, at seed + trial: one clean draw and one
    noisy pass give one batch per experiment SNR, all from the same labels,
    clean lines and unit noise, so each is bitwise the batch a separate
    draw at its SNR would give.  Each batch then gets one shared init, one
    ADMM run and every method.  Returns one (reports, {method: init hash})
    pair per SNR, in snrs_db order."""
    acq = cfg["acquisition"]
    quad = build_quadrature(spec.c, cfg["solver"]["n_xi"])
    seed = cfg["seed"] + trial
    batches, clean_var = _draw_batch(acq, truth, p, build_line_grid(acq["L"]),
                                     quad, seed, cfg["experiment"]["snrs_db"])
    exp = cfg["experiment"]
    cells = []
    while batches:      # each batch is freed once its cell is done
        batch = batches.pop(0)
        start_hash, results = _run_methods(
            exp["methods"], _batch_statistics(exp["methods"], batch, quad,
                                              spec),
            spec, p.n_theta, cfg, seed)
        reports = [score(truth, p, a, pd, exp["success_threshold"],
                         method=method, snr_db=snr_db(clean_var, batch.sigma2),
                         seed=seed, runtime=runtime)
                   for method, (a, pd, runtime, _) in zip(exp["methods"],
                                                          results)]
        cells.append((reports, dict.fromkeys(exp["methods"], start_hash)))
    return cells


def cmd_experiment(cfg, out_dir, threads=1):
    spec, truth, p = _build_problem(cfg)
    exp = cfg["experiment"]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        trials = list(pool.map(
            lambda t: _experiment_trial(cfg, spec, truth, p, t),
            range(exp["trials"])))
    results = [trial[i] for i in range(len(exp["snrs_db"]))
               for trial in trials]

    out_dir.mkdir(parents=True, exist_ok=True)
    all_reports = [r for reports, _ in results for r in reports]
    trials_path = out_dir / "trial_reports.csv"
    reports_to_csv(all_reports, trials_path)

    # one row per SNR, from every trial's cell at it; five columns per method
    columns = {"snr_db": exp["snrs_db"]}
    for m in dict.fromkeys(exp["methods"]):
        slices = [[r for t in trials for r in t[i][0] if r.method == m]
                  for i in range(len(exp["snrs_db"]))]
        key = m.replace("+", "_")
        for stat in ("re", "tv"):
            vals = [np.array([getattr(r, stat) for r in rs]) for rs in slices]
            columns[f"mean_{stat}_{key}"] = [v.mean() for v in vals]
            columns[f"std_{stat}_{key}"] = [v.std() for v in vals]
        columns[f"success_rate_{key}"] = [np.mean([r.success for r in rs])
                                          for rs in slices]
    agg_path = out_dir / "aggregate.csv"
    history_to_csv(columns, agg_path)

    # every method of a cell starts from the cell's one draw
    manifest = _write_manifest(
        out_dir, "experiment", cfg, {}, [trials_path, agg_path],
        extra={"init_hashes": [hashes for _, hashes in results],
               "shared_inits": True})
    print(f"wrote {trials_path} ({len(all_reports)} rows) and {agg_path}")
    return [trials_path, agg_path, manifest]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tiltrec",
        description="Recover an image and its view-angle distribution "
                    "from projection tilt series.")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON config; missing keys fall back to defaults")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory (default from config)")
    parser.add_argument("--method", type=str, default=None,
                        choices=_METHODS, help="solver for reconstruct")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for experiment trials")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="generate a batch and its ground truth")
    rec = sub.add_parser("reconstruct", help="solve from a saved batch")
    rec.add_argument("batch", type=str)
    rec.add_argument("--truth", type=str, default=None,
                     help="optional truth file; prints RE/TV when given")
    ev = sub.add_parser("evaluate", help="score an estimate against truth")
    ev.add_argument("truth", type=str)
    ev.add_argument("estimate", type=str)
    sub.add_parser("experiment", help="trial matrix over SNRs and methods")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, out=args.out,
                          method=args.method)
        out_dir = Path(cfg["out"])
        if args.command == "simulate":
            cmd_simulate(cfg, out_dir)
        elif args.command == "reconstruct":
            cmd_reconstruct(args.batch, cfg, out_dir, truth_path=args.truth)
        elif args.command == "evaluate":
            cmd_evaluate(args.truth, args.estimate, out_dir,
                         cfg["experiment"]["success_threshold"])
        elif args.command == "experiment":
            cmd_experiment(cfg, out_dir, threads=max(1, args.threads))
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 1
    except (ConfigError, OSError, json.JSONDecodeError, KeyError,
            ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        # glibc keeps freed blocks below its dynamic mmap threshold on the
        # heap; trim it, so what a command leaves resident does not
        # depend on how its arrays fragmented the heap
        with contextlib.suppress(AttributeError, OSError, TypeError):
            trim = ctypes.CDLL(None).malloc_trim    # glibc only
            trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
            trim(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
