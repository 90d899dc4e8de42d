"""End-to-end command tests, run in process through main(argv).

A miniature configuration (16-pixel window, 60 records, single-digit
iteration counts) keeps every pipeline stage exercised while the whole file
stays fast.
"""

import builtins
import csv
import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import tiltrec.admm
from tiltrec.admm import AdmmConfig, random_start, run_admm
from tiltrec.basis import FBCoeffs, build_basis_spec, build_quadrature
from tiltrec.cli import (DEFAULT_CONFIG, _build_problem, _deep_merge,
                         _draw_batch, _experiment_trial, load_config,
                         load_coeff_file, main, save_coeff_file, write_pgm)
from tiltrec.em import EmConfig, run_em
from tiltrec.errors import ConfigError
from tiltrec.metrics import (CSV_HEADER, TrialReport, relative_error,
                             snr_db, total_variation_dist)
from tiltrec.moments import empirical_moments
from tiltrec.sim import (TiltSeriesBatch, ViewDistribution, build_line_grid,
                         generate_batch, load_batch, save_batch)
from tiltrec.spectral import SpectralBatch, transform_batch

TINY = {
    "seed": 3,
    "phantom": {"R": 8.0, "seed": 11},
    "distribution": {"n_theta": 8},
    "acquisition": {"N": 60, "K": 2, "alpha_deg": 3.8, "L": 16, "sigma2": 0.5},
    "solver": {"admm_iters": 10, "em_iters": 5, "hybrid_admm_iters": 5,
               "hybrid_em_iters": 3, "n_xi": 24},
    "experiment": {"snrs_db": [3.0], "trials": 2,
                   "methods": ["admm", "em", "admm+em"]},
}


def _write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = json.loads(json.dumps(TINY))
    for key, val in overrides.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _read_pgm(path):
    blob = path.read_bytes()
    magic, dims, maxval, rest = blob.split(b"\n", 3)
    assert magic == b"P5" and maxval == b"255"
    w, h = map(int, dims.split())
    assert len(rest) == w * h
    return w, h, np.frombuffer(rest, dtype=np.uint8).reshape(h, w)


# -------------------------------------------------------------- config

def test_config_deep_merge(tmp_path):
    path = _write_cfg(tmp_path, solver={"lambda2": 5.0})
    cfg = load_config(str(path))
    assert cfg["solver"]["lambda2"] == 5.0
    # siblings at every level keep their defaults
    assert cfg["solver"]["rho"] == DEFAULT_CONFIG["solver"]["rho"]
    assert cfg["experiment"]["success_threshold"] == 0.3
    assert cfg["acquisition"]["N"] == 60


def test_config_overrides_and_validation(tmp_path):
    path = _write_cfg(tmp_path)
    cfg = load_config(str(path), seed=99, out="elsewhere", method="em")
    assert cfg["seed"] == 99
    assert cfg["out"] == "elsewhere"
    assert cfg["solver"]["method"] == "em"
    bad = _write_cfg(tmp_path, name="bad.json", solver={"method": "bogus"})
    with pytest.raises(ConfigError):
        load_config(str(bad))
    bad = _write_cfg(tmp_path, name="bad_exp.json",
                     experiment={"methods": ["admm", "bogus"]})
    with pytest.raises(ConfigError, match="'bogus'"):
        load_config(str(bad))
    # malformed files name the offending key instead of crashing later
    malformed = [([1, 2], r"config must"),
                 ({"solver": 5}, r"config\.solver must"),
                 ({"acquisition": {"N": "many"}}, r"config\.acquisition\.N"),
                 ({"solver": {"pinv_cutoff": 1e-10}},
                  r"config\.solver\.pinv_cutoff")]
    for content, match in malformed:
        bad.write_text(json.dumps(content))
        with pytest.raises(ConfigError, match=match):
            load_config(str(bad))


# ---------------------------------------------------------- file formats

def test_coeff_file_roundtrip(tmp_path):
    spec = build_basis_spec(0.3, 8.0)
    rng = np.random.default_rng(0)
    a = FBCoeffs(rng.standard_normal(spec.n_a)
                 + 1j * rng.standard_normal(spec.n_a), spec,
                 real_symmetric=False)
    p = ViewDistribution(rng.dirichlet(np.ones(12)), 12)
    path = tmp_path / "c.dat"
    save_coeff_file(path, a, p, meta={"kind": "truth", "note": 7})
    a2, p2, meta, _ = load_coeff_file(path)
    assert np.array_equal(a2.values, a.values)
    assert np.allclose(p2.p, p.p, atol=1e-15)
    assert a2.spec.n_a == spec.n_a and not a2.real_symmetric
    assert meta == {"kind": "truth", "note": 7}


def test_coeff_file_header_mismatch(tmp_path):
    spec = build_basis_spec(0.3, 4.0)
    a = FBCoeffs(np.ones(spec.n_a, dtype=complex), spec, real_symmetric=False)
    p = ViewDistribution(np.full(4, 0.25), 4)
    path = tmp_path / "c.dat"
    save_coeff_file(path, a, p)
    blob = path.read_bytes()
    head, payload = blob.split(b"\n", 1)
    header = json.loads(head)
    header["n_a"] = 99
    (tmp_path / "bad.dat").write_bytes(
        (json.dumps(header, sort_keys=True) + "\n").encode() + payload)
    with pytest.raises(ConfigError):
        load_coeff_file(tmp_path / "bad.dat")


# (key, value) pairs a header may not hold; each must be named in the error
_BAD_FIELDS = {
    "coeff": [("c", float("inf")), ("R", "16"), ("n_a", True),
              ("n_theta", 0), ("real_symmetric", 1)],
    "batch": [("K", "1"), ("alpha", None), ("N", -3), ("K", -1), ("L", 0),
              ("n_theta", 6.0), ("seed", -1), ("sigma2", float("nan")),
              ("dx", [1.0]), ("hidden_angles", "yes")],
}


@pytest.mark.parametrize(
    "kind,defect",
    [(kind, defect) for kind in ("coeff", "batch")
     for defect in ("missing_key", "short", "long", "bad_type")]
    + [("coeff", "nan"), ("batch", "nan"), ("batch", "bad_angle"),
       ("coeff", "unnormalized"), ("coeff", "negative")])
def test_loaders_reject_bad_files(tmp_path, kind, defect):
    """A header without a required key or with a field of the wrong type or
    range, a truncated payload, trailing bytes, a NaN coefficient,
    probability, sample or hidden angle, a hidden angle that is not an
    angle index and probabilities that are negative or do not sum to 1 each
    raise ConfigError naming the header key or the payload."""
    path = tmp_path / "good.dat"
    if kind == "coeff":
        spec = build_basis_spec(0.3, 4.0)
        a = FBCoeffs(np.ones(spec.n_a, dtype=complex), spec,
                     real_symmetric=False)
        save_coeff_file(path, a, ViewDistribution(np.full(4, 0.25), 4))
        load, key = load_coeff_file, "n_theta"
        nan_offsets = (0, 8 * (2 * spec.n_a - 1), 16 * spec.n_a + 8)
    else:
        batch = TiltSeriesBatch(samples=np.zeros((3, 3, 4)), K=1, alpha=0.05,
                                sigma2=0.1, grid=build_line_grid(4), seed=0,
                                n_theta=6, hidden_angles=np.arange(3))
        save_batch(batch, path)
        load, key = load_batch, "hidden_angles"
        nan_offsets = (0, 8 * 35, 8 * 37)    # samples 0 and 35, hidden 1
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    bad = tmp_path / "bad.dat"
    if defect == "bad_type":
        for field, value in _BAD_FIELDS[kind]:
            bad.write_bytes(json.dumps({**header, field: value}).encode()
                            + b"\n" + payload)
            with pytest.raises(ConfigError, match=f"'{field}' must be"):
                load(bad)
        return
    if defect == "nan":
        for offset in nan_offsets:
            garbled = bytearray(payload)
            garbled[offset:offset + 8] = np.float64(np.nan).tobytes()
            bad.write_bytes(head + b"\n" + bytes(garbled))
            with pytest.raises(ConfigError, match="payload"):
                load(bad)
        return
    if defect in ("unnormalized", "negative"):
        p = [2.0, 2.0, 4.0, 0.0] if defect == "unnormalized" \
            else [-1e-3, 0.25, 0.25, 0.501]
        coeff_bytes = payload[:16 * spec.n_a]
        bad.write_bytes(head + b"\n" + coeff_bytes
                        + np.asarray(p, dtype="<f8").tobytes())
        with pytest.raises(ConfigError, match=re.escape(f"{bad}: probability "
                                                        "payload")):
            load(bad)
        return
    if defect == "bad_angle":
        for value in (99.7, -3.0, 6.0, 0.5):
            garbled = bytearray(payload)
            garbled[8 * 37:8 * 38] = np.float64(value).tobytes()
            bad.write_bytes(head + b"\n" + bytes(garbled))
            with pytest.raises(ConfigError, match="payload holds hidden "
                               "angles that are not integers"):
                load(bad)
        return
    if defect == "missing_key":
        del header[key]
    elif defect == "short":
        payload = payload[:-3]
    else:
        payload = payload + bytes(64)
    bad.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(ConfigError,
                       match=key if defect == "missing_key" else "payload"):
        load(bad)


def test_write_pgm_normalization(tmp_path):
    path = tmp_path / "img.pgm"
    lo, hi = write_pgm(path, np.array([[0.0, 2.0], [1.0, 2.0]]))
    assert (lo, hi) == (0.0, 2.0)
    _, _, img = _read_pgm(path)
    assert img[0, 0] == 0 and img[0, 1] == 255
    lo, hi = write_pgm(path, np.ones((3, 3)))
    assert lo == hi
    _, _, img = _read_pgm(path)
    assert np.all(img == 0)


# ------------------------------------------------------------- simulate

def test_simulate_outputs_and_target_snr(tmp_path):
    cfg = _write_cfg(tmp_path, acquisition={"sigma2": 0.0,
                                            "target_snr_db": 0.0})
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
    assert (out / "batch.dat").exists() and (out / "truth.dat").exists()
    manifest = json.loads((out / "manifest_simulate.json").read_text())
    assert manifest["command"] == "simulate"
    assert abs(manifest["extra"]["snr_db"] - 0.0) <= 0.1
    assert manifest["extra"]["sigma2"] > 0


def test_batch_draws_per_command(tmp_path, monkeypatch):
    """A noisy batch takes two generate_batch calls (the clean one for the
    SNR, then the noisy one), a noiseless batch one, and so does every
    experiment cell: the traced project_clean counts rely on this."""
    seeds = []

    def counting(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return generate_batch(*args, **kwargs)

    monkeypatch.setattr("tiltrec.cli.generate_batch", counting)
    for sigma2, calls in ((0.5, 2), (0.0, 1)):
        seeds.clear()
        cfg = _write_cfg(tmp_path, acquisition={"sigma2": sigma2})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "s"),
                     "simulate"]) == 0
        assert seeds == [TINY["seed"]] * calls
    seeds.clear()
    cfg = _write_cfg(tmp_path, experiment={"methods": ["admm"]})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "e"),
                 "experiment"]) == 0
    assert sorted(seeds) == [3, 3, 4, 4]  # seed + trial, two cells


def test_simulate_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
        outs.append(out)
    for fname in ("batch.dat", "truth.dat"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    other = tmp_path / "c"
    assert main(["--config", str(cfg), "--seed", "4", "--out", str(other),
                 "simulate"]) == 0
    assert (outs[0] / "batch.dat").read_bytes() != (other / "batch.dat").read_bytes()


# ---------------------------------------------------------- reconstruct

@pytest.fixture(scope="module")
def sim_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sim")
    cfg = _write_cfg(tmp)
    out = tmp / "run"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
    return cfg, out


def test_reconstruct_each_method(sim_run, tmp_path):
    cfg, sim_out = sim_run
    expected_hist = {"admm": ["admm_history.csv"], "em": ["em_history.csv"],
                     "admm+em": ["admm_history.csv", "em_history.csv"]}
    hashes = []
    for method in ("admm", "em", "admm+em"):
        out = tmp_path / method.replace("+", "_")
        code = main(["--config", str(cfg), "--out", str(out),
                     "--method", method, "reconstruct",
                     str(sim_out / "batch.dat"),
                     "--truth", str(sim_out / "truth.dat")])
        assert code == 0
        assert (out / "reconstruction.pgm").exists()
        for hist in expected_hist[method]:
            assert (out / hist).exists()
        _, _, meta, _ = load_coeff_file(out / "estimate.dat")
        assert meta["method"] == method
        hashes.append(meta["init_sha256"])
        w, h, _ = _read_pgm(out / "reconstruction.pgm")
        assert (w, h) == (16, 16)
    # one seed, one batch: every method starts from the same point
    assert len(set(hashes)) == 1


def test_reconstruct_manifest_records_solver_stages(sim_run, tmp_path):
    """extra.solver holds one entry per stage: n_iter and converged, and
    for ADMM the stop reason and the last primal and dual residuals of its
    history."""
    cfg, sim_out = sim_run
    out = tmp_path / "rec"
    assert main(["--config", str(cfg), "--out", str(out), "--method",
                 "admm+em", "reconstruct", str(sim_out / "batch.dat")]) == 0
    manifest = json.loads((out / "manifest_reconstruct.json").read_text())
    admm, em = manifest["extra"]["solver"]
    with open(out / "admm_history.csv") as fh:
        last = list(csv.DictReader(fh))[-1]
    assert admm == {"solver": "admm", "n_iter": 5, "converged": False,
                    "stop_reason": "max_iter",
                    "primal_residual": float(last["primal_residual"]),
                    "dual_residual": float(last["dual_residual"])}
    assert em["solver"] == "em" and set(em) == {"solver", "n_iter",
                                                "converged"}
    assert 1 <= em["n_iter"] <= 3 and isinstance(em["converged"], bool)


def _count_opens(monkeypatch, paths):
    """{path: number of times the run opens it}, counted from builtins.open."""
    opens = dict.fromkeys(paths, 0)
    real_open = builtins.open

    def counting(file, *args, **kwargs):
        if isinstance(file, (str, Path)) and Path(file) in opens:
            opens[Path(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    return opens


def test_reconstruct_manifest_hashes_the_batch_it_read(sim_run, tmp_path,
                                                       monkeypatch):
    """The manifest's digest of the batch is the sha256 of the file, taken
    from the bytes load_batch read: the file is not read a second time."""
    cfg, sim_out = sim_run
    batch = sim_out / "batch.dat"
    opens = _count_opens(monkeypatch, [batch])
    out = tmp_path / "rec"
    assert main(["--config", str(cfg), "--out", str(out), "--method", "admm",
                 "reconstruct", str(batch)]) == 0
    assert opens == {batch: 1}
    manifest = json.loads((out / "manifest_reconstruct.json").read_text())
    assert manifest["inputs"] == {
        str(batch): hashlib.sha256(batch.read_bytes()).hexdigest()}


def test_em_only_commands_skip_second_moment(sim_run, tmp_path, monkeypatch):
    """An EM-only reconstruct or experiment never accumulates the second
    moment, and its start is bitwise the ADMM run's on the same batch."""
    cfg, sim_out = sim_run
    argv = ["--config", str(cfg), "reconstruct", str(sim_out / "batch.dat")]
    assert main(["--out", str(tmp_path / "admm"), "--method", "admm"]
                + argv) == 0

    def refuse(y):
        raise AssertionError("second moment accumulated on an EM-only run")

    monkeypatch.setattr("tiltrec.moments.blockwise_mean_outer", refuse)
    assert main(["--out", str(tmp_path / "em"), "--method", "em"] + argv) == 0
    starts = [load_coeff_file(tmp_path / m / "estimate.dat")[2]["init_sha256"]
              for m in ("admm", "em")]
    assert starts[0] == starts[1]
    em_only = _write_cfg(tmp_path, experiment={"methods": ["em"]})
    assert main(["--config", str(em_only), "--out", str(tmp_path / "exp"),
                 "experiment"]) == 0


def test_em_runs_form_no_node_spectra(sim_run, tmp_path, monkeypatch):
    """EM reads the real records through its whitened node map; no EM or
    hybrid reconstruct forms the node spectra."""
    cfg, sim_out = sim_run

    def refuse(self):
        raise AssertionError("node spectra formed on an EM run")

    monkeypatch.setattr(SpectralBatch, "yhat", property(refuse))
    for method in ("em", "admm+em"):
        assert main(["--config", str(cfg), "--out",
                     str(tmp_path / method.replace("+", "_")), "--method",
                     method, "reconstruct", str(sim_out / "batch.dat")]) == 0


def test_failed_solver_leaves_history(tmp_path, capsys):
    """A stage that diverges still writes the history it gathered, and the
    command exits 1."""
    cfg = _write_cfg(tmp_path, phantom={"scale": 1e9})
    sim = tmp_path / "sim"
    assert main(["--config", str(cfg), "--out", str(sim), "simulate"]) == 0
    for method in ("admm", "admm+em"):
        out = tmp_path / method.replace("+", "_")
        code = main(["--config", str(cfg), "--out", str(out), "--method",
                     method, "reconstruct", str(sim / "batch.dat")])
        assert code == 1
        assert "diverged at iteration 1" in capsys.readouterr().err
        rows = (out / "admm_history.csv").read_text().splitlines()
        assert rows[0].startswith("iter,") and len(rows) >= 2


def test_reconstruct_missing_batch(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 "reconstruct", str(tmp_path / "nope.dat")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_em_rejects_clean_batch(tmp_path, capsys, monkeypatch):
    cfg = _write_cfg(tmp_path, acquisition={"sigma2": 0.0})
    out = tmp_path / "clean"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0

    def refuse(batch, quad):
        raise AssertionError("moment work before the noise check")

    # the check comes before any moment work
    monkeypatch.setattr("tiltrec.cli.empirical_moments", refuse)
    monkeypatch.setattr("tiltrec.cli.first_moment", refuse)
    for method in ("em", "admm+em"):
        code = main(["--config", str(cfg), "--out", str(tmp_path / "r"),
                     "--method", method, "reconstruct", str(out / "batch.dat")])
        assert code == 2
        assert "noisy" in capsys.readouterr().err


# ------------------------------------------------------------- evaluate

def test_evaluate_truth_against_itself(sim_run, tmp_path):
    _, sim_out = sim_run
    out = tmp_path / "ev"
    code = main(["--out", str(out), "evaluate", str(sim_out / "truth.dat"),
                 str(sim_out / "truth.dat")])
    assert code == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert float(fields[2]) == 0.0 and float(fields[3]) == 0.0
    assert fields[4] == "1"
    for pgm in ("truth.pgm", "estimate_aligned.pgm"):
        w, h, _ = _read_pgm(out / pgm)
        assert (w, h) == (16, 16)
    manifest = json.loads((out / "manifest_evaluate.json").read_text())
    assert manifest["extra"]["joint_alignment"]["shift"] == 0


def test_evaluate_reconstruction(sim_run, tmp_path):
    cfg, sim_out = sim_run
    rec = tmp_path / "rec"
    assert main(["--config", str(cfg), "--out", str(rec), "reconstruct",
                 str(sim_out / "batch.dat")]) == 0
    out = tmp_path / "ev"
    assert main(["--out", str(out), "evaluate", str(sim_out / "truth.dat"),
                 str(rec / "estimate.dat")]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[1].startswith("admm,")
    assert (out / "manifest_evaluate.json").exists()


def test_evaluate_manifest_hashes_the_files_it_read(sim_run, tmp_path,
                                                    monkeypatch):
    """The evaluate manifest's digests are the sha256 of the truth and
    estimate files, taken from the bytes load_coeff_file read: each file is
    opened once."""
    cfg, sim_out = sim_run
    rec = tmp_path / "rec"
    assert main(["--config", str(cfg), "--out", str(rec), "reconstruct",
                 str(sim_out / "batch.dat")]) == 0
    truth, estimate = sim_out / "truth.dat", rec / "estimate.dat"
    opens = _count_opens(monkeypatch, [truth, estimate])
    out = tmp_path / "ev"
    assert main(["--out", str(out), "evaluate", str(truth),
                 str(estimate)]) == 0
    assert opens == {truth: 1, estimate: 1}
    manifest = json.loads((out / "manifest_evaluate.json").read_text())
    assert manifest["inputs"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (truth, estimate)}


def test_evaluate_uses_configured_success_threshold(sim_run, tmp_path):
    """evaluate scores success against the configured threshold, as
    experiment does: at threshold 0 an estimate with nonzero RE fails."""
    _, sim_out = sim_run
    truth, p, meta, _ = load_coeff_file(sim_out / "truth.dat")
    estimate = tmp_path / "estimate.dat"
    save_coeff_file(estimate, FBCoeffs(1.01 * truth.values, truth.spec,
                                       truth.real_symmetric), p, meta)
    cfg = _write_cfg(tmp_path, experiment={"success_threshold": 0.0})
    out = tmp_path / "ev"
    assert main(["--config", str(cfg), "--out", str(out), "evaluate",
                 str(sim_out / "truth.dat"), str(estimate)]) == 0
    fields = (out / "report.csv").read_text().splitlines()[1].split(",")
    assert float(fields[2]) > 0.0 and fields[4] == "0"


def test_evaluate_missing_input(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "evaluate",
                 str(tmp_path / "a.dat"), str(tmp_path / "b.dat")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


# ----------------------------------------------------------- experiment

def test_experiment_determinism_and_shared_inits(tmp_path):
    cfg = _write_cfg(tmp_path)
    outs = []
    for name, threads in (("e1", "1"), ("e2", "2")):
        out = tmp_path / name
        code = main(["--config", str(cfg), "--out", str(out),
                     "--threads", threads, "experiment"])
        assert code == 0
        outs.append(out)

    agg1 = (outs[0] / "aggregate.csv").read_text()
    assert agg1 == (outs[1] / "aggregate.csv").read_text()
    header = agg1.splitlines()[0].split(",")
    assert header[0] == "snr_db"
    for m in ("admm", "em", "admm_em"):
        assert f"mean_re_{m}" in header and f"success_rate_{m}" in header

    rows = [r.split(",") for r in
            (outs[0] / "trial_reports.csv").read_text().splitlines()]
    rows2 = [r.split(",") for r in
             (outs[1] / "trial_reports.csv").read_text().splitlines()]
    assert rows[0] == CSV_HEADER.split(",")
    assert len(rows) == 1 + 2 * 3  # trials x methods
    keep = [i for i, name in enumerate(rows[0]) if name != "runtime_s"]
    for r1, r2 in zip(rows, rows2):
        assert [r1[i] for i in keep] == [r2[i] for i in keep]

    manifest = json.loads((outs[0] / "manifest_experiment.json").read_text())
    assert manifest["extra"]["shared_inits"] is True


def _separate_runs_cell(cfg, spec, truth, p, snr, trial):
    """The reports of one experiment cell built from one separate run_admm
    per ADMM stage, each at its own budget, plus run_em."""
    acq, sol = cfg["acquisition"], cfg["solver"]
    quad = build_quadrature(spec.c, sol["n_xi"])
    seed, n_theta = cfg["seed"] + trial, p.n_theta
    batch, clean_var = _draw_batch(acq, truth, p, build_line_grid(acq["L"]),
                                   quad, seed, snr)
    feats = empirical_moments(batch, quad, spec)

    def admm(key):
        return run_admm(feats, AdmmConfig(
            lam1=sol["lambda1"], lam2=sol["lambda2"], rho=sol["rho"],
            max_iter=sol[key], seed=seed), spec, n_theta)

    def em(a, pd, key):
        return run_em(transform_batch(batch, quad), a, pd,
                      EmConfig(max_iter=sol[key]))

    a0, _, p0 = random_start(feats.mu_norm, spec.n_a, n_theta, seed)
    hybrid = admm("hybrid_admm_iters")
    estimates = {
        "admm": admm("admm_iters"),
        "em": em(FBCoeffs(values=a0, spec=spec, real_symmetric=False),
                 ViewDistribution(p=p0, n_theta=n_theta), "em_iters"),
        "admm+em": em(hybrid.a, hybrid.p, "hybrid_em_iters")}
    reports = []
    for method, est in estimates.items():
        re_, gamma = relative_error(truth, est.a, 10 * n_theta)
        tv, shift = total_variation_dist(p, est.p)
        reports.append(TrialReport(
            method=method, snr_db=snr_db(clean_var, batch.sigma2), re=re_,
            tv=tv, aligned_rotation=gamma, aligned_shift=shift,
            success=re_ <= cfg["experiment"]["success_threshold"],
            seed=seed, runtime=0.0))
    return reports


@pytest.mark.parametrize("admm_iters, hybrid_admm_iters", [(5, 5), (7, 3)])
def test_experiment_cell_makes_one_admm_run(monkeypatch, admm_iters,
                                            hybrid_admm_iters):
    """One cell iterates ADMM as often as its largest ADMM budget, for equal
    and unequal budgets, and its reports (runtime aside) equal those of
    separate runs at each budget."""
    cfg = _deep_merge(DEFAULT_CONFIG, {**TINY, "solver": {
        **TINY["solver"], "admm_iters": admm_iters,
        "hybrid_admm_iters": hybrid_admm_iters}})
    spec, truth, p = _build_problem(cfg)
    steps = []
    update_a = tiltrec.admm.update_a
    monkeypatch.setattr(tiltrec.admm, "update_a",
                        lambda *args: steps.append(1) or update_a(*args))
    reports, hashes = _experiment_trial(cfg, spec, truth, p, 3.0, 1)
    assert len(steps) == max(admm_iters, hybrid_admm_iters)
    assert len(set(hashes.values())) == 1
    assert [dataclasses.replace(r, runtime=0.0) for r in reports] == \
        _separate_runs_cell(cfg, spec, truth, p, 3.0, 1)

