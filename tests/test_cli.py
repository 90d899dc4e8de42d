"""End-to-end command tests, run in process through main(argv).

A miniature configuration (16-pixel window, 60 records, single-digit
iteration counts) keeps every pipeline stage exercised while the whole file
stays fast.
"""

import builtins
import contextlib
import csv
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import re
import statistics
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tiltrec.admm
import tiltrec.sim
from tiltrec.admm import AdmmConfig, random_start, run_admm
from tiltrec.basis import FBCoeffs, build_basis_spec, build_quadrature
from tiltrec.cli import (DEFAULT_CONFIG, _batch_statistics, _build_problem,
                         _deep_merge, _draw_batch, _experiment_trial,
                         _file_statistics, _variance, load_config,
                         load_coeff_file, main, save_coeff_file, write_pgm)
from tiltrec.em import EmConfig, EmWorkspace, run_em
from tiltrec.errors import ConfigError
from tiltrec.metrics import (CSV_HEADER, TrialReport, relative_error,
                             reports_to_csv, snr_db, total_variation_dist,
                             variance_for_snr)
from tiltrec.moments import empirical_moments
from tiltrec.sim import (BatchDraw, BatchFile, TiltSeriesBatch,
                         ViewDistribution, build_line_grid, generate_batch,
                         load_batch, save_batch)
from tiltrec.spectral import transform_batch

from oracles import sample_variance, table_variance

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
                  r"config\.solver\.pinv_cutoff"),
                 ({"experiment": {"trials": 0}},
                  r"config\.experiment\.trials must be >= 1, got 0"),
                 ({"experiment": {"trials": -2}},
                  r"config\.experiment\.trials must be >= 1, got -2"),
                 ({"acquisition": {"K": -1}},
                  r"config\.acquisition\.K must be >= 0, got -1"),
                 ({"distribution": {"n_theta": 0}},
                  r"config\.distribution\.n_theta must be >= 1, got 0"),
                 ({"acquisition": {"N": 0}},
                  r"config\.acquisition\.N must be >= 1, got 0"),
                 ({"acquisition": {"L": 0}},
                  r"config\.acquisition\.L must be >= 1, got 0"),
                 ({"solver": {"n_xi": 0}},
                  r"config\.solver\.n_xi must be >= 1, got 0"),
                 ({"solver": {"admm_iters": 0}},
                  r"config\.solver\.admm_iters must be >= 1, got 0"),
                 ({"solver": {"em_iters": 0}},
                  r"config\.solver\.em_iters must be >= 1, got 0"),
                 ({"solver": {"hybrid_admm_iters": -1}},
                  r"config\.solver\.hybrid_admm_iters must be >= 1, got -1"),
                 ({"solver": {"hybrid_em_iters": 0}},
                  r"config\.solver\.hybrid_em_iters must be >= 1, got 0"),
                 # json reads NaN and Infinity; no float key takes them
                 ({"phantom": {"c": math.inf}},
                  r"config\.phantom\.c must be a finite number, got Infinity"),
                 ({"acquisition": {"sigma2": math.nan}},
                  r"config\.acquisition\.sigma2 must be a finite number, "
                  r"got NaN"),
                 ({"phantom": {"decay": math.nan}},
                  r"config\.phantom\.decay must be a finite number"),
                 ({"acquisition": {"alpha_deg": math.nan}},
                  r"config\.acquisition\.alpha_deg must be a finite number"),
                 ({"solver": {"rho": math.nan}},
                  r"config\.solver\.rho must be a finite number"),
                 ({"solver": {"lambda2": -math.inf}},
                  r"config\.solver\.lambda2 must be a finite number"),
                 ({"phantom": {"scale": 10 ** 400}},
                  r"config\.phantom\.scale must be a finite number"),
                 ({"experiment": {"methods": []}},
                  r"config\.experiment\.methods must not be empty"),
                 ({"experiment": {"snrs_db": []}},
                  r"config\.experiment\.snrs_db must not be empty"),
                 ({"solver": {"lambda1": -1.0}},
                  r"config\.solver\.lambda1 must be >= 0, got -1\.0"),
                 ({"solver": {"lambda2": -0.5}},
                  r"config\.solver\.lambda2 must be >= 0, got -0\.5"),
                 ({"solver": {"rho": 0.0}},
                  r"config\.solver\.rho must be > 0, got 0\.0"),
                 ({"solver": {"rho": -2}},
                  r"config\.solver\.rho must be > 0, got -2")]
    for content, match in malformed:
        bad.write_text(json.dumps(content))
        with pytest.raises(ConfigError, match=match):
            load_config(str(bad))


@pytest.mark.parametrize("command", ["simulate", "experiment"])
@pytest.mark.parametrize("text, key", [
    ('{"acquisition": {"target_snr_db": [1]}}', "acquisition.target_snr_db"),
    ('{"acquisition": {"target_snr_db": "abc"}}',
     "acquisition.target_snr_db"),
    ('{"acquisition": {"target_snr_db": true}}', "acquisition.target_snr_db"),
    ('{"experiment": {"snrs_db": ["abc"]}}', r"experiment.snrs_db\[0\]"),
    ('{"experiment": {"snrs_db": [3.0, {"x": 1}]}}',
     r"experiment.snrs_db\[1\]"),
    ('{"experiment": {"snrs_db": [Infinity]}}', r"experiment.snrs_db\[0\]"),
    ('{"acquisition": {"target_snr_db": 1%s}}' % ("0" * 400),
     "acquisition.target_snr_db"),
    ('{"acquisition": {"target_snr_db": 4000}}', "acquisition.target_snr_db"),
    ('{"acquisition": {"target_snr_db": -4000}}',
     "acquisition.target_snr_db"),
    ('{"experiment": {"snrs_db": [6.6, -300.5]}}',
     r"experiment.snrs_db\[1\]")],
    ids=["target-list", "target-string", "target-bool", "snrs-string",
         "snrs-object", "snrs-infinity", "target-huge-int", "target-4000",
         "target-minus-4000", "snrs-past-limit"])
def test_snr_targets_must_be_finite_numbers(tmp_path, monkeypatch, capsys,
                                            command, text, key):
    """An SNR target that is neither null nor a finite number of dB within
    the limit exits 2 with a message naming its key, before anything is
    simulated: past about 3083 dB the noise variance would leave the float
    range."""
    monkeypatch.setattr("tiltrec.cli.generate_batch", None)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                 command]) == 2
    assert re.search(rf"config\.{key} must be null or a finite number",
                     capsys.readouterr().err)


@pytest.mark.parametrize("acquisition", [{"sigma2": 0.5},
                                         {"target_snr_db": 3.0}],
                         ids=["sigma2", "target"])
def test_zero_phantom_scale_is_rejected_by_name(tmp_path, monkeypatch, capsys,
                                                acquisition):
    """phantom.scale = 0 makes a zero object, whose clean variance of 0 has
    no SNR: simulate exits 2 naming the key before anything is simulated,
    instead of a math domain error (sigma2 > 0) or a noiseless batch that
    misses its SNR target."""
    monkeypatch.setattr("tiltrec.cli.generate_batch", None)
    path = _write_cfg(tmp_path, phantom={"scale": 0.0},
                      acquisition=acquisition)
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out), "simulate"]) == 2
    assert "config.phantom.scale must be nonzero" in capsys.readouterr().err
    assert not out.exists()


# at R = 4 the basis keeps orders |k| <= 1 only, and at L = 1 the one line
# sample sits at x = 0, where the odd orders cancel: every view and tilt
# reads the same value, up to a rounding residue of either sign
FLAT = {"phantom": {"R": 4.0}, "acquisition": {"L": 1}}


def test_one_line_sample_under_noise_reads_minus_inf(tmp_path):
    """A noisy draw whose clean lines are flat reports a clean variance of
    0 and -inf dB, instead of failing in log10 or reporting the residue's
    SNR."""
    path = _write_cfg(tmp_path, phantom=FLAT["phantom"],
                      acquisition={**FLAT["acquisition"], "sigma2": 0.1})
    out = tmp_path / "run"
    assert main(["--config", str(path), "--out", str(out), "simulate"]) == 0
    extra = json.loads((out / "manifest_simulate.json").read_text())["extra"]
    assert extra["clean_variance"] == 0.0
    assert extra["snr_db"] == -math.inf and extra["sigma2"] == 0.1
    assert load_batch(out / "batch.dat").sigma2 == 0.1


@pytest.mark.parametrize("command, target", [
    ("simulate", {"target_snr_db": 3.0}), ("experiment", {})],
    ids=["simulate", "experiment"])
def test_one_line_sample_meets_no_snr_target(tmp_path, capsys, command,
                                             target):
    """No noise variance meets an SNR target on flat clean lines: simulate
    and experiment exit 2 naming acquisition.L and the target, where
    simulate used to fail on a negative sigma2 that named neither."""
    path = _write_cfg(tmp_path, phantom=FLAT["phantom"],
                      acquisition={**FLAT["acquisition"], **target})
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out), command]) == 2
    err = capsys.readouterr().err
    assert "config.acquisition.L = 1" in err
    assert "meet no SNR target [3.0] dB" in err
    assert not out.exists()


@pytest.mark.parametrize("text, flags, key, value", [
    ("{}", ["--seed", "-1"], "seed", -1),
    ('{"seed": -2}', [], "seed", -2),
    ('{"phantom": {"seed": -3}}', [], "phantom.seed", -3)],
    ids=["flag", "config", "phantom"])
def test_negative_seeds_are_rejected_by_name(tmp_path, capsys, text, flags,
                                             key, value):
    """A negative seed exits 2 with a message naming its key before
    anything is simulated or written."""
    path, out = tmp_path / "cfg.json", tmp_path / "o"
    path.write_text(text)
    assert main(["--config", str(path), "--out", str(out), *flags,
                 "simulate"]) == 2
    assert (f"error: config.{key} must be a non-negative integer, got "
            f"{value}") in capsys.readouterr().err
    assert not out.exists()


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
       ("coeff", "unnormalized"), ("coeff", "negative"),
       ("coeff", "garbled_header"), ("batch", "garbled_header"),
       ("batch", "huge_n_theta"), ("coeff", "huge_R")])
def test_loaders_reject_bad_files(tmp_path, monkeypatch, kind, defect):
    """A header without a required key or with a field of the wrong type or
    range, a truncated payload, trailing bytes, a NaN coefficient,
    probability, sample or hidden angle, a hidden angle that is not an
    angle index and probabilities that are negative or do not sum to 1 each
    raise ConfigError naming the header key or the payload.  So does a
    header line that is not ASCII JSON, and a c*R whose basis cannot fit in
    n_a, before any basis is built.  A huge n_theta allocates nothing: its
    batch loads, and its hidden angles are still checked."""
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
    if defect in ("bad_angle", "huge_n_theta"):
        for n_theta in ((6,) if defect == "bad_angle" else (2**62, 10**400)):
            head = json.dumps({**header, "n_theta": n_theta}).encode()
            values = (99.7, -3.0, 0.5, np.inf)
            if n_theta == 6:
                values += (6.0, 1e19)
            else:
                bad.write_bytes(head + b"\n" + payload)
                loaded = load(bad)
                assert loaded.n_theta == n_theta
                assert np.array_equal(loaded.hidden_angles, np.arange(3))
            for value in values:
                garbled = bytearray(payload)
                garbled[8 * 37:8 * 38] = np.float64(value).tobytes()
                bad.write_bytes(head + b"\n" + bytes(garbled))
                expected = ("payload holds non-finite" if value == np.inf
                            else "payload holds hidden angles that are not "
                            "integers")
                with pytest.raises(ConfigError, match=expected):
                    load(bad)
        return
    if defect == "garbled_header":
        for line in (b"\xff\xfe{}", b'{"c": 0.3,', b"", b"[" * 100000):
            bad.write_bytes(line + b"\n" + payload)
            with pytest.raises(ConfigError, match=re.escape(
                    f"{bad}: header line is not ASCII JSON")):
                load(bad)
        return
    if defect == "huge_R":
        def unbuilt(c, R):
            raise AssertionError(f"basis built for c={c}, R={R}")

        monkeypatch.setattr("tiltrec.cli.build_basis_spec", unbuilt)
        for R in (400.0, 4e4, 1e308):
            bad.write_bytes(json.dumps({**header, "R": R}).encode() + b"\n"
                            + payload)
            with pytest.raises(ConfigError, match=r"c\*R = .* more than n_a"):
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
    """A noisy batch takes two draws (the noiseless probe for the SNR, then
    the noisy one), a noiseless batch one, and so does every experiment
    trial, whatever its number of SNRs: the traced project_clean counts
    rely on this.  Each draw, a sim.BatchDraw streamed or collected by
    generate_batch, makes its substream starts once."""
    seeds = []
    starts = tiltrec.sim._substream_starts

    def counting(seed, N):
        seeds.append(seed)
        return starts(seed, N)

    monkeypatch.setattr(tiltrec.sim, "_substream_starts", counting)
    for sigma2, calls in ((0.5, 2), (0.0, 1)):
        seeds.clear()
        cfg = _write_cfg(tmp_path, acquisition={"sigma2": sigma2})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "s"),
                     "simulate"]) == 0
        assert seeds == [TINY["seed"]] * calls
    seeds.clear()
    cfg = _write_cfg(tmp_path, experiment={"methods": ["admm"],
                                           "snrs_db": [3.0, -1.0]})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "e"),
                 "experiment"]) == 0
    # seed + trial: a clean draw and one noisy pass per trial, shared by
    # its two SNR cells
    assert sorted(seeds) == [3, 3, 4, 4]


def test_noisy_draw_forms_line_phases_once(tmp_path, monkeypatch):
    """One draw with an SNR target (its noiseless probe, then the noisy
    pass) forms the line phases of its (grid, quadrature) pair once, and
    projects 2 x (distinct drawn angles) x (2K+1) clean lines: the count
    the traced benchmark check pins per simulate."""
    cfg = load_config(str(_write_cfg(tmp_path)))
    spec, truth, p = _build_problem(cfg)
    acq = cfg["acquisition"]
    calls = []
    project = tiltrec.sim.project_clean
    monkeypatch.setattr(tiltrec.sim, "project_clean",
                        lambda *args: calls.append(1) or project(*args))
    misses = tiltrec.sim._line_phases.cache_info().misses
    [batch], _ = _draw_batch(acq, truth, p, build_line_grid(acq["L"]),
                             build_quadrature(spec.c, 24), cfg["seed"], [3.0])
    assert tiltrec.sim._line_phases.cache_info().misses == misses + 1
    assert batch.sigma2 > 0
    assert len(calls) == (2 * np.unique(batch.hidden_angles).size
                          * (2 * acq["K"] + 1))


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


def _fake_libc(calls):
    def malloc_trim(pad):   # a function, so argtypes and restype can be set
        calls.append(pad)
    return SimpleNamespace(malloc_trim=malloc_trim)


def _no_libc(error):
    def cdll(name):
        raise error("no C library to load")
    return cdll


def test_commands_end_with_malloc_trim(tmp_path, monkeypatch):
    """Each command, failing or not, ends with one malloc_trim(0) where the
    C library has it, and writes the same files where the library has no
    malloc_trim or cannot be loaded."""
    cfg = _write_cfg(tmp_path)
    calls = []
    libc = _fake_libc(calls)
    monkeypatch.setattr("tiltrec.cli.ctypes.CDLL", lambda name: libc)
    ref = tmp_path / "ref"
    assert main(["--config", str(cfg), "--out", str(ref), "simulate"]) == 0
    assert main(["--config", str(tmp_path / "missing.json"), "--out",
                 str(tmp_path / "x"), "simulate"]) == 2
    assert calls == [0, 0]
    assert libc.malloc_trim.argtypes == [ctypes.c_size_t]
    for i, cdll in enumerate((lambda name: object(), _no_libc(OSError),
                              _no_libc(TypeError))):
        monkeypatch.setattr("tiltrec.cli.ctypes.CDLL", cdll)
        out = tmp_path / f"run{i}"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
        assert ((out / "batch.dat").read_bytes()
                == (ref / "batch.dat").read_bytes())


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
    """extra.solver holds one record per stage, the same for every solver:
    n_iter, converged, the stop reason, and the last row of the stage's
    history file, column by column."""
    cfg, sim_out = sim_run
    out = tmp_path / "rec"
    assert main(["--config", str(cfg), "--out", str(out), "--method",
                 "admm+em", "reconstruct", str(sim_out / "batch.dat")]) == 0
    manifest = json.loads((out / "manifest_reconstruct.json").read_text())
    admm, em = manifest["extra"]["solver"]
    for record in (admm, em):
        with open(out / f"{record['solver']}_history.csv") as fh:
            last = list(csv.DictReader(fh))[-1]
        assert record == {"solver": record["solver"],
                          "n_iter": record["n_iter"],
                          "converged": record["stop_reason"] == "tolerance",
                          "stop_reason": record["stop_reason"],
                          **{key: float(val) for key, val in last.items()}}
        assert record["iter"] == record["n_iter"]
    assert admm["solver"] == "admm" and em["solver"] == "em"
    assert (admm["n_iter"], admm["stop_reason"]) == (5, "max_iter")
    assert set(admm) - set(em) == {"objective", "primal_residual",
                                   "dual_residual", "lagrangian"}
    assert set(em) - set(admm) == {"log_likelihood"}
    assert 1 <= em["n_iter"] <= 3
    assert em["stop_reason"] in ("tolerance", "max_iter")


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
    from the bytes its one streamed pass read, as load_batch's digest is:
    the file is not read a second time."""
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
    assert manifest["inputs"][str(batch)] == load_batch(batch).source_sha256


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


@pytest.fixture(scope="module")
def blocked_run(tmp_path_factory):
    """(config, simulate output, in-memory batch) of a 7200-record batch, 8
    record blocks with a short last one, on an R=4 basis (n_a = 3) read at
    12 nodes: EM's whitened record block (rank 12 of L = 32 lines) is 0.75
    of the raw block, as at em_records_large's geometry (rank 50 of 128,
    0.78).  The payload is 9.2 MB.  The in-memory batch is the one simulate
    wrote, drawn again by the same helper."""
    tmp = tmp_path_factory.mktemp("blocked")
    cfg = _write_cfg(tmp, phantom={"R": 4.0, "seed": 11},
                     acquisition={"N": 7200, "K": 2, "alpha_deg": 3.8,
                                  "L": 32, "sigma2": 0.5},
                     solver={"n_xi": 12})
    out = tmp / "run"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
    conf = load_config(str(cfg))
    spec, truth, p = _build_problem(conf)
    acq = conf["acquisition"]
    [batch], _ = _draw_batch(acq, truth, p, build_line_grid(acq["L"]),
                             build_quadrature(spec.c, conf["solver"]["n_xi"]),
                             conf["seed"], [None])
    assert -(-batch.N // tiltrec.sim._REDUCE_BLOCK) == 8
    return cfg, out, batch


@pytest.mark.parametrize("method", ["em", "admm"])
def test_reconstruct_holds_one_record_block(blocked_run, tmp_path, method):
    """reconstruct streams its batch file: at its peak it has allocated
    (as tracemalloc sees numpy's buffers) less than half the payload's
    bytes, where reading the payload whole would take all of it."""
    cfg, sim_out, batch = blocked_run
    argv = ["--config", str(cfg), "--out", str(tmp_path / method),
            "--method", method, "reconstruct", str(sim_out / "batch.dat")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * batch.samples.nbytes, (peak, batch.samples.nbytes)


def test_file_and_memory_routes_are_bitwise_equal(blocked_run):
    """One pass over the saved batch's blocks gives bitwise the features,
    mu_norm, Y and data_norm2 that the in-memory batch it was written from
    gives, and reads it whole: its digest is the file's sha256, as
    load_batch's is."""
    cfg, sim_out, batch = blocked_run
    conf = load_config(str(cfg))
    spec, _, _ = _build_problem(conf)
    quad = build_quadrature(spec.c, conf["solver"]["n_xi"])
    path = sim_out / "batch.dat"
    with contextlib.closing(BatchFile(path)) as src:
        _, (features, mu_norm, work, _) = _file_statistics(
            src, ["admm+em"], quad, spec)
    mem_features, mem_mu_norm, mem_work, _ = _batch_statistics(
        ["admm+em"], batch, quad, spec)
    for field in dataclasses.fields(features):
        assert np.array_equal(getattr(features, field.name),
                              getattr(mem_features, field.name)), field.name
    assert mu_norm == mem_mu_norm == features.mu_norm
    assert np.array_equal(work.Y, mem_work.Y)
    assert np.array_equal(work.data_norm2, mem_work.data_norm2)
    assert np.array_equal(src.hidden_angles, batch.hidden_angles)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert src.source_sha256 == load_batch(path).source_sha256 == digest


def test_simulate_holds_one_record_block(tmp_path):
    """simulate streams its draw: at its peak it has allocated (as
    tracemalloc sees numpy's buffers and the draw's Python objects) less
    than half the payload's bytes, where drawing the batch whole would take
    all of it.  Besides one record block and the angle table the draw holds
    each record's label and substream state, about 0.5 kB a record, so the
    records here are 5 kB (K = 2, L = 128); N = 7200 is 8 record blocks,
    the last short, and a 37 MB payload."""
    cfg = _write_cfg(tmp_path, phantom={"R": 4.0, "seed": 11},
                     acquisition={"N": 7200, "K": 2, "alpha_deg": 3.8,
                                  "L": 128, "sigma2": 0.5},
                     solver={"n_xi": 12})
    out = tmp_path / "sim"
    tracemalloc.start()
    try:
        assert main(["--config", str(cfg), "--out", str(out),
                     "simulate"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    payload = 8 * 7200 * 5 * 128
    assert (out / "batch.dat").stat().st_size > payload
    assert peak < 0.5 * payload, (peak, payload)


@pytest.mark.parametrize("acquisition", [
    {"target_snr_db": 3.0}, {"sigma2": 0.5}, {"sigma2": 0.0}],
    ids=["snr_target", "sigma2", "noiseless"])
def test_streamed_batch_file_equals_collected_batch(tmp_path, monkeypatch,
                                                    acquisition):
    """simulate's batch file, drawn and written 64 records a block
    (N = 150: three blocks, the last short), is byte for byte the file
    save_batch writes for generate_batch's batch at the header's sigma2."""
    monkeypatch.setattr("tiltrec.sim._REDUCE_BLOCK", 64)
    path = _write_cfg(tmp_path, acquisition={"N": 150, **acquisition})
    out = tmp_path / "run"
    assert main(["--config", str(path), "--out", str(out), "simulate"]) == 0
    cfg = load_config(str(path))
    spec, truth, p = _build_problem(cfg)
    acq = cfg["acquisition"]
    sigma2 = load_batch(out / "batch.dat").sigma2
    assert (sigma2 > 0) == (acquisition != {"sigma2": 0.0})
    save_batch(generate_batch(truth, p, acq["N"], acq["K"],
                              math.radians(acq["alpha_deg"]), sigma2,
                              build_line_grid(acq["L"]),
                              build_quadrature(spec.c, cfg["solver"]["n_xi"]),
                              seed=cfg["seed"]), tmp_path / "collected.dat")
    assert (out / "batch.dat").read_bytes() == (
        tmp_path / "collected.dat").read_bytes()


@pytest.mark.parametrize("overrides", [
    {}, {"phantom": {"R": 8.0}, "distribution": {"n_theta": 24},
         "acquisition": {"N": 4000, "K": 6, "alpha_deg": 1.5, "L": 32}},
    {"phantom": {"R": 8.0}, "distribution": {"n_theta": 24},
     "acquisition": {"N": 3000, "K": 6, "alpha_deg": 7.5, "L": 128}}],
    ids=["tiny", "pipeline_default", "em_records_large"])
def test_clean_variance_from_the_angle_table(tmp_path, overrides):
    """The noiseless probe's clean variance, from its angle table and label
    counts, is within 1e-12 relative of the one-pass variance of the whole
    clean batch it replaced (at the geometries of the tiny config and two
    benchmark workloads), and bitwise the same sums read off that batch's
    records."""
    cfg = load_config(str(_write_cfg(tmp_path, **overrides)))
    spec, truth, p = _build_problem(cfg)
    acq = cfg["acquisition"]
    args = (truth, p, acq["N"], acq["K"], math.radians(acq["alpha_deg"]),
            0.0, build_line_grid(acq["L"]),
            build_quadrature(spec.c, cfg["solver"]["n_xi"]))
    clean_var = _variance(*BatchDraw(*args, seed=cfg["seed"]).clean_sums)
    clean = generate_batch(*args, seed=cfg["seed"])
    whole = sample_variance(clean.samples)
    assert abs(clean_var - whole) <= 1e-12 * whole, (clean_var, whole)
    assert clean_var == table_variance(clean)


def _bad_blocked_file(blob, header_end, n_main, defect, pipe):
    """blob, a saved batch whose header line ends at header_end and whose
    samples are n_main float64s, with one defect in its last block or
    past it, or with a header N whose N-row arrays memory cannot hold: a
    regular file's size check refuses that first, a pipe's N-row
    allocation by name."""
    if defect in ("n_past_memory", "n_past_array_size"):
        N = 2 ** 44 if defect == "n_past_memory" else 2 ** 62
        header = dict(json.loads(blob[:header_end]), N=N)
        return (json.dumps(header).encode() + b"\n" + blob[header_end:],
                re.escape(f"header field 'N' = {N} gives an array of shape "
                          f"({N}, ") if pipe
                else r"payload holds \d+ bytes, header implies")
    samples_end = header_end + 8 * n_main
    if defect == "nan_in_last_block":
        at = samples_end - 8 * 37
        return (blob[:at] + np.float64(np.nan).tobytes() + blob[at + 8:],
                "non-finite samples")
    if defect == "truncated_last_block":
        return blob[:samples_end - 8 * 1000], r"payload holds \d+ bytes"
    if defect == "trailing_bytes":
        return blob + bytes(16), "header implies"
    n_theta = json.loads(blob[:header_end])["n_theta"]
    return (blob[:-8] + np.float64(n_theta).tobytes(),
            re.escape("hidden angles that are not integers in [0, n_theta)"))


@pytest.mark.parametrize("pipe", [False, True], ids=["file", "fifo"])
@pytest.mark.parametrize("defect", ["nan_in_last_block",
                                    "truncated_last_block", "trailing_bytes",
                                    "hidden_angle_past_n_theta",
                                    "n_past_memory", "n_past_array_size"])
def test_streamed_reconstruct_rejects_bad_files(blocked_run, tmp_path,
                                                monkeypatch, capsys, defect,
                                                pipe):
    """A NaN sample in the last record block, a truncated last block,
    trailing bytes, a hidden angle >= n_theta and a header N (2**44, or
    2**62 past numpy's array size) whose EM statistics memory cannot hold
    each stop reconstruct with exit 2 and a ConfigError naming the bad
    field, read from a file or a FIFO (whose size is known only at its
    end), before any solver runs and with no estimate written."""
    cfg, sim_out, batch = blocked_run
    blob = (sim_out / "batch.dat").read_bytes()
    bad, expected = _bad_blocked_file(blob, blob.index(b"\n") + 1,
                                      batch.samples.size, defect, pipe)

    def no_solver(*args, **kwargs):
        raise AssertionError("a solver ran on a bad batch file")

    monkeypatch.setattr("tiltrec.cli._run_methods", no_solver)
    path, writer = tmp_path / "bad.dat", None
    if pipe:
        os.mkfifo(path)

        def write():
            with contextlib.suppress(BrokenPipeError):
                path.write_bytes(bad)
        writer = threading.Thread(target=write)
        writer.start()
    else:
        path.write_bytes(bad)
    out = tmp_path / "rec"
    code = main(["--config", str(cfg), "--out", str(out), "--method",
                 "admm+em", "reconstruct", str(path)])
    if writer is not None:
        writer.join()
    assert code == 2
    assert re.search(expected, capsys.readouterr().err)
    assert not (out / "estimate.dat").exists()


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


def test_failed_em_stage_leaves_history(sim_run, tmp_path, monkeypatch,
                                        capsys):
    """An EM stage that fails on its second visit writes the one history
    row it gathered under the EM header, and the command exits 1."""
    cfg, sim_out = sim_run
    half_distances = EmWorkspace.half_distances
    calls = []

    def nan_on_second_call(self, a_values):
        calls.append(1)
        d = half_distances(self, a_values)
        return d if len(calls) != 2 else np.full_like(d, np.nan)

    monkeypatch.setattr(EmWorkspace, "half_distances", nan_on_second_call)
    out = tmp_path / "em"
    assert main(["--config", str(cfg), "--out", str(out), "--method", "em",
                 "reconstruct", str(sim_out / "batch.dat")]) == 1
    assert "non-finite at iteration 1" in capsys.readouterr().err
    rows = (out / "em_history.csv").read_text().splitlines()
    assert rows[0] == "iter,log_likelihood" and len(rows) == 2
    assert rows[1].startswith("0,")


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


def test_snr_below_stated_noise_reads_minus_inf(sim_run, tmp_path):
    """A batch whose header sigma2 exceeds its sample variance has no signal
    above the stated noise: reconstruct reports -inf dB, and evaluate
    carries it into report.csv, where a clamp would show a huge finite
    negative."""
    cfg, sim_out = sim_run
    batch = load_batch(sim_out / "batch.dat")
    assert sample_variance(batch.samples) < 1e3
    loud = tmp_path / "loud.dat"
    save_batch(dataclasses.replace(batch, sigma2=1e3), loud)
    rec = tmp_path / "rec"
    assert main(["--config", str(cfg), "--out", str(rec), "--method", "admm",
                 "reconstruct", str(loud)]) == 0
    _, _, meta, _ = load_coeff_file(rec / "estimate.dat")
    assert meta["snr_db"] == -math.inf
    out = tmp_path / "ev"
    assert main(["--out", str(out), "evaluate", str(sim_out / "truth.dat"),
                 str(rec / "estimate.dat")]) == 0
    row = (out / "report.csv").read_text().splitlines()[1].split(",")
    assert row[1] == "-inf"


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


@pytest.mark.parametrize("meta,field", [
    ([1, 2], "'meta'"), ({"seed": {"x": 1}}, "meta.seed"),
    ({"seed": "abc"}, "meta.seed"), ({"seed": True}, "meta.seed"),
    ({"method": 5}, "meta.method"), ({"snr_db": "high"}, "meta.snr_db"),
    ({"runtime_s": None}, "meta.runtime_s")],
    ids=["list", "seed_object", "seed_string", "seed_bool", "method_int",
         "snr_db_string", "runtime_s_null"])
def test_evaluate_rejects_malformed_meta(sim_run, tmp_path, capsys, meta,
                                         field):
    """An estimate whose meta is not an object, or holds a field evaluate
    reads with another JSON type, exits 2 with a message naming it."""
    _, sim_out = sim_run
    truth, p, _, _ = load_coeff_file(sim_out / "truth.dat")
    estimate = tmp_path / "estimate.dat"
    save_coeff_file(estimate, truth, p, meta)
    assert main(["--out", str(tmp_path / "ev"), "evaluate",
                 str(sim_out / "truth.dat"), str(estimate)]) == 2
    err = capsys.readouterr().err
    assert field in err and str(estimate) in err


def test_evaluate_missing_input(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "evaluate",
                 str(tmp_path / "a.dat"), str(tmp_path / "b.dat")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


# ----------------------------------------------------------- experiment

def _separate_runs_cell(cfg, spec, truth, p, snr, trial):
    """The reports and init hash of one (snr, trial) experiment cell, built
    from its own two generate_batch calls, one separate run_admm per ADMM
    stage, each at its own budget, and run_em."""
    acq, sol = cfg["acquisition"], cfg["solver"]
    quad = build_quadrature(spec.c, sol["n_xi"])
    seed, n_theta = cfg["seed"] + trial, p.n_theta

    def draw(sigma2):
        return generate_batch(truth, p, acq["N"], acq["K"],
                              math.radians(acq["alpha_deg"]), sigma2,
                              build_line_grid(acq["L"]), quad, seed=seed)

    clean_var = table_variance(draw(0.0))
    batch = draw(variance_for_snr(clean_var, snr))
    feats = empirical_moments(batch, quad, spec)

    def admm(key):
        return run_admm(feats, AdmmConfig(
            lam1=sol["lambda1"], lam2=sol["lambda2"], rho=sol["rho"],
            max_iter=sol[key], seed=seed), spec, n_theta)

    def em(a, pd, key):
        return run_em(EmWorkspace(transform_batch(batch, quad), spec,
                                  n_theta), a, pd, EmConfig(max_iter=sol[key]))

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
    h = hashlib.sha256(np.ascontiguousarray(a0).tobytes())
    h.update(np.ascontiguousarray(p0).tobytes())
    return reports, h.hexdigest()


def test_experiment_determinism_and_shared_inits(tmp_path):
    """2 SNRs x 2 trials: the report rows (runtime aside), the aggregate
    and the init hashes are the same at 1 and 2 threads, in (snr, trial)
    order, and equal those of separate draws and runs per cell."""
    snrs = [3.0, -1.0]
    cfg = _write_cfg(tmp_path, experiment={"snrs_db": snrs})
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

    def rows_and_hashes(out):
        rows = [r.split(",") for r in
                (out / "trial_reports.csv").read_text().splitlines()]
        keep = [i for i, name in enumerate(rows[0]) if name != "runtime_s"]
        manifest = json.loads((out / "manifest_experiment.json").read_text())
        return ([[r[i] for i in keep] for r in rows],
                manifest["extra"]["init_hashes"],
                manifest["extra"]["shared_inits"])

    rows, hashes, shared = rows_and_hashes(outs[0])
    assert rows_and_hashes(outs[1]) == (rows, hashes, shared)
    assert rows[0] == CSV_HEADER.split(",")[:-1]
    assert len(rows) == 1 + 2 * 2 * 3  # snrs x trials x methods
    assert shared is True

    conf = load_config(str(cfg))
    spec, truth, p = _build_problem(conf)
    cells = [_separate_runs_cell(conf, spec, truth, p, snr, trial)
             for snr in snrs for trial in range(2)]
    reports_to_csv([r for reports, _ in cells for r in reports],
                   tmp_path / "oracle.csv")
    assert [r.split(",")[:-1] for r in
            (tmp_path / "oracle.csv").read_text().splitlines()] == rows
    assert hashes == [dict.fromkeys(conf["experiment"]["methods"], h)
                      for _, h in cells]


def test_noiseless_draw_in_memory_is_its_own_clean_batch(tmp_path):
    """With no SNR target and sigma2 0, the draw helper's in-memory batch
    is noiseless and its clean variance is that batch's own."""
    cfg = load_config(str(_write_cfg(tmp_path, acquisition={"sigma2": 0.0})))
    spec, truth, p = _build_problem(cfg)
    acq = cfg["acquisition"]
    [batch], clean_var = _draw_batch(
        acq, truth, p, build_line_grid(acq["L"]),
        build_quadrature(spec.c, cfg["solver"]["n_xi"]), cfg["seed"], [None])
    assert isinstance(batch, TiltSeriesBatch) and batch.sigma2 == 0.0
    assert clean_var == table_variance(batch) > 0


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
    [(reports, hashes)] = _experiment_trial(cfg, spec, truth, p, 1)
    assert len(steps) == max(admm_iters, hybrid_admm_iters)
    assert len(set(hashes.values())) == 1
    assert ([dataclasses.replace(r, runtime=0.0) for r in reports],
            hashes["admm"]) == _separate_runs_cell(cfg, spec, truth, p,
                                                   3.0, 1)


def test_em_workspace_time_is_charged_to_every_em_method(monkeypatch):
    """The EM workspace is built once per batch and read by em and admm+em;
    its build time shows in both their runtimes and not in admm's."""
    delay, builds = 0.3, []

    def slow(*args):
        builds.append(1)
        time.sleep(delay)
        return EmWorkspace(*args)

    monkeypatch.setattr("tiltrec.cli.EmWorkspace", slow)
    cfg = _deep_merge(DEFAULT_CONFIG, TINY)
    spec, truth, p = _build_problem(cfg)
    [(reports, _)] = _experiment_trial(cfg, spec, truth, p, 0)
    runtime = {r.method: r.runtime for r in reports}
    assert len(builds) == 1
    assert runtime["em"] >= delay and runtime["admm+em"] >= delay
    assert runtime["admm"] < delay


def test_aggregate_matches_trial_reports(tmp_path):
    """Each aggregate.csv row holds, per method, the mean and population
    standard deviation of RE and TV and the success rate over the
    trial_reports.csv rows of its SNR (the achieved SNR, which meets the
    target to rounding)."""
    snrs = [3.0, -1.0]
    cfg = _write_cfg(tmp_path, experiment={"snrs_db": snrs, "trials": 3})
    out = tmp_path / "e"
    assert main(["--config", str(cfg), "--out", str(out),
                 "experiment"]) == 0
    with open(out / "trial_reports.csv") as fh:
        rows = list(csv.DictReader(fh))
    with open(out / "aggregate.csv") as fh:
        agg = list(csv.DictReader(fh))
    assert [float(a["snr_db"]) for a in agg] == snrs
    for a in agg:
        for m in TINY["experiment"]["methods"]:
            mine = [r for r in rows if r["method"] == m and abs(
                float(r["snr_db"]) - float(a["snr_db"])) <= 1e-9]
            assert len(mine) == 3
            key = m.replace("+", "_")
            for col in ("re", "tv"):
                vals = [float(r[col]) for r in mine]
                assert float(a[f"mean_{col}_{key}"]) == pytest.approx(
                    statistics.fmean(vals), rel=1e-14)
                assert float(a[f"std_{col}_{key}"]) == pytest.approx(
                    statistics.pstdev(vals), rel=1e-12, abs=1e-15)
            assert float(a[f"success_rate_{key}"]) == pytest.approx(
                statistics.fmean(int(r["success"]) for r in mine))
