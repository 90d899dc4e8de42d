"""Metric tests: hand-checkable values, invariances, and the report CSV."""

import numpy as np
import pytest

from tiltrec.basis import FBCoeffs, build_basis_spec
from tiltrec.errors import ConfigError
from tiltrec.metrics import (CSV_HEADER, TrialReport, joint_alignment,
                             relative_error, reports_to_csv, score, snr_db,
                             total_variation_dist, variance_for_snr)
from tiltrec.sim import (ViewDistribution, bump_distribution, random_phantom,
                         uniform_distribution)

from oracles import column_index, joint_alignment_loop, pixel_relative_error


def _report(re=0.1, method="admm", seed=0, tv=0.05):
    return TrialReport(method=method, snr_db=3.0, re=re, tv=tv,
                       aligned_rotation=0.0, aligned_shift=0, success=re <= 0.3,
                       seed=seed, runtime=1.5)


# ----------------------------------------------------------------- snr

def test_snr_hand_values():
    assert snr_db(10.0, 10.0) == pytest.approx(0.0)
    assert snr_db(100.0, 1.0) == pytest.approx(20.0)
    # the reference operating point: variance 10 bursts of noise on a clean
    # signal of variance 557.19 sits at 17.46 dB
    assert snr_db(557.19, 10.0) == pytest.approx(17.46, abs=5e-3)
    assert snr_db(1.0, 0.0) == np.inf
    with pytest.raises(ConfigError):
        snr_db(1.0, -1.0)


def test_snr_without_signal_above_the_noise():
    """A clean variance <= 0 under noise reads -inf (no signal above it),
    not a math domain error; without noise it still reads inf."""
    for var in (0.0, -2.2e-16, -1.0):
        assert snr_db(var, 0.1) == -np.inf
        assert snr_db(var, 0.0) == np.inf


def test_variance_for_snr_inverts():
    for var, target in ((3.7, 6.6), (120.0, -4.4), (557.19, 17.46)):
        s2 = variance_for_snr(var, target)
        assert snr_db(var, s2) == pytest.approx(target, abs=1e-12)


# ------------------------------------------------------- relative error

def test_relative_error_identity(small_phantom):
    re, gamma = relative_error(small_phantom, small_phantom, 120)
    assert re == 0.0
    assert gamma == 0.0


def test_relative_error_grid_rotation(small_phantom):
    # rotating by a grid angle is inverted exactly by the search
    n = 24
    rot = small_phantom.rotated(2.0 * np.pi * 5 / n)
    re, gamma = relative_error(small_phantom, rot, 10 * n)
    assert re <= 1e-12
    assert gamma == pytest.approx(2.0 * np.pi * 19 / n)


def test_relative_error_scale():
    spec = build_basis_spec(0.3, 4.0)
    vals = np.zeros(spec.n_a, dtype=complex)
    vals[column_index(spec)[(0, 1)]] = 2.0
    a = FBCoeffs(vals, spec)
    b = FBCoeffs(-vals, spec)
    # purely radial content is rotation invariant: flipping the sign costs 2
    re, _ = relative_error(a, b, 36)
    assert re == pytest.approx(2.0)
    re_half, _ = relative_error(a, FBCoeffs(0.5 * vals, spec), 36)
    assert re_half == pytest.approx(0.5)


def test_relative_error_rejects_degenerate(small_phantom):
    spec = build_basis_spec(0.3, 4.0)
    zero = FBCoeffs(np.zeros(spec.n_a, dtype=complex), spec)
    with pytest.raises(ConfigError):
        relative_error(zero, zero, 12)
    with pytest.raises(ConfigError):
        relative_error(small_phantom, zero, 12)


def test_metrics_reject_other_basis():
    """Bases at c=0.3 and c=0.31 (R=8) both hold 30 functions; coefficients
    on one are not comparable with those on the other."""
    a, b = (random_phantom(build_basis_spec(c, 8.0), 1.0, seed=11)
            for c in (0.3, 0.31))
    assert a.spec.n_a == b.spec.n_a
    with pytest.raises(ConfigError, match="different bases"):
        relative_error(a, b, 24)
    p = uniform_distribution(8)
    with pytest.raises(ConfigError, match="different bases"):
        joint_alignment(a, b, p, p)


def test_pixel_error_tracks_coefficient_error(small_phantom):
    rot = small_phantom.rotated(2.0 * np.pi / 7)
    re, gamma = relative_error(small_phantom, rot, 700)
    pix = pixel_relative_error(small_phantom, rot, gamma, 16)
    assert pix < 5e-2
    assert re < 5e-2


# ------------------------------------------------------ total variation

def test_tv_hand_values():
    n = 6
    delta = np.zeros(n)
    delta[0] = 1.0
    tv, shift = total_variation_dist(delta, np.roll(delta, 2))
    assert tv == 0.0 and shift == 4
    tv_u, _ = total_variation_dist(delta, np.full(n, 1 / n))
    assert tv_u == pytest.approx(2.0 * (n - 1) / n)


def test_tv_accepts_distribution_objects(bump12):
    tv, shift = total_variation_dist(bump12, ViewDistribution(
        np.roll(bump12.p, 5), 12))
    assert tv <= 1e-14 and shift == 7
    with pytest.raises(ConfigError):
        total_variation_dist(bump12, uniform_distribution(10))


def test_tv_metric_properties():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a, b, c = (rng.dirichlet(np.ones(9)) for _ in range(3))
        tab, _ = total_variation_dist(a, b)
        tba, _ = total_variation_dist(b, a)
        assert tab == pytest.approx(tba, abs=1e-12)
        tac, _ = total_variation_dist(a, c)
        tcb, _ = total_variation_dist(c, b)
        assert tab <= tac + tcb + 1e-12
        assert 0.0 <= tab <= 2.0


# ------------------------------------------------------ joint alignment

def test_joint_alignment_couples_rotation_and_shift(small_phantom, bump30):
    l0 = 11
    gamma = 2.0 * np.pi * l0 / 30
    est_a = small_phantom.rotated(gamma)
    est_p = ViewDistribution(np.roll(bump30.p, l0), 30)
    re, tv, shift = joint_alignment(small_phantom, est_a, bump30, est_p)
    assert shift == (30 - l0) % 30
    assert re <= 1e-12 and tv <= 1e-12


def test_joint_alignment_consistent_with_separate(small_phantom, bump30):
    rng = np.random.default_rng(3)
    est_a = FBCoeffs(small_phantom.values
                     * (1 + 0.05 * rng.standard_normal(small_phantom.spec.n_a)),
                     small_phantom.spec, real_symmetric=False)
    est_p = ViewDistribution(rng.dirichlet(30 * bump30.p + 0.5), 30)
    re_j, tv_j, shift = joint_alignment(small_phantom, est_a, bump30, est_p)
    re_s, gamma_s = relative_error(small_phantom, est_a, 300)
    tv_s, _ = total_variation_dist(bump30, est_p)
    # separate searches can only do better, and the coupled rotation stays
    # within one grid step of the separate optimum
    assert re_s <= re_j + 1e-12
    assert tv_s <= tv_j + 1e-12
    gap = abs((2.0 * np.pi * shift / 30 - gamma_s + np.pi) % (2 * np.pi) - np.pi)
    assert gap <= 2.0 * np.pi / 30 + 1e-12


def test_joint_alignment_matches_per_shift_loop(small_phantom, bump30):
    """The coupled search read off the shared rotation and shift tables
    picks the per-shift loop's shift and TV, and its RE to 1e-15 (in units
    of the truth norm; the two sum the squares in different orders), for
    random estimates and for exactly rotated and shifted ones."""
    rng = np.random.default_rng(5)
    spec = small_phantom.spec
    for case in range(40):
        n = int(rng.integers(1, 40))
        truth_p = ViewDistribution(rng.dirichlet(np.ones(n)), n)
        if case % 4 == 0:
            l0 = int(rng.integers(n))
            est_a = small_phantom.rotated(2.0 * np.pi * l0 / n)
            est_p = ViewDistribution(np.roll(truth_p.p, l0), n)
        else:
            est_a = FBCoeffs(rng.standard_normal(spec.n_a)
                             + 1j * rng.standard_normal(spec.n_a), spec)
            est_p = ViewDistribution(rng.dirichlet(np.ones(n)), n)
        re, tv, shift = joint_alignment(small_phantom, est_a, truth_p, est_p)
        re_o, tv_o, shift_o = joint_alignment_loop(small_phantom, est_a,
                                                   truth_p, est_p)
        assert (tv, shift) == (tv_o, shift_o)
        assert abs(re - re_o) <= 1e-15 * max(re_o, 1.0)


def test_score_is_the_reported_alignment(small_phantom, bump30):
    """score reports RE over the 10*n_theta grid, TV over shifts and
    success against the threshold, with the caller's fields."""
    est_a = small_phantom.rotated(2.0 * np.pi * 7 / 300)
    est_p = ViewDistribution(np.roll(bump30.p, 4), 30)
    fields = dict(method="em", snr_db=1.5, seed=9, runtime=0.25)
    for threshold, success in ((0.3, True), (-1.0, False)):
        report = score(small_phantom, bump30, est_a, est_p, threshold,
                       **fields)
        re, gamma = relative_error(small_phantom, est_a, 300)
        tv, shift = total_variation_dist(bump30, est_p)
        assert report == TrialReport(re=re, tv=tv, aligned_rotation=gamma,
                                     aligned_shift=shift, success=success,
                                     **fields)
    assert report.re <= 1e-12 and shift == 26


# ------------------------------------------------------------- reports

def test_trial_report_validation():
    with pytest.raises(ConfigError):
        _report(re=-0.1)
    with pytest.raises(ConfigError):
        _report(tv=2.5)


def test_reports_csv_golden(tmp_path):
    path = tmp_path / "r.csv"
    reports = [TrialReport(method="em", snr_db=-4.4, re=0.25, tv=0.125,
                           aligned_rotation=0.0, aligned_shift=3, success=True,
                           seed=7, runtime=2.25)]
    reports_to_csv(reports, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER == "method,snr_db,re,tv,success,seed,runtime_s"
    assert lines[1] == "em,-4.4000000000000004,0.25,0.125,1,7,2.250000"
