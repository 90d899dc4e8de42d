"""Evaluation metrics: SNR, rotation-aligned relative error, shift-aligned
total variation, and score, which turns an estimate into its TrialReport.

Recovery is defined modulo the global rotation group, so both metrics
search over its discrete realization before comparing: relative error over
a rotation grid (exact in coefficient space thanks to steerability), total
variation over cyclic shifts of the distribution.  Each reads one table,
the errors over a rotation grid or the l1 distances over all shifts, and
the coupled joint_alignment reads both.  score alone fixes the grid
(10 n_theta rotations) and the success rule (RE <= threshold) that every
command reports.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .sim import ViewDistribution


@dataclass(frozen=True)
class TrialReport:
    method: str
    snr_db: float
    re: float
    tv: float
    aligned_rotation: float
    aligned_shift: int
    success: bool
    seed: int
    runtime: float

    def __post_init__(self):
        if self.re < 0:
            raise ConfigError("relative error cannot be negative")
        if not (0.0 <= self.tv <= 2.0 + 1e-12):
            raise ConfigError("total variation must lie in [0, 2]")


def snr_db(clean, sigma2):
    """10 log10(clean / sigma2): inf if sigma2 = 0, else -inf if clean <= 0."""
    if sigma2 < 0:
        raise ConfigError("noise variance cannot be negative")
    if sigma2 == 0:
        return math.inf
    return 10.0 * math.log10(clean / sigma2) if clean > 0 else -math.inf


def variance_for_snr(clean_variance, target_db):
    """Noise variance that makes snr_db hit the target."""
    return clean_variance / (10.0 ** (target_db / 10.0))


def _rotation_errors(truth, estimate, gammas):
    """||rot_gamma(estimate) - truth|| / ||truth|| in coefficient space, per
    gamma."""
    if (truth.spec.c, truth.spec.R) != (estimate.spec.c, estimate.spec.R):
        raise ConfigError("coefficients live on different bases")
    norm = np.linalg.norm(truth.values)
    if norm == 0:
        raise ConfigError("truth has zero norm; relative error undefined")
    steer = np.exp(-1j * np.outer(truth.spec.k_arr, gammas))
    return np.linalg.norm(steer * estimate.values[:, None]
                          - truth.values[:, None], axis=0) / norm


def _shift_distances(p, p_est):
    """l1 distance between p and p_est cyclically shifted by s, per s."""
    pv, ev = (x.p if isinstance(x, ViewDistribution) else np.asarray(x, float)
              for x in (p, p_est))
    if pv.shape != ev.shape:
        raise ConfigError("distributions have different lengths")
    n = pv.size
    shifted = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return np.abs(ev[shifted] - pv).sum(axis=1)


def relative_error(truth, estimate, n_search):
    """Min over an n_search rotation grid of ||rot(estimate) - truth|| /
    ||truth|| in coefficient space; returns (re, best rotation in radians)."""
    gammas = np.linspace(0.0, 2.0 * np.pi, int(n_search), endpoint=False)
    errors = _rotation_errors(truth, estimate, gammas)
    best = int(np.argmin(errors))
    return float(errors[best]), float(gammas[best])


def total_variation_dist(p, p_est):
    """Min over cyclic shifts of the l1 distance; returns (tv, best shift)."""
    dists = _shift_distances(p, p_est)
    best = int(np.argmin(dists))
    return float(dists[best]), best


def joint_alignment(truth_a, est_a, truth_p, est_p):
    """Couple the two searches: one shift l0 rotates the coefficients by
    2*pi*l0/n_theta AND shifts p, scoring the sum of both normalized
    discrepancies.  Diagnostic only; the reported metrics align separately."""
    tvs = _shift_distances(truth_p, est_p)
    res = _rotation_errors(truth_a, est_a,
                           2.0 * np.pi * np.arange(tvs.size) / tvs.size)
    best = int(np.argmin(res + tvs))
    return float(res[best]), float(tvs[best]), best


def score(truth_a, truth_p, est_a, est_p, threshold, **fields):
    """The TrialReport of an estimate against the truth: RE over the
    10*n_theta rotation grid, TV over cyclic shifts and success = RE <=
    threshold; fields gives the rest (method, snr_db, seed, runtime).
    reconstruct --truth reads only RE, TV and the alignment, so the grid and
    shift search stay in one place; its success flag is not used."""
    re, gamma = relative_error(truth_a, est_a, 10 * truth_p.n_theta)
    tv, shift = total_variation_dist(truth_p, est_p)
    return TrialReport(re=re, tv=tv, aligned_rotation=gamma,
                       aligned_shift=shift, success=re <= threshold, **fields)


CSV_HEADER = "method,snr_db,re,tv,success,seed,runtime_s"


def reports_to_csv(reports, path):
    rows = [CSV_HEADER]
    for r in reports:
        rows.append(
            f"{r.method},{r.snr_db:.17g},{r.re:.17g},{r.tv:.17g},"
            f"{int(r.success)},{r.seed},{r.runtime:.6f}")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
