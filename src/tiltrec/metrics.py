"""Evaluation metrics: SNR, rotation-aligned relative error, shift-aligned
total variation, and success rates.

Recovery is defined modulo the global rotation group, so both metrics
search over its discrete realization before comparing: relative error over
a rotation grid (exact in coefficient space thanks to steerability), total
variation over cyclic shifts of the distribution.
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
    """10 log10(Var / sigma2) for the clean-signal variance Var."""
    var = float(clean)
    if sigma2 < 0:
        raise ConfigError("noise variance cannot be negative")
    if sigma2 == 0:
        return math.inf
    return 10.0 * math.log10(var / sigma2)


def variance_for_snr(clean_variance, target_db):
    """Noise variance that makes snr_db hit the target."""
    return clean_variance / (10.0 ** (target_db / 10.0))


def relative_error(truth, estimate, n_search):
    """Min over an n_search rotation grid of ||rot(estimate) - truth|| /
    ||truth|| in coefficient space; returns (re, best rotation in radians)."""
    if (truth.spec.c, truth.spec.R) != (estimate.spec.c, estimate.spec.R):
        raise ConfigError("coefficients live on different bases")
    norm = np.linalg.norm(truth.values)
    if norm == 0:
        raise ConfigError("truth has zero norm; relative error undefined")
    gammas = np.linspace(0.0, 2.0 * np.pi, int(n_search), endpoint=False)
    steer = np.exp(-1j * np.outer(truth.spec.k_arr, gammas))
    dist = np.linalg.norm(
        steer * estimate.values[:, None] - truth.values[:, None], axis=0)
    best = int(np.argmin(dist))
    return float(dist[best] / norm), float(gammas[best])


def total_variation_dist(p, p_est):
    """Min over cyclic shifts of the l1 distance; returns (tv, best shift)."""
    pv = p.p if isinstance(p, ViewDistribution) else np.asarray(p, float)
    ev = p_est.p if isinstance(p_est, ViewDistribution) else np.asarray(p_est, float)
    if pv.shape != ev.shape:
        raise ConfigError("distributions have different lengths")
    n = pv.size
    dists = [np.abs(np.roll(ev, s) - pv).sum() for s in range(n)]
    best = int(np.argmin(dists))
    return float(dists[best]), best


def joint_alignment(truth_a, est_a, truth_p, est_p):
    """Couple the two searches: one shift l0 rotates the coefficients by
    2*pi*l0/n_theta AND shifts p, scoring the sum of both normalized
    discrepancies.  Diagnostic only; the reported metrics align separately."""
    pv = truth_p.p if isinstance(truth_p, ViewDistribution) else np.asarray(truth_p)
    ev = est_p.p if isinstance(est_p, ViewDistribution) else np.asarray(est_p)
    if (truth_a.spec.c, truth_a.spec.R) != (est_a.spec.c, est_a.spec.R):
        raise ConfigError("coefficients live on different bases")
    n = pv.size
    norm = np.linalg.norm(truth_a.values)
    if norm == 0:
        raise ConfigError("truth has zero norm")
    best = None
    for l0 in range(n):
        gamma = 2.0 * np.pi * l0 / n
        re = np.linalg.norm(
            est_a.values * np.exp(-1j * truth_a.spec.k_arr * gamma)
            - truth_a.values) / norm
        tv = np.abs(np.roll(ev, l0) - pv).sum()
        score = re + tv
        if best is None or score < best[0]:
            best = (score, float(re), float(tv), l0)
    return best[1], best[2], best[3]


def success_rate(reports, threshold=0.3):
    """Fraction of trials with re <= threshold."""
    if not reports:
        raise ConfigError("no reports to aggregate")
    hits = sum(1 for r in reports if r.re <= threshold)
    return hits / len(reports)


CSV_HEADER = "method,snr_db,re,tv,success,seed,runtime_s"


def reports_to_csv(reports, path):
    rows = [CSV_HEADER]
    for r in reports:
        rows.append(
            f"{r.method},{r.snr_db:.17g},{r.re:.17g},{r.tv:.17g},"
            f"{int(r.success)},{r.seed},{r.runtime:.6f}")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
