"""Simulate projection tilt series and check the measurement bookkeeping.

Each record picks a hidden view angle from a discrete distribution, projects
the object along 2K+1 tilts around that angle, samples the projections on L
detector points, and adds white noise.  The script verifies the facts the
estimators rely on: the target SNR is hit by construction, the empirical
moment features converge at the Monte Carlo rate to the population moments of
the generating process, and those in turn approach the continuous-model
features as the detector grid is refined.  Moments are compared in the
QR coordinates of the weighted tilt matrix, the one basis the features are
expressed in (b1 = Q^H mu_w, B2 = Q^H C_w Q), fixed by the acquisition
geometry and the same for every N and L.
"""

import math

import numpy as np

from tiltrec.basis import build_basis_spec, build_quadrature, eval_tilt_matrix
from tiltrec.metrics import snr_db, variance_for_snr
from tiltrec.moments import (empirical_moments, population_features,
                             weight_diagonal, weighted_qr)
from tiltrec.sim import (ViewDistribution, build_line_grid, bump_distribution,
                        generate_batch, random_phantom)
from tiltrec.spectral import dft_matrix

DEG = math.pi / 180.0


def q_weights(spec, quad, K, alpha):
    """d_w Q: a record's node spectrum y maps to its Q coordinates
    (d_w Q)^H y."""
    psi = eval_tilt_matrix(spec, quad, K, alpha)
    return weight_diagonal(quad, K)[:, None] * weighted_qr(psi, quad, K)[0]


def batch_population_moments(truth, p, K, alpha, grid, quad, Q_w):
    """Exact moments (b1, B2) of the (noiseless) generating process in Q
    coordinates: one clean record per angle, weighted by p."""
    b1 = 0.0
    B2 = 0.0
    for l in range(p.n_theta):
        onehot = np.zeros(p.n_theta)
        onehot[l] = 1.0
        one = generate_batch(truth, ViewDistribution(onehot, p.n_theta), 1,
                             K, alpha, 0.0, grid, quad, seed=0)
        yhat = one.samples @ dft_matrix(one.grid, quad).T
        z = Q_w.conj().T @ yhat.ravel()
        b1 = b1 + p.p[l] * z
        B2 = B2 + p.p[l] * z[:, None] * z.conj()[None, :]
    return b1, B2


def main():
    spec = build_basis_spec(0.3, 8.0)
    quad = build_quadrature(spec.c, 32)
    grid = build_line_grid(32)
    p = bump_distribution(16, loc=1.1, kappa=2.5)
    truth = random_phantom(spec, decay=1.0, seed=11)
    K, alpha = 6, 3.8 * DEG

    clean = generate_batch(truth, p, 2000, K, alpha, 0.0, grid, quad, seed=0)
    v = float(clean.samples.var())
    print(f"clean batch: 2000 records x {2 * K + 1} tilts x {grid.L} "
          f"samples, signal variance {v:.4f}")

    for target in (10.0, 0.0, -5.0):
        s2 = variance_for_snr(v, target)
        noisy = generate_batch(truth, p, 2000, K, alpha, s2, grid, quad,
                               seed=0)
        achieved = snr_db(float(noisy.samples.var()) - s2, s2)
        print(f"  target {target:+6.2f} dB -> sigma2 {s2:9.4f}, measured "
              f"{achieved:+6.2f} dB")

    # empirical moments converge to the generating process's own population
    # moments at the Monte Carlo rate; subtracting sigma2 from the diagonal
    # of the line-sample second moment keeps them unbiased
    s2 = variance_for_snr(v, 0.0)
    mu_pop, c_pop = batch_population_moments(
        truth, p, K, alpha, grid, quad, q_weights(spec, quad, K, alpha))
    print("\nempirical vs population moments at 0 dB "
          "(relative error, ~1/sqrt(N)):")
    for n in (500, 5000, 50000):
        batch = generate_batch(truth, p, n, K, alpha, s2, grid, quad, seed=1)
        feats = empirical_moments(batch, quad, spec)
        e1 = np.linalg.norm(feats.b1 - mu_pop) / np.linalg.norm(mu_pop)
        e2 = np.linalg.norm(feats.B2 - c_pop) / np.linalg.norm(c_pop)
        print(f"  N={n:6d}: first moment {e1:.4f}, second moment {e2:.4f}")

    # the process moments themselves approach the continuous-model features
    # as the detector window widens (the gap is truncation of the
    # projection tails, a property of the acquisition, not the estimator);
    # wider windows need more radial quadrature nodes because the sample
    # synthesis integrand oscillates like 2*pi*c*x at detector position x
    quad64 = build_quadrature(spec.c, 64)
    Q_w64 = q_weights(spec, quad64, K, alpha)
    psi = eval_tilt_matrix(spec, quad64, K, alpha)
    feats_model = population_features(truth, p, psi, quad64, K, alpha)
    mu_m, c_m = feats_model.b1, feats_model.B2
    print("\ndetector window truncation gap to the continuous model:")
    for L in (32, 64, 128):
        g = build_line_grid(L)
        mu_b, c_b = batch_population_moments(truth, p, K, alpha, g, quad64,
                                             Q_w64)
        e1 = np.linalg.norm(mu_b - mu_m) / np.linalg.norm(mu_m)
        e2 = np.linalg.norm(c_b - c_m) / np.linalg.norm(c_m)
        print(f"  L={L:4d}: first moment {e1:.2e}, second moment {e2:.2e}")


if __name__ == "__main__":
    main()
