"""Independent reference routes for the moment model.

Both forms are explicit mixture sums over the angle grid, one steered
record per candidate angle, so they share no code with the factored
g = E p, H = E diag(p) E^H forms the package builds on.
"""

import numpy as np


def brute_force_moments(a, w, psi, spec):
    """sum_l w[l] v_l and sum_l w[l] v_l v_l^H with v_l = Psi (a o e_l);
    w is any real weight per angle (a distribution or a relaxed iterate)."""
    n_theta = len(w)
    mu = np.zeros(psi.shape[0], dtype=complex)
    C = np.zeros((psi.shape[0], psi.shape[0]), dtype=complex)
    for l in range(n_theta):
        phase = np.exp(1j * spec.k_arr * (2.0 * np.pi * l / n_theta))
        v = psi @ (a.values * phase)
        mu += w[l] * v
        C += w[l] * np.outer(v, v.conj())
    return mu, C


def dense_residuals(a, w, psi_w, features, lam1=1.0, lam2=0.5):
    """Weighted data-fit residuals and the scalar objective, formed densely.

    psi_w is the pre-weighted tilt matrix (d_w applied to its rows).  Returns
    (first-moment residual vector, second-moment residual matrix,
    lam1/2 * ||r1||^2 + lam2/2 * ||r2||_F^2).
    """
    mu_w, C_w = features.weighted()
    mu_m, C_m = brute_force_moments(a, w, psi_w, a.spec)
    r1 = mu_m - mu_w
    r2 = C_m - C_w
    obj = 0.5 * lam1 * float(np.vdot(r1, r1).real) + 0.5 * lam2 * float(
        np.vdot(r2, r2).real
    )
    return r1, r2, obj
