"""Independent reference routes for the moment model and the ADMM solver.

The moment forms are explicit mixture sums over the angle grid, one steered
record per candidate angle, so they share no code with the factored
g = E p, H = E diag(p) E^H forms the package builds on.  The solver forms
work on the n_a x n_a coupling H(p) with n_a^3 products: the dense
second-moment operator, the second term tr(M^H G M G) - 2 Re<T_C, M> +
||C_w||^2, and a whole ADMM iteration, against which the package's
angle-Gram factorization is checked.
"""

import numpy as np

from tiltrec.errors import ConfigError
from tiltrec.moments import angle_coupling


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


def build_a2_matrix(work, fixed, H):
    """Dense route: the (M^2, n_a) matrix whose column i is
    vec(psi_i (Psi_w (fixed o conj(H[i, :])))^H).

    Applying it to x gives vec(Psi_w ((x fixed^H) o H) Psi_w^H).  Guarded
    against runaway sizes.
    """
    M = work.psi_w.shape[0]
    n_a = work.psi_w.shape[1]
    if M * M * n_a > 5e7:
        raise ConfigError(
            f"dense second-moment operator would hold {M * M * n_a} entries; "
            f"use the compressed route"
        )
    # H Hermitian makes fixed o conj(H[i, :]) the i-th column of fixed[:,None]*H
    U = work.psi_w @ (fixed[:, None] * H)
    out = np.empty((M * M, n_a), dtype=complex)
    for i in range(n_a):
        out[:, i] = np.outer(work.psi_w[:, i], U[:, i].conj()).ravel()
    return out


def dense_second_term(work, M):
    """||Psi_w M Psi_w^H - C_w||_F^2 for the n_a x n_a inner matrix M, as
    tr(M^H G M G) - 2 Re<T_C, M> + ||C_w||^2 clamped at 0."""
    quad = float(np.vdot(M, work.G @ M @ work.G).real)
    cross = float(np.vdot(work.T_C, M).real)
    return max(quad - 2.0 * cross + work.C_norm2, 0.0)


def dense_admm_iteration(state, config):
    """One run_admm iteration (a-, z-, p- and dual step, then the Lagrangian
    and the consensus objective) built on the n_a x n_a coupling H(p) and
    n_a^3 products.  Updates state in place; returns (lagrangian, objective).
    """
    work = state.work
    lam1, lam2, rho = config.lam1, config.lam2, config.rho
    G, T_C, E = work.G, work.T_C, work.E

    def consensus_solve(center, fixed, first):
        g = E @ state.p
        W = fixed[:, None] * angle_coupling(E, state.p)
        lhs = rho * np.eye(work.spec.n_a, dtype=complex)
        rhs = rho * center
        if first:
            lhs = lhs + lam1 * (np.conj(g)[:, None] * G * g[None, :])
            rhs = rhs + lam1 * np.conj(g) * work.t_mu
        lhs = lhs + lam2 * G * (W.conj().T @ (G @ W)).conj()
        rhs = rhs + lam2 * np.einsum("ij,ji->i", T_C, W)
        return np.linalg.solve(lhs, rhs)

    state.a = consensus_solve(state.z - state.s, state.z, lam1 > 0)
    state.z = consensus_solve(state.a + state.s, state.a, False)

    A_a = state.a[:, None] * E
    A_z = state.z[:, None] * E
    N_a = A_a.conj().T @ (G @ A_a)
    N_z = A_z.conj().T @ (G @ A_z)
    lhs = lam1 * N_a.real + lam2 * (N_a * N_z.conj()).real
    rhs = (lam1 * (A_a.conj().T @ work.t_mu).real
           + lam2 * np.einsum("li,ij,jl->l", A_a.conj().T, T_C, A_z).real)
    B = work.null_basis
    p_part = np.full(work.n_theta, 1.0 / work.n_theta)
    q, *_ = np.linalg.lstsq(B.T @ lhs @ B, B.T @ (rhs - lhs @ p_part),
                            rcond=None)
    state.p = p_part + B @ q
    state.s = state.s + state.a - state.z
    state.iter += 1

    def objective(x, y):
        M = np.outer(x, y.conj()) * angle_coupling(E, state.p)
        return (0.5 * lam1 * work.first_term(x * (E @ state.p))
                + 0.5 * lam2 * dense_second_term(work, M))

    gap = state.a - state.z + state.s
    lag = (objective(state.a, state.z)
           + 0.5 * rho * float(np.vdot(gap, gap).real)
           - 0.5 * rho * float(np.vdot(state.s, state.s).real))
    consensus = 0.5 * (state.a + state.z)
    return lag, objective(consensus, consensus)
