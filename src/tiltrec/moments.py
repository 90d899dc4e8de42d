"""Moment features of tilt-series ensembles, in the QR coordinates of the
weighted tilt matrix Psi_w = d_w Psi = Q R (d_w = sqrt(w_j xi_j), tiled
across tilts).

The weighted moments of a record depend on the angle distribution p only
through the angle-phase matrix E (E[i, l] = exp(i k_i phi_l)): with
g = E p and H = E diag(p) E^H, mu_w = Psi_w (a o g) and
C_w = Psi_w ((a a^H) o H) Psi_w^H.  Solvers see them only as b1 = Q^H mu_w
and B2 = Q^H C_w Q in a MomentModel; the rest is a constant they cannot fit.
So population features are b1 = R (a o g) and
B2 = (R A_a) diag(p) (R A_a)^H with A_a = diag(a) E, and empirical ones map
each record's real line samples to Q coordinates, Z = X Phi_Q with
Phi_Q = F_b^H D_w Q, and debias B2 = Z^H Z / N - sigma2 Phi_Q^H Phi_Q.  No
wide moment matrix is formed.  The weighted first moment alone
(first_moment) scales the shared random start, so EM-only runs skip B2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, FBCoeffs, QuadratureGrid, eval_tilt_matrix
from .errors import ConfigError
from .sim import TiltSeriesBatch
from .spectral import blockwise_mean_outer, dft_matrix


def angle_phase_matrix(spec: BasisSpec, n_theta: int) -> np.ndarray:
    """E[i, l] = exp(i * k_i * phi_l), shape (n_a, n_theta).

    Column l is the coefficient-domain steering phase of angle phi_l; it ties
    the factored moment forms to sums over the angle grid:
    g = E @ p and H = sum_l p[l] e_l e_l^H.
    """
    phi = 2.0 * np.pi * np.arange(n_theta) / n_theta
    return np.exp(1j * np.outer(spec.k_arr, phi))


def angle_coupling(E: np.ndarray, w: np.ndarray) -> np.ndarray:
    """E diag(w) E^H = sum_l w[l] e_l e_l^H for a real weight per angle.

    With w = p this is the second-moment coupling H(p); any real w (a
    relaxed p, EM column masses) gives the same Hermitian form.
    """
    return (E * w[None, :]) @ E.conj().T


def weight_diagonal(quad: QuadratureGrid, K: int) -> np.ndarray:
    """Entries sqrt(w_j xi_j), tiled over the 2K+1 tilt blocks."""
    return np.tile(np.sqrt(quad.weights * quad.nodes), 2 * K + 1)


def weighted_qr(psi: np.ndarray, quad: QuadratureGrid,
                K: int) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR (Q, R) of the weighted tilt matrix Psi_w = d_w Psi: the
    coordinates every moment feature is expressed in."""
    return np.linalg.qr(weight_diagonal(quad, K)[:, None] * psi)


@dataclass(frozen=True)
class MomentFeatures:
    """Debiased (or population) moments in the QR coordinates of Psi_w.

    R is the triangular factor of Psi_w = Q R, b1 = Q^H mu_w and
    B2 = Q^H C_w Q (Hermitian).  mu_norm = ||mu_w|| sets the scale of the
    random start.  K and alpha record the tilt geometry.
    """

    R: np.ndarray
    b1: np.ndarray
    B2: np.ndarray
    mu_norm: float
    K: int
    alpha: float

    def __post_init__(self):
        m = self.R.shape[0]
        if self.b1.shape != (m,) or self.B2.shape != (m, m):
            raise ConfigError(
                f"moment shapes {self.b1.shape}/{self.B2.shape} inconsistent "
                f"with R of shape {self.R.shape}"
            )


class MomentModel:
    """The moment model of features on the n_theta-point angle grid, which
    every moment solver reads.  Its cost couples coefficients x, y and a
    real angle weight p (sum(p) = 1, signs free) through

        lam1/2 ||R (x o g) - b1||^2
      + lam2/2 ||(R A_x) diag(p) (R A_y)^H - B2||_F^2 ,   A_x = diag(x) E,

    g = E p; at a fit x = y = a.  These are the wide residuals in mu_w and
    C_w less the data outside the range of Q, a constant; formed as norms,
    they vanish at an exact fit.

    The normal equations read the data as G = R^H R, t_mu = R^H b1 and
    T_C = R^H B2 R.  For rank-one blocks <psi_i u_i^H, psi_j u_j^H>_F =
    (psi_j^H psi_i) (u_i^H u_j), so Grams of sums of rank-one terms are
    Schur products of small Grams, and every second-moment quantity
    factors through the pieces A_y, R A_y, N_y = A_y^H G A_y (the angle
    Gram) and T_C A_y, since (x y^H) o H(p) = A_x diag(p) A_y^H.  The first
    moment is the second moment's cross term with the constant partner 1:
    g g^H = E_p 11^T E_p^H and conj(g) o t_mu = ((t_mu 1^T) o conj(E)) p,
    with E_p = E diag(p).  So one Schur pair against a fixed partner y,

        M_y = lam1 11^T + lam2 N_y ,   D_y = lam1 t_mu 1^T + lam2 T_C A_y ,

    carries both terms into the normal equations of x (for fixed y and p)
    and of p (for fixed x and y).  pieces(y) keeps the pieces of the last
    two vectors.  null_basis is an orthonormal basis of {q : sum(q) = 0},
    so p = 1/n_theta + null_basis q spans sum(p) = 1.  features, spec and
    n_theta are the objects the model was built from.
    """

    def __init__(self, features: MomentFeatures, spec: BasisSpec,
                 n_theta: int):
        self.features, self.spec, self.n_theta = features, spec, int(n_theta)
        self.R, self.b1, self.B2 = features.R, features.b1, features.B2
        R_h = self.R.conj().T
        G = R_h @ self.R
        self.G = 0.5 * (G + G.conj().T)
        self.t_mu = R_h @ self.b1
        TC = R_h @ self.B2 @ self.R
        self.T_C = 0.5 * (TC + TC.conj().T)
        self.E = angle_phase_matrix(spec, n_theta)
        self.E_conj = self.E.conj()
        q, _ = np.linalg.qr(np.vstack([np.ones(n_theta),
                                       np.eye(n_theta)[: n_theta - 1]]).T)
        self.null_basis = q[:, 1:]
        self._kept = []     # (bytes of y, pieces of y), the last two

    def form_pieces(self, y: np.ndarray) -> tuple:
        """(A_y, R A_y, N_y, T_C A_y) with A_y = diag(y) E."""
        A = y[:, None] * self.E
        RA = self.R @ A
        return A, RA, RA.conj().T @ RA, self.T_C @ A

    def pieces(self, y: np.ndarray) -> tuple:
        """form_pieces(y), kept for the last two vectors and keyed by their
        bytes, so a solver's two live iterates are formed once each and a
        replaced or changed vector never reads stale ones."""
        key = y.tobytes()
        for kept_key, kept in self._kept:
            if kept_key == key:
                return kept
        self._kept = self._kept[-1:] + [(key, self.form_pieces(y))]
        return self._kept[-1][1]

    def form_pair(self, y: np.ndarray, lam1: float,
                  lam2: float) -> tuple[np.ndarray, np.ndarray]:
        """The Schur pair (M_y, D_y) against the fixed partner y."""
        _, _, N, TA = self.pieces(y)
        return lam2 * N + lam1, lam2 * TA + lam1 * self.t_mu[:, None]

    def cost(self, x: np.ndarray, RA_x: np.ndarray, RA_y: np.ndarray,
             p: np.ndarray, lam1: float, lam2: float) -> float:
        """The cost at (x, y, p), from x, R A_x and R A_y."""
        r1 = self.R @ (x * (self.E @ p)) - self.b1
        r2 = (RA_x * p[None, :]) @ RA_y.conj().T - self.B2
        return (0.5 * lam1 * float(np.vdot(r1, r1).real)
                + 0.5 * lam2 * float(np.vdot(r2, r2).real))


def population_features(
    a: FBCoeffs, p, psi: np.ndarray, quad: QuadratureGrid, K: int, alpha: float
) -> MomentFeatures:
    """Analytic (infinite-N) features of ground truth (a, p)."""
    _, R = weighted_qr(psi, quad, K)
    E = angle_phase_matrix(a.spec, p.n_theta)
    v = a.values * (E @ p.p)
    RA = R @ (a.values[:, None] * E)
    B2 = (RA * p.p[None, :]) @ RA.conj().T
    return MomentFeatures(
        R=R,
        b1=R @ v,
        B2=0.5 * (B2 + B2.conj().T),
        mu_norm=float(np.linalg.norm(weight_diagonal(quad, K) * (psi @ v))),
        K=K,
        alpha=alpha,
    )


def first_moment(batch: TiltSeriesBatch, quad: QuadratureGrid) -> np.ndarray:
    """mu_w = d_w F_b mean(y), the weighted node DFT F of each tilt's mean
    line: one pass over the samples.  empirical_moments takes b1 and mu_norm
    from it, so every route scales the random start by the same bits."""
    N, n_tilt, L = batch.samples.shape
    if N < 1:
        raise ConfigError("empty batch: need N >= 1 records")
    mean = batch.samples.reshape(N, n_tilt * L).mean(axis=0)
    return weight_diagonal(quad, batch.K) * (
        mean.reshape(n_tilt, L) @ dft_matrix(batch.grid, quad).T).ravel()


def empirical_moments(batch: TiltSeriesBatch, quad: QuadratureGrid,
                      spec: BasisSpec) -> MomentFeatures:
    """Debiased empirical features, formed on the lines: Phi_Q = F_b^H D_w Q
    one tilt block at a time, Z = X Phi_Q by one real product with its
    interleaved real view, B2 = Z^H Z / N - sigma2 Phi_Q^H Phi_Q
    (Hermitian-symmetrized) and b1 = Q^H mu_w."""
    mu_w = first_moment(batch, quad)
    N, n_tilt, L = batch.samples.shape
    psi = eval_tilt_matrix(spec, quad, batch.K, batch.alpha)
    Q, R = weighted_qr(psi, quad, batch.K)
    d_Q = weight_diagonal(quad, batch.K)[:, None] * Q
    F = dft_matrix(batch.grid, quad)
    phi = (F.conj().T @ d_Q.reshape(n_tilt, quad.n_xi, -1)).reshape(
        n_tilt * L, -1)
    Z = (batch.samples.reshape(N, n_tilt * L) @ phi.view(float)).view(complex)
    B2 = blockwise_mean_outer(Z) - batch.sigma2 * (phi.conj().T @ phi)
    return MomentFeatures(
        R=R,
        b1=Q.conj().T @ mu_w,
        B2=0.5 * (B2 + B2.conj().T),
        mu_norm=float(np.linalg.norm(mu_w)),
        K=batch.K,
        alpha=batch.alpha,
    )
