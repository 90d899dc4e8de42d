"""Moment features of tilt-series ensembles.

The population mean and covariance of a spectral tilt record depend on the
angle distribution p only through the angle-phase matrix E (E[i, l] =
exp(i k_i phi_l), the coefficient-domain steering of angle phi_l): the
first-moment attenuation g = E p and the second-moment coupling
H = E diag(p) E^H give

    mu = Psi (a o g),        C = Psi ((a a^H) o H) Psi^H,

where o is the entrywise product and Psi the stacked tilt matrix.  The same
quantities are estimated from the real line samples: white detector noise
is debiased by subtracting sigma2 from the diagonal of their second moment,
and the linear node DFT maps the sums once.  The first moment is also
formed on its own (first_moment) for consumers that never read C, such as
the shared random start of an EM-only run.  The diagonal weight
sqrt(w_j xi_j), tiled across tilts, turns plain vector/Frobenius norms of
residuals into the disc-measure norms used by the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, FBCoeffs, QuadratureGrid
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


@dataclass(frozen=True)
class MomentFeatures:
    """Debiased (or population) moment pair plus the weighting diagonal.

    mu and C are unweighted; d_w holds the diagonal weights so consumers can
    form mu_w = d_w * mu and C_w = d_w[:, None] * C * d_w[None, :].  N is the
    sample count behind the estimate; N = 0 marks population (analytic)
    features.  quad, K, alpha record the acquisition geometry so the solver
    stage can rebuild the tilt matrix without the raw batch.
    """

    mu: np.ndarray
    C: np.ndarray
    N: int
    d_w: np.ndarray
    quad: QuadratureGrid
    K: int
    alpha: float

    def __post_init__(self):
        width = (2 * self.K + 1) * self.quad.n_xi
        if self.mu.shape != (width,) or self.C.shape != (width, width):
            raise ConfigError(
                f"moment shapes {self.mu.shape}/{self.C.shape} inconsistent "
                f"with (2K+1)*n_xi = {width}"
            )
        herm = np.linalg.norm(self.C - self.C.conj().T)
        scale = max(np.linalg.norm(self.C), 1e-300)
        if herm > 1e-10 * scale:
            raise ConfigError(f"C not Hermitian: relative skew {herm / scale:.3e}")
        if np.any(self.d_w <= 0):
            raise ConfigError("weight diagonal must be strictly positive")

    def weighted(self) -> tuple[np.ndarray, np.ndarray]:
        """(mu_w, C_w) with the diagonal applied."""
        d = self.d_w
        return d * self.mu, d[:, None] * self.C * d[None, :]


def population_features(
    a: FBCoeffs, p, psi: np.ndarray, quad: QuadratureGrid, K: int, alpha: float
) -> MomentFeatures:
    """Analytic (infinite-N) features of ground truth (a, p); N = 0."""
    E = angle_phase_matrix(a.spec, p.n_theta)
    inner = np.outer(a.values, a.values.conj()) * angle_coupling(E, p.p)
    C = psi @ inner @ psi.conj().T
    C = 0.5 * (C + C.conj().T)
    return MomentFeatures(
        mu=psi @ (a.values * (E @ p.p)),
        C=C,
        N=0,
        d_w=weight_diagonal(quad, K),
        quad=quad,
        K=K,
        alpha=alpha,
    )


def first_moment(batch: TiltSeriesBatch, quad: QuadratureGrid) -> np.ndarray:
    """mu = F_b mean(y): the node DFT F of each tilt's mean line.

    The first moment alone costs one pass over the samples; empirical_moments
    takes its mu from here, so both routes give the same bits.
    """
    N, n_tilt, L = batch.samples.shape
    if N < 1:
        raise ConfigError("empty batch: need N >= 1 records")
    mean = batch.samples.reshape(N, n_tilt * L).mean(axis=0)
    return (mean.reshape(n_tilt, L) @ dft_matrix(batch.grid, quad).T).ravel()


def empirical_moments(batch: TiltSeriesBatch, quad: QuadratureGrid) -> MomentFeatures:
    """Debiased empirical moments of the node records, formed on the lines.

    With F_b the node DFT F applied to each tilt's line,
    mu = F_b mean(y) (first_moment) and C = F_b (mean(y y^T) - sigma2 I) F_b^H.
    F_b is never formed: each (s, t) block of the line-domain moment S maps
    as F S_st F^H, one tilt row of blocks at a time.  C is
    Hermitian-symmetrized.
    """
    mu = first_moment(batch, quad)
    N, n_tilt, L = batch.samples.shape
    S = blockwise_mean_outer(batch.samples.reshape(N, n_tilt * L))
    S[np.diag_indices_from(S)] -= batch.sigma2
    F = dft_matrix(batch.grid, quad)
    n = quad.n_xi
    C = np.empty((n_tilt * n, n_tilt * n), dtype=complex)
    for s in range(n_tilt):
        rows = F @ S[s * L:(s + 1) * L]                 # (n, n_tilt * L)
        C[s * n:(s + 1) * n] = (rows.reshape(n, n_tilt, L)
                                @ F.conj().T).reshape(n, -1)
    C = 0.5 * (C + C.conj().T)
    return MomentFeatures(
        mu=mu,
        C=C,
        N=N,
        d_w=weight_diagonal(quad, batch.K),
        quad=quad,
        K=batch.K,
        alpha=batch.alpha,
    )
