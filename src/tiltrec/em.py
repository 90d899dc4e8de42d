"""Expectation-maximization for the marginalized view-angle likelihood.

Each spectral record is a mixture over n_theta candidate view angles of
Gaussians centered on the steered basis predictions.  EM alternates soft
angle assignment (E-step) with an exact weighted least-squares update of
the coefficients and the mixture weights (M-step).  It can start from a
random point or refine an ADMM solution.

The records enter the likelihood only through their whitened projections
onto the basis, Y = U_w conj(B) (N x n_a), and their whitened norms, so the
workspace keeps those two and never the whitened records U_w themselves.
The node DFT is folded into the whitener, so each record block's real
lines are whitened by one real product and no node spectrum is formed.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .basis import FBCoeffs, eval_tilt_matrix
from .errors import ConfigError, SolverError, SolverResult
from .moments import angle_coupling, angle_phase_matrix
from .sim import (TiltSeriesBatch, ViewDistribution, empty_records,
                  record_blocks, reduce_records)
from .spectral import SpectralBatch, dft_matrix

# eigenvalues below this fraction of the largest are dropped by both
# pseudo-inverses: the noise block's, whose eigenvalues are the node DFT's
# squared singular values times sigma2, and the M-step normal matrix's
_PINV_CUTOFF = 1e-10


@dataclass(frozen=True)
class EmConfig:
    max_iter: int = 100
    tol_loglik: float = 1e-12

    def __post_init__(self):
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")


class EmWorkspace:
    """Per-record sufficient statistics and steered-basis precomputations
    shared by the EM steps.

    The per-tilt noise block sigma2 F F^H of the node DFT F is
    rank-deficient whenever n_xi exceeds the number of line samples, so the
    quadratic forms use its pseudo-inverse, read from one SVD F = U S V^H
    without forming the block: data and basis are projected onto the kept
    left singular vectors and scaled to unit noise there.  The workspace
    is a consumer of sim.reduce_records: each record block it is fed is
    whitened by one real product of its lines with the whitened node DFT
    and reduced at once to its rows of Y = U_w conj(B) and the norms
    ||U_w[i]||^2, so the whitened records U_w are never held whole.  A
    batch in memory is fed here, in record_blocks; a sim.BatchFile's
    blocks are fed by the caller's one pass over the file, which may feed
    other consumers too.  E, the only n_theta-sized array, is formed on
    first use.
    """

    def __init__(self, spec_batch, spec, n_theta):
        if not isinstance(spec_batch, SpectralBatch):
            raise ConfigError("expected a SpectralBatch")
        batch, quad = spec_batch.batch, spec_batch.quad
        if batch.sigma2 <= 0:
            raise ConfigError("EM needs a nonzero noise model; sigma2 = 0 "
                              "gives a degenerate likelihood")
        self.spec, self.n_theta = spec, n_theta
        n_tilt, n_xi = 2 * batch.K + 1, quad.n_xi

        F = dft_matrix(batch.grid, quad)
        U, s, _ = np.linalg.svd(F, full_matrices=False)
        # the block's eigenvalues are sigma2 s^2, largest first; s[0] >= dx,
        # the size of every entry of F, so the first is always kept
        keep = s ** 2 > _PINV_CUTOFF * s[0] ** 2
        # rows of W whiten one tilt block: cov(W n_hat) = I on the kept space
        self.whiten = (U[:, keep] / (np.sqrt(batch.sigma2) * s[keep])).conj().T
        self.rank = int(keep.sum())

        psi = eval_tilt_matrix(spec, quad, batch.K, batch.alpha)
        self.B = (self.whiten @ psi.reshape(n_tilt, n_xi, spec.n_a)).reshape(
            n_tilt * self.rank, spec.n_a)
        self.G_B = self.B.conj().T @ self.B

        # whitened node DFT (whiten @ F)^T as one real (L, 2*rank) matrix,
        # real and imaginary parts interleaved, so a real line times it is
        # the whitened line viewed as complex
        self._lines_to_whitened = np.ascontiguousarray(
            (self.whiten @ F).T).view(float)
        self._B_conj = self.B.conj()
        self.Y = empty_records(batch, (spec.n_a,), complex)
        self.data_norm2 = empty_records(batch)
        self._fed = 0
        if isinstance(batch, TiltSeriesBatch):
            reduce_records(record_blocks(batch.samples), [self])

    def __call__(self, block):
        """Whiten the next record block and fill its rows of Y and
        data_norm2."""
        i, n = self._fed, len(block)
        u = (block.reshape(-1, block.shape[-1]) @ self._lines_to_whitened
             ).view(complex).reshape(n, -1)
        self.Y[i:i + n] = u @ self._B_conj
        v = u.view(float)
        self.data_norm2[i:i + n] = np.einsum('ij,ij->i', v, v)
        self._fed = i + n

    @functools.cached_property
    def E(self):
        """e^{i k phi_l}, the angle-phase matrix (n_a, n_theta)."""
        return angle_phase_matrix(self.spec, self.n_theta)

    def normal_matrix(self, mass):
        """sum_l mass[l] diag(conj e_l) G_B diag(e_l), formed as the single
        Schur product G_B o conj(E diag(mass) E^H)."""
        return self.G_B * angle_coupling(self.E, mass).conj()

    def half_distances(self, a_values):
        """0.5 * ||whitened residual||^2 for every (record, angle) pair.

        With A = diag(a) E the whitened model means are B A, so the cross
        term is Re(Y conj(A)) and the model norms are diag(A^H G_B A).
        """
        A = a_values[:, None] * self.E
        cross = (self.Y @ A.conj()).real
        v_norm2 = np.einsum('ij,ij->j', A.conj(), self.G_B @ A).real
        return 0.5 * (self.data_norm2[:, None] - 2.0 * cross + v_norm2[None, :])


def m_step(work, pi):
    """Exact maximizer of the expected complete-data log likelihood, given
    the responsibilities pi (N x n_theta, rows summing to 1).

    p becomes the column means of pi; a solves the pooled weighted normal
    equations through an eigendecomposition pseudo-inverse with the
    relative cutoff _PINV_CUTOFF.
    """
    col_mass = pi.sum(axis=0)
    weighted_data = work.Y.T @ pi

    p_new = col_mass / pi.shape[0]

    normal = work.normal_matrix(col_mass)
    rhs = (work.E.conj() * weighted_data).sum(axis=1)

    lam, U = np.linalg.eigh(0.5 * (normal + normal.conj().T))
    keep = lam > _PINV_CUTOFF * lam.max()
    if not np.any(keep):
        raise ConfigError("normal matrix vanished; responsibilities degenerate")
    a_new = U[:, keep] @ ((U[:, keep].conj().T @ rhs) / lam[keep])

    return (FBCoeffs(values=a_new, spec=work.spec, real_symmetric=False),
            ViewDistribution(p=p_new / p_new.sum(), n_theta=pi.shape[1]))


def run_em(work, init_a, init_p, config=None):
    """Alternate E and M steps on the records of the EmWorkspace work from
    the supplied starting point.

    The history records the log marginal likelihood of the current
    parameters at every visit, including the final ones, with the visit
    index as iter; it must be non-decreasing up to roundoff or the model
    code is wrong.  The run stops when the gain of a visit falls below
    config.tol_loglik relative: within that band of zero it has converged
    (stop_reason "tolerance"), below it the likelihood fell ("decrease").
    Otherwise it stops after max_iter M-steps ("max_iter").
    """
    config = config or EmConfig()
    a_cur, p_cur = init_a, init_p
    history = {"iter": [], "log_likelihood": []}
    lls = history["log_likelihood"]
    stop_reason = "max_iter"
    for it in range(config.max_iter + 1):
        with np.errstate(divide='ignore'):
            log_p = np.log(p_cur.p)
        logits = log_p[None, :] - work.half_distances(a_cur.values)
        peak = logits.max(axis=1)
        pi = np.exp(logits - peak[:, None])
        row_mass = pi.sum(axis=1)
        ll = float((peak + np.log(row_mass)).sum())
        if not np.isfinite(ll):
            raise SolverError(f"log likelihood became non-finite at "
                              f"iteration {it}", history=history)
        history["iter"].append(it)
        lls.append(ll)
        if it == config.max_iter:
            break
        if it >= 1:
            gain = lls[-1] - lls[-2]
            band = config.tol_loglik * max(1.0, abs(lls[-2]))
            if gain < band:
                stop_reason = "tolerance" if gain >= -band else "decrease"
                break
        a_cur, p_cur = m_step(work, pi / row_mass[:, None])

    return SolverResult(a=a_cur, p=p_cur, history=history, n_iter=it,
                        stop_reason=stop_reason)
