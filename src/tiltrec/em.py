"""Expectation-maximization for the marginalized view-angle likelihood.

Each spectral record is a mixture over n_theta candidate view angles of
Gaussians centered on the steered basis predictions.  EM alternates soft
angle assignment (E-step) with an exact weighted least-squares update of
the coefficients and the mixture weights (M-step).  It can start from a
random point or refine an ADMM solution.
"""

from dataclasses import dataclass

import numpy as np

from .basis import FBCoeffs, eval_tilt_matrix
from .errors import ConfigError, SolverError
from .moments import angle_coupling, angle_phase_matrix
from .sim import ViewDistribution
from .spectral import _REDUCE_BLOCK, SpectralBatch


@dataclass(frozen=True)
class EmConfig:
    max_iter: int = 100
    tol_loglik: float = 1e-12
    pinv_cutoff: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if not (0.0 < self.pinv_cutoff < 1.0):
            raise ConfigError("pinv_cutoff must lie in (0, 1)")


@dataclass(frozen=True)
class Responsibilities:
    """Soft angle assignments: pi[i, l] = posterior of angle l for record i."""

    pi: np.ndarray

    def __post_init__(self):
        if self.pi.ndim != 2:
            raise ConfigError("responsibilities must be a 2-D array")
        if np.any(self.pi < 0):
            raise ConfigError("responsibilities must be non-negative")
        row = self.pi.sum(axis=1)
        if np.abs(row - 1.0).max() > 1e-12:
            raise ConfigError("responsibility rows must sum to 1")

    @property
    def N(self):
        return self.pi.shape[0]

    @property
    def n_theta(self):
        return self.pi.shape[1]


def _p_values(p, n_theta=None):
    vals = p.p if isinstance(p, ViewDistribution) else np.asarray(p, dtype=float)
    if n_theta is not None and vals.shape != (n_theta,):
        raise ConfigError("distribution length does not match the workspace")
    if vals.sum() <= 0:
        raise ConfigError("view distribution has no mass")
    return vals


class EmWorkspace:
    """Whitened data and steered-basis precomputations shared by EM steps.

    The per-tilt noise block is rank-deficient whenever n_xi exceeds the
    number of line samples, so the quadratic forms use the eigendecomposition
    pseudo-inverse: data and basis are projected onto the block's informative
    eigenspace and scaled to unit noise there.
    """

    def __init__(self, spec_batch, spec, n_theta, noise, pinv_cutoff=1e-10):
        if not isinstance(spec_batch, SpectralBatch):
            raise ConfigError("expected a SpectralBatch")
        if noise.sigma2 <= 0:
            raise ConfigError("EM needs a nonzero noise model; sigma2 = 0 "
                              "gives a degenerate likelihood")
        self.spec = spec
        self.n_theta = n_theta
        self.K = spec_batch.K
        n_xi = spec_batch.quad.nodes.size

        lam, U = np.linalg.eigh(noise.block)
        keep = lam > pinv_cutoff * lam.max()
        if not np.any(keep):
            raise ConfigError("noise block has no informative eigenspace")
        # rows of W whiten one tilt block: cov(W n_hat) = I on the kept space
        self.whiten = (U[:, keep] / np.sqrt(lam[keep])).conj().T
        self.rank = int(keep.sum())

        psi = eval_tilt_matrix(spec, spec_batch.quad, self.K, spec_batch.alpha)
        blocks = psi.reshape(2 * self.K + 1, n_xi, spec.n_a)
        self.B = np.einsum('rj,kjm->krm', self.whiten, blocks).reshape(
            (2 * self.K + 1) * self.rank, spec.n_a)

        yhat = spec_batch.yhat.reshape(spec_batch.N, 2 * self.K + 1, n_xi)
        self.U_w = np.einsum('rj,ikj->ikr', self.whiten, yhat).reshape(
            spec_batch.N, (2 * self.K + 1) * self.rank)
        self.data_norm2 = np.einsum('ij,ij->i', self.U_w.conj(), self.U_w).real

        self.E = angle_phase_matrix(spec, n_theta)          # e^{i k phi_l}
        self.G_B = self.B.conj().T @ self.B

    @property
    def N(self):
        return self.U_w.shape[0]

    def normal_matrix(self, mass):
        """sum_l mass[l] diag(conj e_l) G_B diag(e_l), formed as the single
        Schur product G_B o conj(E diag(mass) E^H)."""
        return self.G_B * angle_coupling(self.E, mass).conj()

    def steered_predictions(self, a_values):
        """Whitened model means, one column per candidate angle."""
        return self.B @ (a_values[:, None] * self.E)

    def half_distances(self, a_values):
        """0.5 * ||whitened residual||^2 for every (record, angle) pair."""
        V = self.steered_predictions(a_values)
        cross = (self.U_w @ V.conj()).real
        v_norm2 = np.einsum('ij,ij->j', V.conj(), V).real
        return 0.5 * (self.data_norm2[:, None] - 2.0 * cross + v_norm2[None, :])


def _block_reduce(arrays_iter):
    parts = list(arrays_iter)
    while len(parts) > 1:
        paired = []
        for j in range(0, len(parts) - 1, 2):
            paired.append(parts[j] + parts[j + 1])
        if len(parts) % 2:
            paired.append(parts[-1])
        parts = paired
    return parts[0]


def _coeff_values(a, spec):
    if isinstance(a, FBCoeffs):
        return a.values
    vals = np.asarray(a, dtype=complex)
    if vals.shape != (spec.n_a,):
        raise ConfigError("coefficient vector length does not match the basis")
    return vals


def log_marginal_likelihood(spec_batch, a, p, noise, work=None):
    """Total log marginal likelihood of the batch given (a, p).

    The mixture-independent normalization is dropped, so values are
    comparable only across parameters for a fixed batch and noise model.
    """
    if work is None:
        spec = a.spec if isinstance(a, FBCoeffs) else None
        if spec is None:
            raise ConfigError("pass FBCoeffs or a prebuilt workspace")
        n_theta = p.n_theta if isinstance(p, ViewDistribution) else len(p)
        work = EmWorkspace(spec_batch, spec, n_theta, noise)
    vals = _coeff_values(a, work.spec)
    pv = _p_values(p, work.n_theta)
    logits = _logits(work, vals, pv)
    return float(_logsumexp_rows(logits).sum())


def _logits(work, a_values, p_values):
    with np.errstate(divide='ignore'):
        log_p = np.log(p_values)
    return log_p[None, :] - work.half_distances(a_values)


def _logsumexp_rows(logits):
    m = logits.max(axis=1)
    return m + np.log(np.exp(logits - m[:, None]).sum(axis=1))


def e_step(spec_batch, a, p, noise, work=None):
    """Posterior responsibilities over candidate angles, row-normalized
    in the log domain."""
    if work is None:
        work = EmWorkspace(spec_batch, a.spec, len(_p_values(p)), noise)
    vals = _coeff_values(a, work.spec)
    pv = _p_values(p, work.n_theta)
    logits = _logits(work, vals, pv)
    logits -= logits.max(axis=1)[:, None]
    pi = np.exp(logits)
    pi /= pi.sum(axis=1)[:, None]
    return Responsibilities(pi=pi)


def m_step(spec_batch, responsibilities, noise, spec=None, work=None,
           pinv_cutoff=1e-10):
    """Exact maximizer of the expected complete-data log likelihood.

    p becomes the column means of the responsibilities; a solves the
    pooled weighted normal equations through an eigendecomposition
    pseudo-inverse with the given relative cutoff.
    """
    pi = responsibilities.pi
    if pi.sum() <= 0:
        raise ConfigError("responsibilities carry no mass")
    if work is None:
        if spec is None:
            raise ConfigError("m_step needs a BasisSpec or a workspace")
        work = EmWorkspace(spec_batch, spec, responsibilities.n_theta, noise)

    # fixed-block pairwise reduction keeps the accumulation deterministic
    blocks = range(0, work.N, _REDUCE_BLOCK)
    col_mass = _block_reduce(
        pi[i:i + _REDUCE_BLOCK].sum(axis=0) for i in blocks)
    weighted_data = _block_reduce(
        work.U_w[i:i + _REDUCE_BLOCK].T @ pi[i:i + _REDUCE_BLOCK]
        for i in blocks)

    p_new = col_mass / pi.shape[0]

    normal = work.normal_matrix(col_mass)
    rhs = (work.E.conj() * (work.B.conj().T @ weighted_data)).sum(axis=1)

    lam, U = np.linalg.eigh(0.5 * (normal + normal.conj().T))
    keep = lam > pinv_cutoff * lam.max()
    if not np.any(keep):
        raise ConfigError("normal matrix vanished; responsibilities degenerate")
    a_new = U[:, keep] @ ((U[:, keep].conj().T @ rhs) / lam[keep])

    return (FBCoeffs(values=a_new, spec=work.spec, real_symmetric=False),
            ViewDistribution(p=np.maximum(p_new, 0.0) / max(p_new.sum(), 1e-300),
                             n_theta=pi.shape[1]))


@dataclass(frozen=True)
class EmResult:
    a: FBCoeffs
    p: ViewDistribution
    history: np.ndarray
    n_iter: int
    converged: bool


def run_em(spec_batch, init_a, init_p, noise, config=None, spec=None):
    """Alternate E and M steps from the supplied starting point.

    The history records the log marginal likelihood of the current
    parameters at every visit, including the final ones; it must be
    non-decreasing up to roundoff or the model code is wrong.
    """
    config = config or EmConfig()
    if spec is None:
        if not isinstance(init_a, FBCoeffs):
            raise ConfigError("pass FBCoeffs or an explicit BasisSpec")
        spec = init_a.spec
    n_theta = init_p.n_theta if isinstance(init_p, ViewDistribution) \
        else len(init_p)
    work = EmWorkspace(spec_batch, spec, n_theta, noise,
                       pinv_cutoff=config.pinv_cutoff)

    a_vals = _coeff_values(init_a, spec)
    pv = _p_values(init_p, n_theta).copy()
    history = []
    converged = False

    a_cur = FBCoeffs(values=a_vals, spec=spec, real_symmetric=False)
    p_cur = ViewDistribution(p=np.maximum(pv, 0.0) / max(pv.sum(), 1e-300),
                             n_theta=n_theta)
    for it in range(config.max_iter):
        logits = _logits(work, a_cur.values, p_cur.p)
        ll = float(_logsumexp_rows(logits).sum())
        if not np.isfinite(ll):
            raise SolverError(f"log likelihood became non-finite at "
                              f"iteration {it}", history=np.array(history))
        history.append(ll)
        if it >= 1:
            gain = history[-1] - history[-2]
            if gain < config.tol_loglik * max(1.0, abs(history[-2])):
                converged = True
                break
        shifted = logits - logits.max(axis=1)[:, None]
        pi = np.exp(shifted)
        pi /= pi.sum(axis=1)[:, None]
        resp = Responsibilities(pi=pi)
        a_cur, p_cur = m_step(spec_batch, resp, noise, work=work,
                              pinv_cutoff=config.pinv_cutoff)
    else:
        logits = _logits(work, a_cur.values, p_cur.p)
        history.append(float(_logsumexp_rows(logits).sum()))

    return EmResult(a=a_cur, p=p_cur, history=np.asarray(history),
                    n_iter=len(history) - 1, converged=converged)
