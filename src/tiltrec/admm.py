"""Consensus ADMM for the weighted moment-matching least squares.

The data are the moment features in the QR coordinates of Psi_w = Q R,
b1 = Q^H mu_w and B2 = Q^H C_w Q, and the data-fit objective couples the
object coefficients a and the angle distribution p through the residuals

    lam1/2 ||R (a o g(p)) - b1||^2
  + lam2/2 ||(R A_a) diag(p) (R A_a)^H - B2||_F^2 ,   A_a = diag(a) E.

These are the wide residuals in mu_w and C_w less the data outside the
range of Q, a constant; formed as norms, they vanish at an exact fit.  The
objective is nonconvex (quartic in a).  Splitting the two copies of a into
consensus variables (a, z) with a scaled dual s makes every block update an
exact linear solve:

  - a-step: both terms are linear in a for fixed (z, p); ridge rho.
  - z-step: the second term is anti-linear in z; conjugating the residual
    (H and B2 are Hermitian) turns it into the same structure as the a-step.
  - p-step: both moment models are linear in p; the single constraint
    sum(p) = 1 is eliminated through an orthonormal null-space basis.
    Nonnegativity is NOT enforced during iterations; the reported p is the
    simplex projection of the relaxed iterate (both are returned).

The normal equations read the data as G = R^H R, t_mu = R^H b1 and
T_C = R^H B2 R.  For rank-one blocks <psi_i u_i^H, psi_j u_j^H>_F =
(psi_j^H psi_i) (u_i^H u_j), so Grams of sums of rank-one terms are Schur
products of small Grams, and every second-moment quantity factors through
A_x = diag(x) E, since (x y^H) o H(p) = A_x diag(p) A_y^H, and the angle
Gram N_x = A_x^H G A_x.  The first moment is the second moment's cross
term with the constant partner 1: g g^H = E_p 11^T E_p^H and
conj(g) o t_mu = ((t_mu 1^T) o conj(E)) p, with E_p = E diag(p).  So one
pair against a fixed partner y,

    M_y = lam1 11^T + lam2 N_y ,   D_y = lam1 t_mu 1^T + lam2 T_C A_y ,

carries both terms into every block step: the a- and z-steps solve
(rho I + G o conj(E_p M_y E_p^H)) x = rho center + (D_y o conj(E)) p, and
the p-step's normal system is Re(N_a o conj(M_z)) p = Re sum_i
(conj(A_a) o D_z)[i, :].  Each iterate's pieces A_y, R A_y, N_y =
(R A_y)^H (R A_y) and T_C A_y are formed once for every step that reads
them, the consensus c's by linearity (R A_c = (R A_a + R A_z)/2).  An
iteration costs four products of an n_a x n_a matrix with an n_a x n_theta
one (R A_y and T_C A_y of the new a and z) and the two n_a x n_a solves.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, FBCoeffs
from .errors import ConfigError, SolverError
from .moments import MomentFeatures, angle_phase_matrix
from .sim import ViewDistribution

logger = logging.getLogger(__name__)

_DIVERGE_LIMIT = 1e12


@dataclass(frozen=True)
class AdmmConfig:
    lam1: float = 1.0
    lam2: float = 0.5
    rho: float = 1.0
    max_iter: int = 500
    tol_change: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.lam1 < 0 or self.lam2 < 0:
            raise ConfigError(
                f"lam1/lam2 must be >= 0, got {self.lam1}, {self.lam2}"
            )
        if self.rho <= 0:
            raise ConfigError(f"rho must be positive, got {self.rho}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {p : p >= 0, sum(p) = 1} (sort-based)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho_idx = np.nonzero(u - css / idx > 0)[0][-1]
    tau = css[rho_idx] / (rho_idx + 1.0)
    return np.maximum(v - tau, 0.0)


class AdmmWorkspace:
    """Precomputed operator pieces shared by every iteration.

    All data enter at size n_a x n_a or smaller: the features' R, b1 and
    B2, the normal-equation pieces G = R^H R, t_mu = R^H b1 and
    T_C = R^H B2 R, and the angle phase matrix E.
    """

    def __init__(self, features: MomentFeatures, spec: BasisSpec, n_theta: int):
        self.spec = spec
        self.n_theta = int(n_theta)
        self.R, self.b1, self.B2 = features.R, features.b1, features.B2
        R_h = self.R.conj().T
        G = R_h @ self.R
        self.G = 0.5 * (G + G.conj().T)
        self.t_mu = R_h @ self.b1
        TC = R_h @ self.B2 @ self.R
        self.T_C = 0.5 * (TC + TC.conj().T)
        self.E = angle_phase_matrix(spec, n_theta)
        # orthonormal basis of {x : sum(x) = 0}, fixed and deterministic
        q, _ = np.linalg.qr(
            np.vstack([np.ones(n_theta), np.eye(n_theta)[: n_theta - 1]]).T
        )
        self.null_basis = q[:, 1:]
        self.p_rank_warned = False
        self._kept = []     # (bytes of y, pieces of y), the last three

    def form_pieces(self, y: np.ndarray) -> tuple:
        """(A_y, R A_y, N_y, T_C A_y): A_y = diag(y) E and its angle Gram
        N_y = (R A_y)^H (R A_y) = A_y^H G A_y."""
        A = y[:, None] * self.E
        RA = self.R @ A
        return A, RA, RA.conj().T @ RA, self.T_C @ A

    def pieces(self, y: np.ndarray) -> tuple:
        """form_pieces(y), kept for the last three vectors and keyed by
        their bytes, so each iterate's are formed once and a replaced or
        changed vector never reads stale ones."""
        key = y.tobytes()
        for kept_key, kept in self._kept:
            if kept_key == key:
                return kept
        self._kept = self._kept[-2:] + [(key, self.form_pieces(y))]
        return self._kept[-1][1]

    def mean(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(x + y)/2, its pieces kept as the means of those of x and y
        (all linear in the vector but N): no n_a^2 n_theta product."""
        A, RA, _, TA = (0.5 * (u + v)
                        for u, v in zip(self.pieces(x), self.pieces(y)))
        c = 0.5 * (x + y)
        self._kept = self._kept[-2:] + [(c.tobytes(),
                                         (A, RA, RA.conj().T @ RA, TA))]
        return c

    def first_term(self, v: np.ndarray) -> float:
        """||R v - b1||^2; v = a o g."""
        r = self.R @ v - self.b1
        return float(np.vdot(r, r).real)

    def schur_pair(self, y: np.ndarray, lam1: float,
                   lam2: float) -> tuple[np.ndarray, np.ndarray]:
        """(M_y, D_y) = (lam1 11^T + lam2 N_y, lam1 t_mu 1^T + lam2 T_C A_y),
        the normal-equation pieces of both moment terms against the fixed
        partner y (the first moment's partner is the constant 1)."""
        _, _, N, TA = self.pieces(y)
        return lam2 * N + lam1, lam2 * TA + lam1 * self.t_mu[:, None]

    def second_term(self, RA_x: np.ndarray, RA_y: np.ndarray,
                    p: np.ndarray) -> float:
        """||(R A_x) diag(p) (R A_y)^H - B2||_F^2, the second-moment residual
        of ((x y^H) o H(p)) in Q coordinates, from R A_x and R A_y."""
        r = (RA_x * p[None, :]) @ RA_y.conj().T - self.B2
        return float(np.vdot(r, r).real)


@dataclass
class AdmmState:
    """Mutable iterate of the splitting: primal blocks a, z, the relaxed
    distribution p, scaled dual s, iteration counter, the workspace the
    steps read, and history lists."""

    a: np.ndarray
    z: np.ndarray
    p: np.ndarray
    s: np.ndarray
    iter: int
    work: AdmmWorkspace
    history: dict = field(default_factory=lambda: {
        "iter": [], "objective": [], "primal": [], "dual": [], "lagrangian": [],
    })


def random_start(
    mu_norm: float, n_a: int, n_theta: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded start (a, z, p): a and z i.i.d. complex Gaussian scaled to the
    weighted first moment's norm mu_norm = ||mu_w||, drawn in that order,
    then p uniform plus seeded noise, simplex-projected.  Only mu_norm is
    read, so a method that never forms the second moment draws the same
    start."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    scale = mu_norm / np.sqrt(n_a)
    scale = scale if scale > 0 else 1.0
    draw = lambda: scale * (
        rng.standard_normal(n_a) + 1j * rng.standard_normal(n_a)
    ) / np.sqrt(2.0)
    a0 = draw()
    z0 = draw()
    p0 = project_simplex(
        np.full(n_theta, 1.0 / n_theta) + 0.5 / n_theta * rng.standard_normal(n_theta)
    )
    return a0, z0, p0


def init_admm_state(
    features: MomentFeatures, config: AdmmConfig, spec: BasisSpec, n_theta: int
) -> AdmmState:
    """The workspace of features plus random_start(features.mu_norm, ...) at
    config.seed; s = 0."""
    work = AdmmWorkspace(features, spec, n_theta)
    a0, z0, p0 = random_start(features.mu_norm, spec.n_a, n_theta, config.seed)
    return AdmmState(
        a=a0, z=z0, p=p0, s=np.zeros(spec.n_a, dtype=complex), iter=0, work=work
    )


def _consensus_solve(state: AdmmState, config: AdmmConfig, name: str,
                     center: np.ndarray, fixed: np.ndarray,
                     lam1: float) -> np.ndarray:
    """Exact minimizer of lam1/2 ||R (x o g) - b1||^2
    + lam2/2 ||R ((x fixed^H) o H) R^H - B2||_F^2
    + rho/2 ||x - center||^2 over one consensus copy x: the system
    (rho I + G o conj(E_p M E_p^H)) x = rho center + (D o conj(E)) p with
    (M, D) = schur_pair(fixed) and E_p = E diag(p)."""
    work = state.work
    M, D = work.schur_pair(fixed, lam1, config.lam2)
    Ep = work.E * state.p[None, :]
    lhs = work.G * (Ep.conj() @ M.conj() @ Ep.T)
    lhs.flat[:: lhs.shape[0] + 1] += config.rho
    rhs = config.rho * center + (D * work.E.conj()) @ state.p
    x_new = np.linalg.solve(lhs, rhs)
    if not np.all(np.isfinite(x_new)):
        raise SolverError(
            f"{name}-update produced non-finite values at iteration {state.iter}",
            history=state.history,
        )
    return x_new


def update_a(state: AdmmState, config: AdmmConfig) -> np.ndarray:
    """Exact minimizer of the augmented Lagrangian over a (z, p, s fixed)."""
    return _consensus_solve(state, config, "a", state.z - state.s, state.z,
                            config.lam1)


def update_z(state: AdmmState, config: AdmmConfig) -> np.ndarray:
    """Exact minimizer over z.  The second-moment residual satisfies
    ||X - B2||_F = ||X^H - B2||_F (B2 Hermitian), and X^H swaps the roles
    of a and z, so the solve mirrors the a-step with penalty center a + s;
    the first-moment term does not involve z."""
    return _consensus_solve(state, config, "z", state.a + state.s, state.a, 0.0)


def update_p(state: AdmmState, config: AdmmConfig) -> np.ndarray:
    """Exact equality-constrained least squares over the real vector p.

    Both moment models are linear in p:
      b1-model  = R diag(a) E p,
      B2-model  = sum_l p[l] (R (a o e_l)) (R (z o e_l))^H,
    so with A_a = diag(a) E, its angle Gram N_a and (M_z, D_z) =
    schur_pair(z) the normal system is Re(N_a o conj(M_z)) p =
    Re sum_i (conj(A_a) o D_z)[i, :]; the first moment enters as the cross
    term with the constant partner 1.  sum(p) = 1 is eliminated with the
    orthonormal basis of the zero-sum subspace.  The reduced system is
    solved by lstsq: when some of p is unobservable (fewer than n_theta - 1
    moment harmonics) the system is consistent but rank-deficient, and the
    minimum-norm solution keeps the unobservable component at zero instead
    of amplifying noise into it; the first such solve logs a warning.
    """
    work = state.work
    n_t = work.n_theta
    A_a, _, N_a, _ = work.pieces(state.a)
    M_z, D_z = work.schur_pair(state.z, config.lam1, config.lam2)
    lhs = (N_a * M_z.conj()).real
    rhs = (A_a.conj() * D_z).sum(axis=0).real
    B = work.null_basis
    p_part = np.full(n_t, 1.0 / n_t)
    red_lhs = B.T @ lhs @ B
    red_rhs = B.T @ (rhs - lhs @ p_part)
    q, _, rank, _ = np.linalg.lstsq(red_lhs, red_rhs, rcond=None)
    if rank < n_t - 1 and not work.p_rank_warned:
        logger.warning(
            "p-update normal system rank-deficient (rank %d of %d); "
            "using the minimum-norm solution",
            rank,
            n_t - 1,
        )
        work.p_rank_warned = True
    p_new = p_part + B @ q
    if not np.all(np.isfinite(p_new)):
        raise SolverError(
            f"p-update produced non-finite values at iteration {state.iter}",
            history=state.history,
        )
    return p_new


def augmented_lagrangian(state: AdmmState, config: AdmmConfig) -> float:
    """Scaled-dual augmented Lagrangian
    lam1/2 ||R (a o g) - b1||^2 + lam2/2 ||R ((a z^H) o H) R^H - B2||_F^2
    + rho/2 ||a - z + s||^2 - rho/2 ||s||^2."""
    work = state.work
    val = 0.5 * config.lam1 * work.first_term(state.a * (work.E @ state.p))
    val += 0.5 * config.lam2 * work.second_term(
        work.pieces(state.a)[1], work.pieces(state.z)[1], state.p)
    gap = state.a - state.z + state.s
    val += 0.5 * config.rho * float(np.vdot(gap, gap).real)
    val -= 0.5 * config.rho * float(np.vdot(state.s, state.s).real)
    return val


def moment_objective(work: AdmmWorkspace, a: np.ndarray, p: np.ndarray,
                     lam1: float, lam2: float) -> float:
    """Unsplit data-fit objective at consensus (z = a)."""
    RA = work.pieces(a)[1]
    return (0.5 * lam1 * work.first_term(a * (work.E @ p))
            + 0.5 * lam2 * work.second_term(RA, RA, p))


@dataclass(frozen=True)
class AdmmResult:
    """Final estimate: consensus coefficients, simplex-projected p (primary),
    the relaxed p iterate (diagnostic), history, and termination info."""

    a: FBCoeffs
    p: ViewDistribution
    p_relaxed: np.ndarray
    history: dict
    n_iter: int
    converged: bool
    stop_reason: str    # "tolerance" or "max_iter"
    symmetry_residual: float


def run_admm(
    features: MomentFeatures,
    config: AdmmConfig,
    spec: BasisSpec,
    n_theta: int,
    state: AdmmState | None = None,
) -> AdmmResult:
    """Alg.: repeat a-step, z-step, p-step, dual step s += a - z, until the
    primal gap ||a - z|| and the Lagrangian change pass their tolerances
    (stop_reason "tolerance") or max_iter is reached ("max_iter").  The
    history also records the dual residual rho ||z_k - z_{k-1}||.

    An explicit `state` overrides the seeded random initialization and is
    continued for max_iter more iterations: k iterations and then K - k
    more give bitwise the result of one K-iteration run.  n_iter counts the
    state's iterations, and history is a copy of all of them.  Raises
    SolverError (history attached) on divergence.
    """
    if state is None:
        state = init_admm_state(features, config, spec, n_theta)
    work = state.work
    tol_primal = 1e-6 * np.sqrt(spec.n_a)
    last_lag = (state.history["lagrangian"][-1]
                if state.history["lagrangian"] else None)
    stop_reason = "max_iter"

    for _ in range(config.max_iter):
        z_prev = state.z
        state.a = update_a(state, config)
        state.z = update_z(state, config)
        state.p = update_p(state, config)
        state.s = state.s + state.a - state.z
        state.iter += 1

        lag = augmented_lagrangian(state, config)
        primal = float(np.linalg.norm(state.a - state.z))
        dual = config.rho * float(np.linalg.norm(state.z - z_prev))
        consensus = work.mean(state.a, state.z)
        obj = moment_objective(work, consensus, state.p, config.lam1, config.lam2)
        for key, val in (("iter", state.iter), ("objective", obj),
                         ("primal", primal), ("dual", dual), ("lagrangian", lag)):
            state.history[key].append(val)

        if not np.isfinite(lag) or obj > _DIVERGE_LIMIT:
            raise SolverError(
                f"diverged at iteration {state.iter}: objective {obj:.3e}",
                history=state.history,
            )
        if last_lag is not None:
            change = abs(lag - last_lag) / max(abs(last_lag), 1.0)
            if primal <= tol_primal and change <= config.tol_change:
                stop_reason = "tolerance"
                break
        last_lag = lag

    a_out = FBCoeffs(consensus, spec)
    p_proj = project_simplex(state.p)
    p_proj = p_proj / p_proj.sum()
    return AdmmResult(
        a=a_out,
        p=ViewDistribution(p_proj, n_theta),
        p_relaxed=state.p.copy(),
        history={key: list(vals) for key, vals in state.history.items()},
        n_iter=state.iter,
        converged=stop_reason == "tolerance",
        stop_reason=stop_reason,
        symmetry_residual=a_out.symmetry_residual(),
    )
