"""Consensus ADMM on the moment model (see moments.MomentModel).

The model's cost is nonconvex (quartic in a).  Splitting the two copies
of a in its second-moment term into consensus variables (a, z) with a
scaled dual s makes every block update an exact linear solve on the
model's Schur pair against the block's fixed partner:

  - a-step: both terms are linear in a for fixed (z, p); ridge rho.
  - z-step: the second term is anti-linear in z; conjugating the residual
    (H and B2 are Hermitian) gives the a-step's structure with partner a
    and no first-moment term.
  - p-step: both terms are linear in p; sum(p) = 1 is eliminated through
    the model's null basis.  Nonnegativity is NOT enforced during
    iterations; the reported p is the simplex projection of the relaxed
    iterate (both are returned).

The model keeps the pieces of the live a and z, and the consensus c takes
R A_c = (R A_a + R A_z)/2 by linearity, so an iteration costs eight
products of n_a^2 n_theta flops each (R A_y and T_C A_y of the new a and
z, the a- and z-steps' left-hand sides E_p M E_p^H, and the second-moment
residuals of the Lagrangian and of the objective), the two n_a x n_a
solves, and for p one Cholesky certificate and one LU solve of size
n_theta - 1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, FBCoeffs
from .errors import ConfigError, SolverError, SolverResult
from .moments import MomentFeatures, MomentModel
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
        for name, positive in (("lam1", False), ("lam2", False),
                               ("rho", True), ("tol_change", False)):
            val = getattr(self, name)
            if not (np.isfinite(val) and (val > 0 if positive else val >= 0)):
                raise ConfigError(f"{name} must be a finite number "
                                  f"{'> 0' if positive else '>= 0'}, got {val}")
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


@dataclass
class AdmmState:
    """Mutable iterate of the splitting: primal blocks a, z, the relaxed
    distribution p, scaled dual s, iteration counter, the moment model the
    steps read, history lists, and whether the p-step has warned of a
    rank-deficient system."""

    a: np.ndarray
    z: np.ndarray
    p: np.ndarray
    s: np.ndarray
    iter: int
    model: MomentModel
    history: dict = field(default_factory=lambda: {
        "iter": [], "objective": [], "primal_residual": [], "dual_residual": [],
        "lagrangian": [],
    })
    p_rank_warned: bool = False


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
    """The moment model of features plus random_start(features.mu_norm, ...)
    at config.seed; s = 0."""
    a0, z0, p0 = random_start(features.mu_norm, spec.n_a, n_theta, config.seed)
    return AdmmState(a=a0, z=z0, p=p0, s=np.zeros(spec.n_a, dtype=complex),
                     iter=0, model=MomentModel(features, spec, n_theta))


def _check_finite(state: AdmmState, name: str, *arrays: np.ndarray) -> None:
    """Raise SolverError (history attached) if any entry is not finite."""
    if not all(np.isfinite(x).all() for x in arrays):
        raise SolverError(
            f"{name}-update produced non-finite values at iteration {state.iter}",
            history=state.history,
        )


def _consensus_solve(state: AdmmState, config: AdmmConfig, name: str,
                     center: np.ndarray, fixed: np.ndarray,
                     lam1: float) -> np.ndarray:
    """Exact minimizer of lam1/2 ||R (x o g) - b1||^2
    + lam2/2 ||R ((x fixed^H) o H) R^H - B2||_F^2
    + rho/2 ||x - center||^2 over one consensus copy x: the system
    (rho I + G o conj(E_p M E_p^H)) x = rho center + (D o conj(E)) p with
    (M, D) = form_pair(fixed) and E_p = E diag(p)."""
    model = state.model
    M, D = model.form_pair(fixed, lam1, config.lam2)
    Ep = model.E * state.p[None, :]
    lhs = model.G * (Ep.conj() @ M.conj() @ Ep.T)
    lhs.flat[:: lhs.shape[0] + 1] += config.rho
    rhs = config.rho * center + (D * model.E_conj) @ state.p
    x_new = np.linalg.solve(lhs, rhs)
    _check_finite(state, name, x_new)
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


def _rank_certified(S: np.ndarray) -> bool:
    """True when a Cholesky factorization proves that the symmetric PSD S
    passes lstsq's rank test (every |eigenvalue| above eps n max|eigenvalue|,
    n = len(S)): S - 2 eps n trace(S) I factors, and trace(S) > 0 bounds
    max|eigenvalue| from above.  False says nothing; the caller then
    leaves the rank decision to lstsq."""
    shift = 2.0 * np.finfo(float).eps * len(S) * np.trace(S)
    if shift <= 0:
        return False
    try:
        np.linalg.cholesky(S - shift * np.eye(len(S)))
    except np.linalg.LinAlgError:
        return False
    return True


def update_p(state: AdmmState, config: AdmmConfig) -> np.ndarray:
    """Exact equality-constrained least squares over the real vector p.

    Both moment terms are linear in p, with normal system
    Re(N_a o conj(M_z)) p = Re sum_i (conj(A_a) o D_z)[i, :] from the
    model's pieces of a and (M_z, D_z) = form_pair(z).  sum(p) = 1 is
    eliminated with the model's null basis.  The reduced system is PSD
    (the real part of a Schur product of PSD matrices), so a Cholesky
    factorization shifted by twice lstsq's rank threshold, eps
    (n_theta - 1) max|eigenvalue| with the trace for max|eigenvalue|,
    certifies full rank, and np.linalg.solve takes the system.  Every
    other system goes to lstsq, which applies that threshold itself.
    Where the rank falls short, some of p is unobservable (fewer than
    n_theta - 1 moment harmonics, lam2 = 0, a radial a): the system is
    consistent but rank-deficient, lstsq's minimum-norm solution keeps the
    unobservable component at zero instead of amplifying noise into it,
    and the first such solve logs a warning.  A non-finite reduced system
    raises before either route (LAPACK's SVD does not return on NaN).
    """
    model = state.model
    n_t = model.n_theta
    A_a, _, N_a, _ = model.pieces(state.a)
    M_z, D_z = model.form_pair(state.z, config.lam1, config.lam2)
    lhs = (N_a * M_z.conj()).real
    rhs = (A_a.conj() * D_z).sum(axis=0).real
    B = model.null_basis
    p_part = np.full(n_t, 1.0 / n_t)
    red_lhs = B.T @ lhs @ B
    red_rhs = B.T @ (rhs - lhs @ p_part)
    _check_finite(state, "p", red_lhs, red_rhs)
    if _rank_certified(red_lhs):
        q = np.linalg.solve(red_lhs, red_rhs)
    else:
        q, _, rank, _ = np.linalg.lstsq(red_lhs, red_rhs, rcond=None)
        if rank < n_t - 1 and not state.p_rank_warned:
            logger.warning(
                "p-update normal system rank-deficient (rank %d of %d); "
                "using the minimum-norm solution",
                rank,
                n_t - 1,
            )
            state.p_rank_warned = True
    p_new = p_part + B @ q
    _check_finite(state, "p", p_new)
    return p_new


def augmented_lagrangian(state: AdmmState, config: AdmmConfig) -> float:
    """Scaled-dual augmented Lagrangian: the model's cost at (a, z, p) plus
    rho/2 ||a - z + s||^2 - rho/2 ||s||^2."""
    model = state.model
    val = model.cost(state.a, model.pieces(state.a)[1],
                     model.pieces(state.z)[1], state.p, config.lam1,
                     config.lam2)
    gap = state.a - state.z + state.s
    val += 0.5 * config.rho * float(np.vdot(gap, gap).real)
    val -= 0.5 * config.rho * float(np.vdot(state.s, state.s).real)
    return val


def moment_objective(model: MomentModel, a: np.ndarray, RA: np.ndarray,
                     p: np.ndarray, lam1: float, lam2: float) -> float:
    """Unsplit data-fit objective at consensus (z = a), from a and its
    R A_a."""
    return model.cost(a, RA, RA, p, lam1, lam2)


def run_admm(
    features: MomentFeatures,
    config: AdmmConfig,
    spec: BasisSpec,
    n_theta: int,
    state: AdmmState | None = None,
) -> SolverResult:
    """Alg.: repeat a-step, z-step, p-step, dual step s += a - z, until the
    primal gap ||a - z|| and the Lagrangian change pass their tolerances
    (stop_reason "tolerance") or max_iter is reached ("max_iter").  The
    result's a is the consensus and its p the simplex projection of the
    relaxed p iterate, which stays in state.p.  The history columns are
    iter, objective, primal_residual ||a - z||, dual_residual
    rho ||z_k - z_{k-1}|| and lagrangian.

    An explicit `state` overrides the seeded random initialization and is
    continued for max_iter more iterations: k iterations and then K - k
    more give bitwise the result of one K-iteration run.  n_iter counts the
    state's iterations, and history is a copy of all of them.  The state's
    model must have been built from these features and spec objects and
    this n_theta; otherwise ConfigError names the first that differs
    before any iteration runs.  Raises SolverError (history attached) on
    divergence.
    """
    if state is None:
        state = init_admm_state(features, config, spec, n_theta)
    model = state.model
    for name, same in (("features", features is model.features),
                       ("spec", spec is model.spec),
                       ("n_theta", n_theta == model.n_theta)):
        if not same:
            raise ConfigError(f"the state's moment model was built from "
                              f"other {name}")
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
        consensus = 0.5 * (state.a + state.z)
        RA_c = 0.5 * (model.pieces(state.a)[1] + model.pieces(state.z)[1])
        obj = moment_objective(model, consensus, RA_c, state.p, config.lam1,
                               config.lam2)
        for key, val in (("iter", state.iter), ("objective", obj),
                         ("primal_residual", primal), ("dual_residual", dual),
                         ("lagrangian", lag)):
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

    p_proj = project_simplex(state.p)
    p_proj = p_proj / p_proj.sum()
    return SolverResult(
        a=FBCoeffs(consensus, spec),
        p=ViewDistribution(p_proj, n_theta),
        history={key: list(vals) for key, vals in state.history.items()},
        n_iter=state.iter,
        stop_reason=stop_reason,
    )
