"""Solver tests: simplex projection, exact block minimizers, route
cross-checks, rotation equivariance, and exact recovery on a small instance.

The data-fit objective is invariant under rotating the object by ANY angle
while counter-shifting the (relaxed, possibly signed) distribution, so the
recovery test aligns continuously instead of on the angle grid.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from tiltrec.admm import (AdmmConfig, AdmmState, _rank_certified,
                          augmented_lagrangian,
                          init_admm_state, moment_objective, project_simplex,
                          random_start, run_admm, update_a, update_p,
                          update_z)
from tiltrec.basis import (FBCoeffs, build_basis_spec, build_quadrature,
                           eval_tilt_matrix)
from tiltrec.cli import _admm_snapshots, history_to_csv
from tiltrec.errors import ConfigError, SolverError
from tiltrec.moments import (MomentModel, angle_coupling, empirical_moments,
                             population_features, weight_diagonal,
                             weighted_qr)
from tiltrec.sim import bump_distribution, random_phantom
from tiltrec.spectral import dft_matrix, transform_batch

from oracles import (brute_force_moments, build_a2_matrix,
                     dense_admm_iteration, dense_first_term, dense_residuals,
                     dense_second_term, node_moments, node_spectra,
                     wide_data_pieces)

DEG = np.pi / 180.0


@pytest.fixture(scope="module")
def tiny():
    """Smallest nontrivial instance: 3 coefficients, 5 view angles."""
    spec = build_basis_spec(0.3, 4.0)
    quad = build_quadrature(0.3, 24)
    truth = random_phantom(spec, 1.0, seed=11)
    p = bump_distribution(5, 1.1, 2.5)
    K, alpha = 6, 3.8 * DEG
    psi = eval_tilt_matrix(spec, quad, K, alpha)
    feats = population_features(truth, p, psi, quad, K, alpha)
    return {"spec": spec, "quad": quad, "a": truth, "p": p, "psi": psi,
            "features": feats, "n_theta": 5}


@pytest.fixture(scope="module")
def prob29(small_spec, small_phantom):
    """R=8 instance with n_theta = 29 = 4*k_max + 1, so every angle degree
    of freedom is observable and the p-step normal system has full rank."""
    quad = build_quadrature(0.3, 40)
    p = bump_distribution(29, 1.1, 2.5)
    K, alpha = 2, 3.8 * DEG
    psi = eval_tilt_matrix(small_spec, quad, K, alpha)
    feats = population_features(small_phantom, p, psi, quad, K, alpha)
    return {"spec": small_spec, "quad": quad, "a": small_phantom, "p": p,
            "psi": psi, "features": feats, "n_theta": 29}


def _state_at(model, a, z, p):
    return AdmmState(a=np.array(a, dtype=complex), z=np.array(z, dtype=complex),
                     p=np.array(p, dtype=float),
                     s=np.zeros(model.spec.n_a, dtype=complex), iter=0, model=model)


# ---------------------------------------------------------------- simplex

def test_project_simplex_hand_cases():
    out = project_simplex(np.array([0.2, 0.3, 0.5]))
    assert np.allclose(out, [0.2, 0.3, 0.5], atol=1e-15)
    assert np.allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])
    # active set {0.8, 0.6}, tau = 0.2
    assert np.allclose(project_simplex(np.array([0.8, 0.6, 0.1])),
                       [0.6, 0.4, 0.0], atol=1e-15)
    assert np.allclose(project_simplex(np.array([1.0, 1.0])), [0.5, 0.5])


def test_project_simplex_properties():
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = 3.0 * rng.standard_normal(rng.integers(2, 12))
        x = project_simplex(v)
        assert abs(x.sum() - 1.0) < 1e-12
        assert np.all(x >= 0)
        assert np.allclose(project_simplex(x), x, atol=1e-12)
        # variational inequality: (v - x) . (q - x) <= 0 for feasible q
        for _ in range(5):
            q = project_simplex(rng.standard_normal(v.size))
            assert np.dot(v - x, q - x) <= 1e-10


# ------------------------------------------------------------------ setup

def test_config_validation():
    with pytest.raises(ConfigError):
        AdmmConfig(lam1=-1.0)
    with pytest.raises(ConfigError):
        AdmmConfig(rho=0.0)
    with pytest.raises(ConfigError):
        AdmmConfig(max_iter=0)


@pytest.mark.parametrize("field, value", [
    ("lam1", np.nan), ("lam2", np.nan), ("rho", np.nan), ("lam1", np.inf),
    ("lam2", -0.5), ("rho", np.inf), ("tol_change", np.nan),
    ("tol_change", -1e-10)])
def test_config_rejects_non_finite_by_name(field, value):
    """NaN fails every comparison, so each weight is checked as finite and
    in range, and the message names the field."""
    with pytest.raises(ConfigError, match=rf"^{field} must be a finite number"):
        AdmmConfig(**{field: value})


def test_init_deterministic_and_feasible(tiny):
    cfg = AdmmConfig(seed=5)
    s1 = init_admm_state(tiny["features"], cfg, tiny["spec"], 5)
    s2 = init_admm_state(tiny["features"], cfg, tiny["spec"], 5)
    assert np.array_equal(s1.a, s2.a) and np.array_equal(s1.z, s2.z)
    assert np.array_equal(s1.p, s2.p)
    s3 = init_admm_state(tiny["features"], AdmmConfig(seed=6), tiny["spec"], 5)
    assert not np.allclose(s1.a, s3.a)
    assert abs(s1.p.sum() - 1.0) < 1e-12 and np.all(s1.p >= 0)
    assert np.all(s1.s == 0)


def test_random_start_is_init_admm_state_start(tiny):
    """The start drawn from ||mu_w|| alone is bitwise the state's a, z and
    p."""
    for seed in (0, 5):
        st = init_admm_state(tiny["features"], AdmmConfig(seed=seed),
                             tiny["spec"], 5)
        a0, z0, p0 = random_start(tiny["features"].mu_norm, tiny["spec"].n_a,
                                  5, seed)
        assert a0.tobytes() == st.a.tobytes()
        assert z0.tobytes() == st.z.tobytes()
        assert p0.tobytes() == st.p.tobytes()


def _wide(inst, K=2):
    """(Q, Psi_w, mu_w, C_w) of an instance: the weighted tilt matrix, its
    thin-QR basis and the weighted wide population moments."""
    d = weight_diagonal(inst["quad"], K)
    Q, _ = weighted_qr(inst["psi"], inst["quad"], K)
    mu, C = brute_force_moments(inst["a"], inst["p"].p, inst["psi"],
                                inst["spec"])
    return Q, d[:, None] * inst["psi"], d * mu, d[:, None] * C * d[None, :]


def _assert_matches_wide(model, psi_w, mu_w, C_w):
    for got, want in zip((model.G, model.t_mu, model.T_C),
                         wide_data_pieces(psi_w, mu_w, C_w)):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_workspace_matches_wide_route(prob29):
    """G, t_mu and T_C from R, b1, B2 of population features equal the wide
    route Psi_w^H Psi_w, Psi_w^H mu_w, Psi_w^H C_w Psi_w to 1e-13."""
    model = MomentModel(prob29["features"], prob29["spec"], 29)
    _assert_matches_wide(model, *_wide(prob29)[1:])


def test_workspace_matches_wide_route_empirical(small_batch, small_spec,
                                                quad32):
    """The same on empirical features, against the node-domain moments of
    the transformed records."""
    batch, grid = small_batch
    feats = empirical_moments(batch, quad32, small_spec)
    model = MomentModel(feats, small_spec, 12)
    mu, C = node_moments(node_spectra(transform_batch(batch, quad32)),
                         batch.sigma2, dft_matrix(grid, quad32))
    d = weight_diagonal(quad32, batch.K)
    psi = eval_tilt_matrix(small_spec, quad32, batch.K, batch.alpha)
    _assert_matches_wide(model, d[:, None] * psi, d * mu,
                         d[:, None] * C * d[None, :])


def test_workspace_compressed_terms_match_raw(prob29):
    """The cost's residual norms equal the wide residuals against the
    in-range data Q b1 and Q B2 Q^H, and the cost at x != y equals the
    dense formula."""
    model = MomentModel(prob29["features"], prob29["spec"], 29)
    Q, psi_w, _, _ = _wide(prob29)
    mu_in = Q @ model.b1
    C_in = Q @ model.B2 @ Q.conj().T
    rng = np.random.default_rng(7)
    n_a = prob29["spec"].n_a
    for _ in range(3):
        # relaxed p: sums to one, some entries negative
        x, y = (rng.standard_normal(n_a) + 1j * rng.standard_normal(n_a)
                for _ in range(2))
        p = 1 / 29 + model.null_basis @ (0.05 * rng.standard_normal(28))
        assert p.min() < 0
        A_x, RA_x, N_x, _ = model.pieces(x)
        RA_y = model.pieces(y)[1]
        direct = np.linalg.norm(psi_w @ (x * (model.E @ p)) - mu_in) ** 2
        assert (model.cost(x, RA_x, RA_y, p, 2.0, 0.0)
                == pytest.approx(direct, rel=1e-10))
        M = np.outer(x, y.conj()) * angle_coupling(model.E, p)
        direct2 = np.linalg.norm(psi_w @ M @ psi_w.conj().T - C_in) ** 2
        assert (model.cost(x, RA_x, RA_y, p, 0.0, 2.0)
                == pytest.approx(direct2, rel=1e-10))
        assert dense_second_term(model, M) == pytest.approx(direct2, rel=1e-10)
        dense = (0.5 * dense_first_term(model, x, p)
                 + 0.25 * dense_second_term(model, M))
        assert (model.cost(x, RA_x, RA_y, p, 1.0, 0.5)
                == pytest.approx(dense, rel=1e-10))
        M_y, D_y = model.form_pair(y, 0.0, 1.0)
        Q2 = (N_x * M_y.conj()).real
        c2 = (A_x.conj() * D_y).sum(axis=0).real
        expanded = p @ Q2 @ p - 2.0 * c2 @ p + np.vdot(model.B2, model.B2).real
        assert expanded == pytest.approx(direct2, rel=1e-10)
    B = model.null_basis
    assert np.allclose(B.T @ B, np.eye(28), atol=1e-12)
    assert np.allclose(B.sum(axis=0), 0.0, atol=1e-12)


def test_objective_vanishes_at_truth_on_narrow_wedge():
    """The narrow-wedge instance (R=16, n_xi=64, K=6, 1.5 deg): the
    objective at the truth is the norm of a residual that vanishes, not the
    rounding floor of a cancellation of ||C_w||^2-sized terms."""
    spec = build_basis_spec(0.3, 16.0)
    quad = build_quadrature(spec.c, 64)
    alpha = 1.5 * DEG
    p = bump_distribution(24, 1.1, 2.5)
    truth = random_phantom(spec, 1.0, seed=11)
    psi = eval_tilt_matrix(spec, quad, 6, alpha)
    feats = population_features(truth, p, psi, quad, 6, alpha)
    model = MomentModel(feats, spec, 24)
    obj = moment_objective(model, truth.values,
                           model.form_pieces(truth.values)[1], p.p, 1.0, 0.5)
    assert obj <= 1e-24 * np.vdot(feats.B2, feats.B2).real


# ----------------------------------------------------------- block solves

def test_truth_is_fixed_point(prob29):
    feats, spec, truth, p = (prob29[k] for k in ("features", "spec", "a", "p"))
    cfg = AdmmConfig(lam1=1.0, lam2=0.5, rho=1.0)
    model = MomentModel(feats, spec, 29)
    st = _state_at(model, truth.values, truth.values, p.p)
    a1 = update_a(st, cfg)
    assert np.linalg.norm(a1 - truth.values) <= 1e-12 * np.linalg.norm(truth.values)
    st.a = a1
    z1 = update_z(st, cfg)
    assert np.linalg.norm(z1 - truth.values) <= 1e-12 * np.linalg.norm(truth.values)
    st.z = z1
    p1 = update_p(st, cfg)
    assert np.linalg.norm(p1 - p.p) <= 1e-8


def test_block_updates_are_minimizers(prob29):
    feats, spec = prob29["features"], prob29["spec"]
    cfg = AdmmConfig(lam1=1.0, lam2=0.5, rho=1.0)
    model = MomentModel(feats, spec, 29)
    rng = np.random.default_rng(9)
    n_a = spec.n_a
    scale = feats.mu_norm / np.sqrt(n_a)
    st = _state_at(model,
                   scale * (rng.standard_normal(n_a) + 1j * rng.standard_normal(n_a)),
                   scale * (rng.standard_normal(n_a) + 1j * rng.standard_normal(n_a)),
                   project_simplex(rng.standard_normal(29) * 0.1 + 1 / 29))
    st.s = 0.1 * scale * (rng.standard_normal(n_a) + 1j * rng.standard_normal(n_a))

    def perturbed(**kw):
        alt = AdmmState(a=st.a, z=st.z, p=st.p, s=st.s, iter=0, model=model)
        for key, val in kw.items():
            setattr(alt, key, val)
        return augmented_lagrangian(alt, cfg)

    def check(block, value, directions):
        # each block is the argmin at the state where it was just updated
        setattr(st, block, value)
        base = augmented_lagrangian(st, cfg)
        slack = 1e-12 * max(abs(base), 1.0)
        for d in directions:
            assert perturbed(**{block: value + d}) >= base - slack

    scale_d = 1e-4 * np.linalg.norm(st.a)
    draws = lambda: [scale_d * (v := rng.standard_normal(n_a)
                                + 1j * rng.standard_normal(n_a)) / np.linalg.norm(v)
                     for _ in range(6)]
    check("a", update_a(st, cfg), draws())
    check("z", update_z(st, cfg), draws())
    p_dirs = [1e-4 * (e := model.null_basis @ rng.standard_normal(28))
              / np.linalg.norm(e) for _ in range(6)]
    check("p", update_p(st, cfg), p_dirs)


def test_update_p_matches_stacked_least_squares(tiny):
    """Independent route: the p-step solves the tall weighted LS over the
    sum-to-one affine set; rebuild that system explicitly and compare."""
    feats, spec = tiny["features"], tiny["spec"]
    lam1, lam2 = 1.0, 0.5
    model = MomentModel(feats, spec, 5)
    rng = np.random.default_rng(12)
    n_a = spec.n_a
    a = rng.standard_normal(n_a) + 1j * rng.standard_normal(n_a)
    z = rng.standard_normal(n_a) + 1j * rng.standard_normal(n_a)
    st = _state_at(model, a, z, np.full(5, 0.2))
    p_fast = update_p(st, AdmmConfig(lam1=lam1, lam2=lam2, rho=1.0))

    R = model.R
    A1 = R @ (a[:, None] * model.E)
    cols = [np.outer(R @ (a * model.E[:, l]),
                     (R @ (z * model.E[:, l])).conj()).ravel()
            for l in range(5)]
    A = np.vstack([np.sqrt(lam1) * A1, np.sqrt(lam2) * np.column_stack(cols)])
    b = np.concatenate([np.sqrt(lam1) * feats.b1,
                        np.sqrt(lam2) * feats.B2.ravel()])
    B = model.null_basis
    p_part = np.full(5, 0.2)
    reduced = np.vstack([(A @ B).real, (A @ B).imag])
    target = np.concatenate([(b - A @ p_part).real, (b - A @ p_part).imag])
    q, *_ = np.linalg.lstsq(reduced, target, rcond=None)
    assert np.linalg.norm(p_fast - (p_part + B @ q)) <= 1e-10


def test_update_p_rank_deficient_falls_back(tiny, caplog):
    # 30 angles against k_max = 1 leaves most of p unobservable
    feats, spec = tiny["features"], tiny["spec"]
    model = MomentModel(feats, spec, 30)
    rng = np.random.default_rng(13)
    a = rng.standard_normal(spec.n_a) + 1j * rng.standard_normal(spec.n_a)
    st = _state_at(model, a, a, np.full(30, 1 / 30))
    with caplog.at_level("WARNING", logger="tiltrec.admm"):
        p_new = update_p(st, AdmmConfig())
    assert any("rank-deficient" in r.message for r in caplog.records)
    assert abs(p_new.sum() - 1.0) < 1e-10


def _reduced_p_system(model, a, z, lam1, lam2):
    """update_p's reduced system (lhs, rhs) on the zero-sum subspace, from
    the model's pieces, with the null basis and the uniform particular
    solution."""
    A_a, _, N_a, _ = model.form_pieces(a)
    M, D = model.form_pair(z, lam1, lam2)
    lhs = (N_a * M.conj()).real
    rhs = (A_a.conj() * D).sum(axis=0).real
    B = model.null_basis
    p_part = np.full(model.n_theta, 1.0 / model.n_theta)
    return B.T @ lhs @ B, B.T @ (rhs - lhs @ p_part), B, p_part


def _p_step_routes(monkeypatch, inst, a, z, lam1=1.0, lam2=0.5):
    """(update_p's p, lstsq's minimum-norm p of the same reduced system,
    that system's singular values, update_p's lstsq call count) on
    a fresh state, so its rank warning can fire."""
    model = MomentModel(inst["features"], inst["spec"], inst["n_theta"])
    red_lhs, red_rhs, B, p_part = _reduced_p_system(model, a, z, lam1, lam2)
    q, _, _, sv = np.linalg.lstsq(red_lhs, red_rhs, rcond=None)
    lstsq, calls = np.linalg.lstsq, []
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *args, **kw: calls.append(1) or lstsq(*args, **kw))
    got = update_p(_state_at(model, a, z, p_part),
                   AdmmConfig(lam1=lam1, lam2=lam2))
    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    return got, p_part + B @ q, sv, len(calls)


def test_update_p_solve_route_matches_lstsq(tiny, prob29, monkeypatch,
                                           caplog):
    """A reduced p-system of full numerical rank is solved without lstsq,
    at the truth and at seeded starts, and its p equals lstsq's to the
    system's conditioning: 1e-12 relative on tiny, and eps times the
    condition number on prob29, where the condition number reaches 5e5
    and the two routes differ by up to 3e-12."""
    eps = np.finfo(float).eps
    for inst, bound in ((tiny, lambda cond: 1e-12),
                        (prob29, lambda cond: eps * cond)):
        truth = inst["a"].values.astype(complex)
        starts = [random_start(inst["features"].mu_norm, inst["spec"].n_a,
                               inst["n_theta"], seed)[:2] for seed in range(3)]
        for a, z in [(truth, truth), *starts]:
            with caplog.at_level("WARNING", logger="tiltrec.admm"):
                got, want, sv, calls = _p_step_routes(monkeypatch, inst, a, z)
            assert calls == 0 and not caplog.records
            assert (np.linalg.norm(got - want)
                    <= bound(sv[0] / sv[-1]) * np.linalg.norm(want))


@pytest.mark.parametrize("case", ["zero_a", "radial_a", "first_moment_only"])
def test_update_p_rank_deficient_is_lstsq_minimum_norm(prob29, monkeypatch,
                                                      caplog, case):
    """Where the reduced p-system fails lstsq's rank test, update_p returns
    lstsq's minimum-norm p and warns: at a = 0 (no data on p), at a radial
    a (only k = 0 coefficients, every angle alike) against a random z, and
    at lam2 = 0 with n_theta = 29 > 2 k_max + 1 = 15 angle harmonics that
    the first moment sees."""
    spec = prob29["spec"]
    rng = np.random.default_rng(1)
    a = rng.standard_normal(spec.n_a) + 1j * rng.standard_normal(spec.n_a)
    z = rng.standard_normal(spec.n_a) + 1j * rng.standard_normal(spec.n_a)
    lam2 = 0.5
    if case == "zero_a":
        a[:] = 0.0
    elif case == "radial_a":
        a[spec.k_arr != 0] = 0.0
    else:
        lam2 = 0.0
    with caplog.at_level("WARNING", logger="tiltrec.admm"):
        got, want, _, calls = _p_step_routes(monkeypatch, prob29, a, z,
                                             lam2=lam2)
    assert calls == 1
    assert [r.message for r in caplog.records if "rank-deficient" in r.message]
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert abs(got.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("bulk", [1.0, 0.0])
def test_p_rank_certificate_never_passes_where_eigvalsh_fails(bulk):
    """The Cholesky certificate passes only systems that pass lstsq's rank
    test by eigvalsh, and passes every system whose smallest eigenvalue is
    10 % above its shift 2 eps n trace.  The systems are rotated SPD
    matrices of size n = 23 with largest eigenvalue 1 and smallest just
    below and just above both edges, eps n and the shift, beside n - 2
    eigenvalues at 1 (trace near n) or at the smallest one (trace near 1,
    where the two edges are closest)."""
    eps, n = np.finfo(float).eps, 23
    rng = np.random.default_rng(0)
    outcomes = {}
    for edge, factor in itertools.product(
            ("rank", "shift"), (0.5, 0.9, 0.99, 1.01, 1.1, 2.0)):
        for _ in range(10):
            trace = 1.0 + (n - 2) * bulk
            small = factor * eps * n * (1.0 if edge == "rank" else 2 * trace)
            lam = np.full(n, bulk if bulk else small)
            lam[0], lam[-1] = 1.0, small
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            S = (Q * lam) @ Q.T
            S = 0.5 * (S + S.T)
            ev = np.abs(np.linalg.eigvalsh(S))
            passes = bool(np.all(ev > eps * n * ev.max()))
            certified = _rank_certified(S)
            assert passes or not certified, (edge, factor)
            outcomes.setdefault((edge, factor), set()).add(
                (passes, certified))
    assert outcomes[("rank", 0.5)] == {(False, False)}
    for factor in (1.1, 2.0):
        assert {c for _, c in outcomes[("shift", factor)]} == {True}
    assert not _rank_certified(np.zeros((n, n)))


def test_update_p_refuses_a_non_finite_system(prob29, monkeypatch):
    """An a whose angle Gram overflows raises SolverError before the
    eigenvalue test or lstsq sees the system (LAPACK's SVD does not return
    on NaN input)."""
    model = MomentModel(prob29["features"], prob29["spec"], 29)

    def refuse(*args, **kw):
        raise AssertionError("a non-finite system reached LAPACK")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    huge = np.full(prob29["spec"].n_a, 1e200, dtype=complex)
    st = _state_at(model, huge, huge, np.full(29, 1 / 29))
    with (np.errstate(over="ignore", invalid="ignore"),
          pytest.raises(SolverError, match="p-update produced non-finite")):
        update_p(st, AdmmConfig())


def _step_system(model, fixed, p, lam1, lam2):
    """The a/z-step Gram G o conj(E_p M E_p^H) and right-hand side
    (D o conj(E)) p from (M, D) = form_pair(fixed), without the ridge."""
    M, D = model.form_pair(fixed, lam1, lam2)
    Ep = model.E * p[None, :]
    return model.G * (Ep @ M @ Ep.conj().T).conj(), (D * model.E.conj()) @ p


def test_second_moment_dense_route_matches_compressed(tiny, prob29):
    """The a/z-step system from the Schur pair equals the dense operators'
    normal equations, with more angles than coefficients (tiny: n_theta =
    5 > 3) and with fewer (prob29: n_theta = 29 < 30): the second-moment
    part against A2, the first-moment part against R diag(g)."""
    rng = np.random.default_rng(15)
    for inst in (tiny, prob29):
        feats, spec, n_t = inst["features"], inst["spec"], inst["n_theta"]
        model = MomentModel(feats, spec, n_t)
        n_a = spec.n_a
        z = rng.standard_normal(n_a) + 1j * rng.standard_normal(n_a)
        p = project_simplex(rng.standard_normal(n_t) * 0.1 + 1 / n_t)
        H = angle_coupling(model.E, p)
        A2 = build_a2_matrix(model.R, z, H)
        A1 = model.R * (model.E @ p)[None, :]
        for lam1, lam2, A, b in ((0.0, 1.0, A2, model.B2.ravel()),
                                 (1.0, 0.0, A1, model.b1)):
            gram_c, rhs_c = _step_system(model, z, p, lam1, lam2)
            gram_d = A.conj().T @ A
            rhs_d = A.conj().T @ b
            assert (np.linalg.norm(gram_d - gram_c)
                    <= 1e-12 * np.linalg.norm(gram_d))
            assert np.linalg.norm(rhs_d - rhs_c) <= 1e-12 * np.linalg.norm(rhs_d)
        # the dense operator itself: A2 @ x == vec(R ((x z^H) o H) R^H)
        x = rng.standard_normal(n_a) + 1j * rng.standard_normal(n_a)
        direct = (model.R @ (np.outer(x, z.conj()) * H)
                  @ model.R.conj().T).ravel()
        assert np.linalg.norm(A2 @ x - direct) <= 1e-12 * np.linalg.norm(direct)


def test_dense_route_refuses_runaway_sizes(prob29):
    model = MomentModel(prob29["features"], prob29["spec"], 29)
    big = 1 + int(np.sqrt(5e7 / model.spec.n_a))
    pad = np.zeros((big - model.R.shape[0], model.spec.n_a))
    with pytest.raises(ConfigError):
        build_a2_matrix(np.vstack([model.R, pad]),
                        np.zeros(model.spec.n_a, dtype=complex),
                        np.eye(model.spec.n_a))


# ------------------------------------------------------- objective routes

def test_objective_routes_agree(prob29):
    """Augmented Lagrangian at consensus == unsplit objective == the dense
    residual route built from the mixture sums."""
    feats, spec = prob29["features"], prob29["spec"]
    model = MomentModel(feats, spec, 29)
    rng = np.random.default_rng(21)
    vals = rng.standard_normal(spec.n_a) + 1j * rng.standard_normal(spec.n_a)
    p = project_simplex(rng.standard_normal(29) * 0.1 + 1 / 29)
    st = _state_at(model, vals, vals, p)
    cfg = AdmmConfig(lam1=1.0, lam2=0.5, rho=1.0)
    lag = augmented_lagrangian(st, cfg)
    obj = moment_objective(model, vals, model.form_pieces(vals)[1], p, 1.0,
                           0.5)
    _, _, raw = dense_residuals(FBCoeffs(vals, spec), p, feats.R, feats,
                                1.0, 0.5)
    assert lag == pytest.approx(raw, rel=1e-12)
    assert obj == pytest.approx(raw, rel=1e-12)


# -------------------------------------------------------------- full runs

def test_run_matches_dense_oracle_iteration(prob29):
    """20 iterations of run_admm follow the oracle iteration built on H(p)
    and n_a^3 products: iterate, Lagrangian and objective histories, also
    with either moment weight at zero."""
    feats, spec = prob29["features"], prob29["spec"]
    for lam1, lam2 in ((1.0, 0.5), (0.0, 0.5), (1.0, 0.0)):
        cfg = AdmmConfig(lam1=lam1, lam2=lam2, rho=1.0, max_iter=20, seed=3,
                         tol_change=0.0)
        run = init_admm_state(feats, cfg, spec, 29)
        res = run_admm(feats, cfg, spec, 29, state=run)
        st = init_admm_state(feats, cfg, spec, 29)
        lags, objs, primal, dual = [], [], [], []
        for _ in range(20):
            z_prev = st.z
            lag, obj = dense_admm_iteration(st, cfg)
            lags.append(lag)
            objs.append(obj)
            primal.append(np.linalg.norm(st.a - st.z))
            dual.append(cfg.rho * np.linalg.norm(st.z - z_prev))
        assert res.n_iter == 20
        consensus = 0.5 * (st.a + st.z)
        scale = np.linalg.norm(consensus)
        assert np.linalg.norm(res.a.values - consensus) <= 1e-10 * scale
        assert (np.linalg.norm(run.p - st.p)
                <= 1e-10 * np.linalg.norm(st.p))
        assert np.allclose(res.history["lagrangian"], lags, rtol=1e-10, atol=0)
        assert np.allclose(res.history["objective"], objs, rtol=1e-10, atol=0)
        for key, want in (("primal_residual", primal),
                          ("dual_residual", dual)):
            assert np.allclose(res.history[key], want, rtol=0,
                               atol=1e-10 * scale)


def test_pieces_formed_once_per_iterate(tiny, monkeypatch):
    """k iterations form the angle pieces 2k + 1 times: the start's z, then
    each new a (in the z-step) and z (in the p-step).  Every other step
    reads kept pieces, and the consensus takes its own by linearity."""
    calls = []
    form = MomentModel.form_pieces
    monkeypatch.setattr(MomentModel, "form_pieces",
                        lambda model, y: calls.append(y) or form(model, y))
    for k in (1, 2, 7):
        calls.clear()
        cfg = AdmmConfig(max_iter=k, tol_change=0.0, seed=1)
        assert run_admm(tiny["features"], cfg, tiny["spec"], 5).n_iter == k
        assert len(calls) == 2 * k + 1


def test_pieces_follow_replaced_iterates(prob29):
    """After a or z is replaced, by a new array or in place, every step
    equals the one of a freshly built state to 1e-13: the kept pieces are
    keyed by the vector's bytes and never stale."""
    feats, spec = prob29["features"], prob29["spec"]
    cfg = AdmmConfig(lam1=1.0, lam2=0.5, rho=1.0)
    rng = np.random.default_rng(31)
    n_a = spec.n_a
    st = init_admm_state(feats, cfg, spec, 29)
    st.a = update_a(st, cfg)
    st.z = update_z(st, cfg)
    st.p = update_p(st, cfg)

    def check():
        fresh = AdmmState(a=st.a.copy(), z=st.z.copy(), p=st.p, s=st.s,
                          iter=0, model=MomentModel(feats, spec, 29))
        for step in (update_a, update_z, update_p, augmented_lagrangian):
            got, want = step(st, cfg), step(fresh, cfg)
            assert (np.linalg.norm(np.subtract(got, want))
                    <= 1e-13 * np.linalg.norm(want))

    draw = lambda: rng.standard_normal(n_a) + 1j * rng.standard_normal(n_a)
    st.z = draw()
    check()
    st.a = draw()
    check()
    st.a[:] = draw()
    check()
    st.z[:] = draw()
    check()


def test_kept_pieces_equal_fresh_workspaces_bitwise(prob29):
    """k iterations of run_admm are bitwise a replay of the block steps in
    which every step, the Lagrangian and the objective get a fresh
    moment model: the kept pieces of a and z are exactly the ones formed anew,
    and the consensus objective reads R A_c = (R A_a + R A_z)/2."""
    feats, spec = prob29["features"], prob29["spec"]
    k = 10
    cfg = AdmmConfig(max_iter=k, tol_change=0.0, seed=2)
    run = init_admm_state(feats, cfg, spec, 29)
    res = run_admm(feats, cfg, spec, 29, state=run)
    st = init_admm_state(feats, cfg, spec, 29)
    fresh = lambda: MomentModel(feats, spec, 29)
    lags, objs = [], []
    for _ in range(k):
        for name, step in (("a", update_a), ("z", update_z), ("p", update_p)):
            st.model = fresh()
            setattr(st, name, step(st, cfg))
        st.s = st.s + st.a - st.z
        st.model = fresh()
        lags.append(augmented_lagrangian(st, cfg))
        model = fresh()
        RA_c = 0.5 * (model.form_pieces(st.a)[1] + model.form_pieces(st.z)[1])
        objs.append(moment_objective(model, 0.5 * (st.a + st.z), RA_c, st.p,
                                     cfg.lam1, cfg.lam2))
    for name in ("a", "z", "p", "s"):
        assert np.array_equal(getattr(run, name), getattr(st, name)), name
    assert np.array_equal(res.a.values, 0.5 * (st.a + st.z))
    assert res.history["lagrangian"] == lags
    assert res.history["objective"] == objs


def test_stop_reason(tiny):
    """A run that meets its tolerances stops on "tolerance" and is
    converged; one cut by max_iter says so."""
    feats, spec = tiny["features"], tiny["spec"]
    done = run_admm(feats, AdmmConfig(rho=2.0, seed=1), spec, 5)
    assert (done.stop_reason, done.converged) == ("tolerance", True)
    cut = run_admm(feats, AdmmConfig(rho=2.0, seed=1, max_iter=3), spec, 5)
    assert (cut.stop_reason, cut.converged, cut.n_iter) == ("max_iter", False,
                                                            3)


def _assert_same_result(got, want):
    assert np.array_equal(got.a.values, want.a.values)
    assert np.array_equal(got.p.p, want.p.p)
    assert got.history == want.history
    assert (got.n_iter, got.stop_reason) == (want.n_iter, want.stop_reason)


@pytest.mark.parametrize("case", ["max_iter", "tolerance"])
def test_resumed_run_continues_exactly(tiny, prob29, case):
    """k iterations and then K - k more on the same state give bitwise one
    K-iteration run, also when the tolerance stop falls on iteration k + 1,
    and continuing the state leaves the first result's history as it was."""
    if case == "max_iter":
        inst, k, K, cfg = prob29, 37, 200, AdmmConfig(max_iter=200, seed=2)
    else:
        inst, cfg = tiny, AdmmConfig(rho=2.0, seed=1)
    feats, spec, n_theta = inst["features"], inst["spec"], inst["n_theta"]
    whole_state = init_admm_state(feats, cfg, spec, n_theta)
    whole = run_admm(feats, cfg, spec, n_theta, state=whole_state)
    if case == "tolerance":
        assert whole.stop_reason == "tolerance"
        k, K = whole.n_iter - 1, cfg.max_iter
    state = init_admm_state(feats, cfg, spec, n_theta)
    first = run_admm(feats, replace(cfg, max_iter=k), spec, n_theta,
                     state=state)
    kept = {key: list(vals) for key, vals in first.history.items()}
    rest = run_admm(feats, replace(cfg, max_iter=K - k), spec, n_theta,
                    state=state)
    _assert_same_result(rest, whole)
    assert np.array_equal(state.p, whole_state.p)
    assert first.history == kept and first.n_iter == k


def test_snapshots_equal_separate_runs_across_a_tolerance_stop(tiny):
    """Each budget's snapshot of the shared run is bitwise a separate run of
    that budget, for budgets before, at and after its tolerance stop."""
    feats, spec = tiny["features"], tiny["spec"]
    cfg = AdmmConfig(rho=2.0, seed=1)
    stop = run_admm(feats, cfg, spec, 5).n_iter
    budgets = {stop - 1, stop, stop + 1, cfg.max_iter}
    snapshots = _admm_snapshots(
        feats, budgets, {"solver": {"lambda1": cfg.lam1, "lambda2": cfg.lam2,
                                    "rho": cfg.rho}}, cfg.seed, spec, 5)
    assert set(snapshots) == budgets
    for budget in budgets:
        _assert_same_result(snapshots[budget][0], run_admm(
            feats, replace(cfg, max_iter=budget), spec, 5))


def test_objective_decreases_from_random_start(prob29):
    cfg = AdmmConfig(lam1=1.0, lam2=0.5, rho=1.0, max_iter=80, seed=1)
    res = run_admm(prob29["features"], cfg, prob29["spec"], 29)
    obj = np.asarray(res.history["objective"])
    lag = np.asarray(res.history["lagrangian"])
    assert obj[-1] < 0.1 * obj[0]
    assert res.history["primal_residual"][-1] < 1e-3
    rel_inc = np.diff(lag) / np.maximum(np.abs(lag[:-1]), 1e-300)
    assert np.max(rel_inc) <= 1e-10


def test_exact_recovery_up_to_continuous_rotation(tiny):
    """From a 1 percent perturbation of the truth the solver drives the
    feature residual to zero; the end point equals the truth rotated by an
    off-grid angle, with the relaxed p carrying the identical shift."""
    feats, spec, truth, p = (tiny[k] for k in ("features", "spec", "a", "p"))
    cfg = AdmmConfig(lam1=1.0, lam2=0.5, rho=1.0, max_iter=1500, tol_change=0.0)
    model = MomentModel(feats, spec, 5)
    rng = np.random.default_rng(3)
    a0 = truth.values * (1 + 0.01 * rng.standard_normal(spec.n_a))
    p0 = np.abs(p.p * (1 + 0.01 * rng.standard_normal(5)))
    st = _state_at(model, a0, a0, p0 / p0.sum())
    res = run_admm(feats, cfg, spec, 5, state=st)

    obj = moment_objective(model, res.a.values,
                           model.form_pieces(res.a.values)[1], st.p, 1.0, 0.5)
    scale2 = 0.5 * np.vdot(feats.b1, feats.b1).real \
        + 0.25 * np.vdot(feats.B2, feats.B2).real
    assert obj <= 1e-18 * scale2

    est = res.a.values
    tnorm = np.linalg.norm(truth.values)

    def mis(gamma):
        return np.linalg.norm(truth.values - est * np.exp(-1j * spec.k_arr * gamma)) / tnorm

    grid = np.linspace(0.0, 2.0 * np.pi, 721, endpoint=False)
    g0 = grid[np.argmin([mis(g) for g in grid])]
    best = minimize_scalar(mis, bracket=(g0 - 0.02, g0, g0 + 0.02), method="brent")
    assert best.fun <= 1e-8

    phat_t = np.fft.fft(p.p)
    phat_e = np.fft.fft(st.p)
    for m in (1, 2):
        assert abs(phat_e[m] - phat_t[m] * np.exp(1j * m * best.x)) <= 1e-8


def test_rotated_init_gives_rotated_trajectory(tiny):
    feats, spec = tiny["features"], tiny["spec"]
    cfg = AdmmConfig(lam1=1.0, lam2=0.5, rho=1.0, max_iter=300, seed=2)
    s0 = init_admm_state(feats, cfg, spec, 5)
    l0 = 2
    phase = np.exp(-1j * spec.k_arr * (2.0 * np.pi * l0 / 5))
    s1 = AdmmState(a=s0.a * phase, z=s0.z * phase, p=np.roll(s0.p, l0),
                   s=np.zeros(spec.n_a, dtype=complex), iter=0,
                   model=MomentModel(feats, spec, 5))
    r0 = run_admm(feats, cfg, spec, 5, state=s0)
    r1 = run_admm(feats, cfg, spec, 5, state=s1)
    scale = np.linalg.norm(r0.a.values)
    assert np.linalg.norm(r1.a.values - r0.a.values * phase) <= 1e-10 * scale
    assert np.linalg.norm(r1.p.p - np.roll(r0.p.p, l0)) <= 1e-10


def test_continued_state_rejects_other_inputs(tiny, prob29):
    """A state runs only on the features, spec and n_theta its moment model
    was built from: other ones raise ConfigError naming the argument before
    the first iteration."""
    feats, spec = tiny["features"], tiny["spec"]
    cfg = AdmmConfig(max_iter=50)
    for name, args in (("features", (prob29["features"], spec, 5)),
                       ("spec", (feats, prob29["spec"], 5)),
                       ("n_theta", (feats, spec, 6))):
        st = init_admm_state(feats, cfg, spec, 5)
        with pytest.raises(ConfigError, match=f"other {name}$"):
            run_admm(args[0], cfg, args[1], args[2], state=st)
        assert st.iter == 0
        assert all(vals == [] for vals in st.history.values())


def test_divergence_raises_with_history(tiny):
    feats = tiny["features"]
    blown = replace(feats, b1=feats.b1 * 1e9, B2=feats.B2 * 1e9,
                    mu_norm=feats.mu_norm * 1e9)
    cfg = AdmmConfig(lam1=1.0, lam2=0.5, rho=1.0, max_iter=50, seed=0)
    with pytest.raises(SolverError) as err:
        run_admm(blown, cfg, tiny["spec"], 5)
    assert err.value.history is not None
    assert len(err.value.history["objective"]) >= 1


def test_history_csv(tiny, tmp_path):
    cfg = AdmmConfig(max_iter=5, seed=0)
    res = run_admm(tiny["features"], cfg, tiny["spec"], 5)
    path = tmp_path / "hist.csv"
    history_to_csv(res.history, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ("iter,objective,primal_residual,dual_residual,"
                        "lagrangian")
    assert len(lines) == 6
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert all(np.isfinite(float(x)) for x in first[1:])


def test_result_p_is_normalized_distribution(tiny):
    cfg = AdmmConfig(max_iter=30, seed=4)
    res = run_admm(tiny["features"], cfg, tiny["spec"], 5)
    assert abs(res.p.p.sum() - 1.0) < 1e-12
    assert np.all(res.p.p >= 0)
    assert res.n_iter == len(res.history["iter"])
