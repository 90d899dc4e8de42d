"""EM tests: whitening, soft assignment, exact M-step, likelihood routes,
and full-loop recovery on batches drawn from the model itself.

Recovery is tested on model-consistent data (basis predictions plus noise
with exactly the modeled covariance). Batches projected in real space carry
a finite-window discrepancy that the likelihood legitimately fits, which
would make a recovery assertion measure the window, not the solver.

model_batch writes such data as real line samples: once the line is long
enough that the real-linear map y -> F y from a line to its node values is
onto (L = 256 against n_xi = 32 in em_problem), each exact model spectrum
is the image of its minimum-norm real line, and white real-space noise on
those lines is the modeled node noise.  EM reads them as it reads the
lines of a simulated batch.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg
from scipy.special import logsumexp

from tiltrec.basis import (FBCoeffs, build_basis_spec, build_quadrature,
                           eval_tilt_matrix)
from tiltrec.cli import history_to_csv
from tiltrec.em import EmConfig, EmWorkspace, m_step, run_em
from tiltrec.errors import ConfigError, SolverError
from tiltrec.metrics import relative_error
from tiltrec.moments import angle_phase_matrix
from tiltrec.sim import (TiltSeriesBatch, ViewDistribution, build_line_grid,
                         bump_distribution, generate_batch, random_phantom)
from tiltrec.spectral import dft_matrix, transform_batch

from oracles import (e_step, explicit_dft_matrix, log_marginal_likelihood,
                     node_spectra, whitened_records)

DEG = np.pi / 180.0


def model_spectra(truth, labels, n_theta, K, alpha, quad):
    """Exact model spectra psi (a o e_l) of every record, (N, (2K+1)*n_xi)."""
    psi = eval_tilt_matrix(truth.spec, quad, K, alpha)
    E = angle_phase_matrix(truth.spec, n_theta)
    return (psi @ (truth.values[:, None] * E[:, labels])).T


def model_batch(truth, p, N, K, alpha, sigma2, grid, quad, seed):
    """A batch drawn exactly from the mixture model: each tilt's clean line
    is the minimum-norm real solution y of F y = psi_kappa (a o e_l), and
    white real-space noise of variance sigma2 is added to it.  The hidden
    angles are the drawn labels."""
    rng = np.random.default_rng(seed)
    labels = rng.choice(p.n_theta, size=N, p=p.p)
    n_tilt = 2 * K + 1
    F = dft_matrix(grid, quad)
    clean = model_spectra(truth, labels, p.n_theta, K, alpha, quad).reshape(
        N, n_tilt, quad.n_xi)
    lift = np.linalg.pinv(np.vstack([F.real, F.imag]))    # (L, 2 n_xi)
    lines = np.concatenate([clean.real, clean.imag], axis=2) @ lift.T
    samples = lines + np.sqrt(sigma2) * rng.standard_normal((N, n_tilt,
                                                             grid.L))
    batch = TiltSeriesBatch(samples=samples, K=K, alpha=alpha, sigma2=sigma2,
                            grid=grid, seed=seed, n_theta=p.n_theta,
                            hidden_angles=labels)
    return transform_batch(batch, quad)


@pytest.fixture(scope="module")
def tiny_em():
    """R=4 basis, 8 angles, 20 records: small enough for dense oracles."""
    spec = build_basis_spec(0.3, 4.0)
    quad = build_quadrature(0.3, 12)
    truth = random_phantom(spec, 1.0, seed=5)
    p = bump_distribution(8, 1.1, 2.5)
    grid = build_line_grid(10)
    batch = generate_batch(truth, p, 20, 1, 3.8 * DEG, 0.3, grid, quad, seed=9)
    sb = transform_batch(batch, quad)
    return {"spec": spec, "quad": quad, "a": truth, "p": p, "grid": grid,
            "batch": batch, "sb": sb}


@pytest.fixture(scope="module")
def em_problem(small_spec, small_phantom, bump12):
    """R=8 model-consistent batch for full-loop runs."""
    quad = build_quadrature(0.3, 32)
    grid = build_line_grid(256)
    # sigma2 * n_xi * L, the per-tilt node-noise trace, is 25.6
    K, alpha, sigma2 = 2, 3.8 * DEG, 0.003125
    sb = model_batch(small_phantom, bump12, 300, K, alpha, sigma2, grid, quad,
                     seed=7)
    return {"spec": small_spec, "a": small_phantom, "p": bump12, "sb": sb,
            "quad": quad, "labels": sb.batch.hidden_angles,
            "work": EmWorkspace(sb, small_spec, 12)}


def test_config_validation():
    with pytest.raises(ConfigError):
        EmConfig(max_iter=0)


def test_workspace_validation(tiny_em):
    clean = transform_batch(replace(tiny_em["batch"], sigma2=0.0),
                            tiny_em["quad"])
    with pytest.raises(ConfigError):
        EmWorkspace(clean, tiny_em["spec"], 8)
    with pytest.raises(ConfigError):
        EmWorkspace(tiny_em["batch"], tiny_em["spec"], 8)


@pytest.mark.parametrize("L, n_xi, rank", [
    (10, 12, 9), (32, 64, 18), (128, 64, 50), (128, 32, 32)])
def test_whitening_identity(tiny_em, L, n_xi, rank):
    """sigma2 (W F)(W F)^H = I on the kept space, with F the node DFT by
    its definition, at tiny_em's geometry, the default line grid, and
    em_records_large's (128, 64) and experiment_wide's (128, 32) ones; the
    kept rank is pinned, since the cutoff sits between singular values."""
    grid, quad = build_line_grid(L), build_quadrature(0.3, n_xi)
    batch = TiltSeriesBatch(samples=np.zeros((1, 3, L)), K=1, alpha=0.05,
                            sigma2=0.3, grid=grid, seed=0, n_theta=8)
    work = EmWorkspace(transform_batch(batch, quad), tiny_em["spec"], 8)
    WF = work.whiten @ explicit_dft_matrix(grid, quad)
    assert work.rank == rank
    assert np.linalg.norm(0.3 * WF @ WF.conj().T - np.eye(rank)) <= 1e-9
    assert work.B.shape == (3 * rank, tiny_em["spec"].n_a)


def test_model_batch_lines_are_exact(em_problem, small_phantom, bump12):
    """A noiseless model batch's lines map through F to the exact model
    spectra psi (a o e_l), record by record, at em_problem's geometry."""
    quad, K, alpha = em_problem["quad"], 2, 3.8 * DEG
    sb = model_batch(small_phantom, bump12, 40, K, alpha, 0.0,
                     build_line_grid(256), quad, seed=3)
    want = model_spectra(small_phantom, sb.batch.hidden_angles, 12, K, alpha,
                         quad)
    got = node_spectra(sb)
    err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert err.max() <= 1e-12


def test_e_step_rows_and_one_hot(small_spec, small_phantom, bump12):
    quad = build_quadrature(0.3, 32)
    grid = build_line_grid(16)
    batch = generate_batch(small_phantom, bump12, 50, 2, 3.8 * DEG, 1e-6,
                           grid, quad, seed=3)
    sb = transform_batch(batch, quad)
    pi = e_step(sb, small_phantom, bump12)
    assert np.allclose(pi.sum(axis=1), 1.0, atol=1e-12)
    # at vanishing noise the posterior concentrates on the hidden label
    assert np.array_equal(np.argmax(pi, axis=1), batch.hidden_angles)
    assert pi.max(axis=1).min() > 0.999


def test_workspace_keeps_only_n_a_sized_record_statistics(tiny_em):
    """No array attribute is as long as the batch and wider than the basis;
    the whitened record array is not kept."""
    work = EmWorkspace(tiny_em["sb"], tiny_em["spec"], 8)
    N, n_a = tiny_em["batch"].N, tiny_em["spec"].n_a
    assert not hasattr(work, "U_w")
    assert work.Y.shape == (N, n_a) and work.data_norm2.shape == (N,)
    for name, value in vars(work).items():
        if isinstance(value, np.ndarray) and value.ndim and value.shape[0] == N:
            assert value.size <= N * n_a, name


def test_record_statistics_match_whitened_records(tiny_em, monkeypatch):
    """Y and the norms, filled in record blocks smaller than the batch, equal
    U_w conj(B) and the row norms of the whole whitened record array, up to
    the rounding of two whitening routes (about 5e-13 on U_w here)."""
    monkeypatch.setattr("tiltrec.sim._REDUCE_BLOCK", 7)
    work = EmWorkspace(tiny_em["sb"], tiny_em["spec"], 8)
    U_w = whitened_records(work, tiny_em["sb"])
    Y = U_w @ work.B.conj()
    norms = np.linalg.norm(U_w, axis=1) ** 2
    assert np.linalg.norm(work.Y - Y) <= 1e-12 * np.linalg.norm(Y)
    assert np.max(np.abs(work.data_norm2 - norms) / norms) <= 1e-12


def test_m_step_matches_stacked_least_squares(tiny_em):
    """Independent route: weight every (record, angle) copy by sqrt(pi) and
    solve one dense least squares over all of them."""
    work = EmWorkspace(tiny_em["sb"], tiny_em["spec"], 8)
    rng = np.random.default_rng(2)
    raw = rng.random((20, 8))
    pi = raw / raw.sum(axis=1)[:, None]
    a_m, p_m = m_step(work, pi)
    U_w = whitened_records(work, tiny_em["sb"])
    rows, tgt = [], []
    for i in range(20):
        for l in range(8):
            s = np.sqrt(pi[i, l])
            rows.append(s * (work.B * work.E[:, l][None, :]))
            tgt.append(s * U_w[i])
    a_dense, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(tgt),
                                  rcond=None)
    assert np.linalg.norm(a_m.values - a_dense) <= 1e-10 * np.linalg.norm(a_dense)
    assert np.allclose(p_m.p, pi.mean(axis=0), atol=1e-14)


def test_normal_matrix_matches_per_angle_sum(tiny_em):
    """The Schur-product normal matrix equals the explicit sum of steered
    Grams sum_l m_l diag(conj e_l) G_B diag(e_l)."""
    work = EmWorkspace(tiny_em["sb"], tiny_em["spec"], 8)
    mass = np.random.default_rng(5).random(8) * 20
    want = sum(mass[l] * (work.E[:, l].conj()[:, None] * work.G_B
                          * work.E[:, l][None, :]) for l in range(8))
    got = work.normal_matrix(mass)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_log_likelihood_dense_oracle(tiny_em):
    """Whitened-residual likelihood recomputed per record with explicit
    loops, straight from the definitions.  W is the noise block's
    pseudo-inverse square root from LAPACK's gesvd of F by its definition,
    a different driver from the package's, and not from the block itself,
    whose formation squares F's condition number."""
    spec, quad, sb, p = (tiny_em[k] for k in ("spec", "quad", "sb", "p"))
    a_try = tiny_em["a"].values * 1.1 + 0.05
    ll_pkg = log_marginal_likelihood(
        sb, FBCoeffs(a_try, spec, real_symmetric=False), p)

    psi = eval_tilt_matrix(spec, quad, 1, 3.8 * DEG)
    U, s, _ = linalg.svd(explicit_dft_matrix(tiny_em["grid"], quad),
                         full_matrices=False, lapack_driver="gesvd")
    lam = 0.3 * s ** 2                  # the eigenvalues of sigma2 F F^H
    keep = lam > 1e-10 * lam.max()
    W = (U[:, keep] / np.sqrt(lam[keep])).conj().T
    n_xi = quad.n_xi
    total = 0.0
    yhat = node_spectra(sb)
    for i in range(sb.batch.N):
        terms = []
        for l in range(8):
            ph = np.exp(1j * spec.k_arr * (2.0 * np.pi * l / 8))
            resid = (yhat[i] - psi @ (a_try * ph)).reshape(3, n_xi)
            d2 = sum(np.linalg.norm(W @ resid[t]) ** 2 for t in range(3))
            terms.append(np.log(p.p[l]) - 0.5 * d2)
        total += logsumexp(terms)
    assert ll_pkg == pytest.approx(total, rel=1e-10)


def test_likelihood_grid_rotation_invariance(tiny_em):
    spec, sb, p = (tiny_em[k] for k in ("spec", "sb", "p"))
    a_try = tiny_em["a"].values * 1.1 + 0.05
    base = log_marginal_likelihood(
        sb, FBCoeffs(a_try, spec, real_symmetric=False), p)
    for l0 in (1, 3, 5):
        phase = np.exp(-1j * spec.k_arr * (2.0 * np.pi * l0 / 8))
        rot = log_marginal_likelihood(
            sb, FBCoeffs(a_try * phase, spec, real_symmetric=False),
            ViewDistribution(np.roll(p.p, l0), 8))
        assert abs(rot - base) <= 1e-9 * abs(base)


def test_run_em_monotone_and_recovers(em_problem):
    spec, truth, p = em_problem["spec"], em_problem["a"], em_problem["p"]
    rng = np.random.default_rng(2)
    a0 = FBCoeffs(truth.values * (1 + 0.2 * rng.standard_normal(spec.n_a)),
                  spec, real_symmetric=False)
    res = run_em(em_problem["work"], a0, p, EmConfig(max_iter=60))
    h = np.asarray(res.history["log_likelihood"])
    assert res.history["iter"] == list(range(res.n_iter + 1))
    assert np.all(np.diff(h) >= -1e-8 * np.maximum(1.0, np.abs(h[:-1])))
    assert res.converged

    # the refinement should land on the known-label oracle fit
    pi = np.zeros((len(em_problem["labels"]), 12))
    pi[np.arange(len(pi)), em_problem["labels"]] = 1.0
    a_or, _ = m_step(em_problem["work"], pi)
    re_end, _ = relative_error(truth, res.a, 120)
    re_oracle, _ = relative_error(truth, a_or, 120)
    assert re_end <= re_oracle + 1e-3
    assert re_end < 0.05


def test_run_em_stop_reason(em_problem):
    """A run whose likelihood gain falls below the tolerance stops on
    "tolerance" and is converged; one cut by max_iter says so."""
    spec, truth, p = em_problem["spec"], em_problem["a"], em_problem["p"]
    done = run_em(em_problem["work"], truth, p, EmConfig(max_iter=60))
    assert (done.stop_reason, done.converged) == ("tolerance", True)
    assert done.n_iter < 60
    cut = run_em(em_problem["work"], truth, p, EmConfig(max_iter=2))
    assert (cut.stop_reason, cut.converged, cut.n_iter) == ("max_iter",
                                                            False, 2)


def test_run_em_stops_on_decrease(em_problem, monkeypatch):
    """A likelihood drop beyond the tolerance band ends the run with stop
    reason "decrease", not converged, at the visit that dropped; the same
    drop inside the band is a "tolerance" stop at the same visit."""
    spec, truth, p = em_problem["spec"], em_problem["a"], em_problem["p"]
    a0 = FBCoeffs(1.2 * truth.values, spec, real_symmetric=False)
    calls = []

    def worse_second(work, pi):
        a, pd = m_step(work, pi)
        calls.append(1)
        if len(calls) == 2:   # the second estimate moves off the fit
            a = FBCoeffs(1.05 * a.values, spec, real_symmetric=False)
        return a, pd

    monkeypatch.setattr("tiltrec.em.m_step", worse_second)
    res = run_em(em_problem["work"], a0, p, EmConfig(max_iter=60))
    ll = res.history["log_likelihood"]
    assert (res.stop_reason, res.converged, res.n_iter) == ("decrease",
                                                            False, 2)
    drop = ll[1] - ll[2]
    assert drop > 1e-12 * abs(ll[1]) and ll[1] - ll[0] > 4 * drop

    calls.clear()
    tol = 2 * drop / abs(ll[1])     # the band holds the drop, not the gain
    wide = run_em(em_problem["work"], a0, p,
                  EmConfig(max_iter=60, tol_loglik=tol))
    assert (wide.stop_reason, wide.converged, wide.n_iter) == ("tolerance",
                                                               True, 2)
    assert wide.history == res.history


def test_non_finite_data_raises(tiny_em):
    bad = tiny_em["batch"].samples.copy()
    bad[0, 0, 0] = np.inf
    sb_bad = transform_batch(replace(tiny_em["batch"], samples=bad),
                             tiny_em["quad"])
    with pytest.raises(SolverError), np.errstate(invalid="ignore"):
        run_em(EmWorkspace(sb_bad, tiny_em["spec"], 8), tiny_em["a"],
               tiny_em["p"], EmConfig(max_iter=5))


def test_history_csv(em_problem, tmp_path):
    res = run_em(em_problem["work"], em_problem["a"], em_problem["p"],
                 EmConfig(max_iter=4))
    path = tmp_path / "em.csv"
    history_to_csv(res.history, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,log_likelihood"
    assert len(lines) == res.n_iter + 2
    assert float(lines[1].split(",")[1]) == pytest.approx(
        res.history["log_likelihood"][0])
