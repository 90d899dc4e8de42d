import numpy as np
import pytest

from tiltrec.basis import (FBCoeffs, build_basis_spec, build_quadrature,
                           eval_tilt_matrix)
from tiltrec.errors import ConfigError
from tiltrec.moments import (angle_coupling, angle_phase_matrix,
                             empirical_moments, first_moment,
                             population_features, weight_diagonal,
                             weighted_qr)
from tiltrec.sim import (TiltSeriesBatch, ViewDistribution, build_line_grid,
                         generate_batch, uniform_distribution)
from tiltrec.spectral import dft_matrix, noise_covariance, transform_batch

from oracles import (brute_force_moments, dense_residuals,
                     full_noise_covariance, node_moments, node_spectra, to_q)

DEG = np.pi / 180.0


def random_pair(spec, n_theta, rng):
    a = FBCoeffs(rng.standard_normal(spec.n_a)
                 + 1j * rng.standard_normal(spec.n_a), spec)
    w = rng.random(n_theta) + 0.05
    p = ViewDistribution(w / w.sum(), n_theta)
    return a, p


def _q_basis(psi, quad, K):
    """(Q, d_w) of the weighted tilt matrix: the coordinates of b1 and B2."""
    return weighted_qr(psi, quad, K)[0], weight_diagonal(quad, K)


def test_factorization_small(small_problem):
    spec, psi = small_problem["spec"], small_problem["psi"]
    quad, K = small_problem["quad"], small_problem["K"]
    Q, d = _q_basis(psi, quad, K)
    rng = np.random.default_rng(17)
    for _ in range(10):
        a, p = random_pair(spec, small_problem["p"].n_theta, rng)
        feats = population_features(a, p, psi, quad, K,
                                    small_problem["alpha"])
        b1, B2 = to_q(Q, d, *brute_force_moments(a, p.p, psi, spec))
        assert np.linalg.norm(feats.b1 - b1) < 1e-12 * np.linalg.norm(b1)
        assert np.linalg.norm(feats.B2 - B2) < 1e-12 * np.linalg.norm(B2)


def test_phat_basics(small_spec, bump12):
    """The Fourier coefficients of p seen through g = E p: unit mass at
    k = 0, conjugate symmetry between k and -k, and the FFT convention
    sum_l p_l e^{-2pi i m l / n} at m = -k."""
    k = small_spec.k_arr.astype(int)
    g = angle_phase_matrix(small_spec, bump12.n_theta) @ bump12.p
    f = np.fft.fft(bump12.p)
    for i in range(len(k)):
        if k[i] == 0:
            assert g[i] == pytest.approx(1.0)
        mirror = np.flatnonzero(k == -k[i])
        assert len(mirror) > 0
        assert g[mirror[0]] == pytest.approx(np.conj(g[i]))
        if abs(k[i]) <= 5:
            assert g[i] == pytest.approx(f[-k[i]])


def test_g_and_h_layout(small_spec, bump12, bump30):
    """g = E p and H = E diag(p) E^H read the FFT coefficients
    f[m] = sum_l p_l e^{-2pi i m l / n} at m = -k_i and m = k_j - k_i, taken
    mod n: with 12 angles the R=8 orders (|k| <= 7) alias, with 30 not."""
    k = small_spec.k_arr.astype(int)
    for p in (bump12, bump30):
        n = p.n_theta
        E = angle_phase_matrix(small_spec, n)
        g = E @ p.p
        H = angle_coupling(E, p.p)
        f = np.fft.fft(p.p)
        assert np.allclose(g[k == 0], 1.0, rtol=0, atol=1e-15)
        assert np.allclose(g, np.conj(f[k % n]), rtol=0, atol=1e-14)
        assert np.allclose(H, f[(k[None, :] - k[:, None]) % n], rtol=0,
                           atol=1e-14)


def test_angle_phase_matrix(small_spec):
    E = angle_phase_matrix(small_spec, 12)
    l = 5
    want = np.exp(1j * small_spec.k_arr * 2.0 * np.pi * l / 12)
    assert np.allclose(E[:, l], want, atol=1e-15)


def test_weight_diagonal(quad32):
    d = weight_diagonal(quad32, 2)
    assert d.shape == (5 * 32,)
    assert np.all(d > 0)
    assert np.allclose(d[:32] ** 2, quad32.weights * quad32.nodes)


def test_rotation_equivariance(small_problem):
    """Rotating the object by a grid angle and shifting p the same way
    leaves both moments untouched."""
    spec, psi = small_problem["spec"], small_problem["psi"]
    a, p = small_problem["a"], small_problem["p"]
    geometry = (psi, small_problem["quad"], small_problem["K"],
                small_problem["alpha"])
    feats = population_features(a, p, *geometry)
    b1, B2 = feats.b1, feats.B2
    for l0 in (1, 5, 11):
        gamma = 2.0 * np.pi * l0 / p.n_theta
        a_rot = a.rotated(gamma)
        p_shift = ViewDistribution(np.roll(p.p, l0), p.n_theta)
        rot = population_features(a_rot, p_shift, *geometry)
        assert np.linalg.norm(rot.b1 - b1) < 1e-12 * np.linalg.norm(b1)
        assert np.linalg.norm(rot.B2 - B2) < 1e-12 * np.linalg.norm(B2)


def test_empirical_equals_population_on_model_rows(small_problem, quad32):
    """Node rows built exactly from the slice model with a known label
    sequence must reproduce, through the node-domain moments with zero
    noise, the analytic features of the empirical label frequencies.  Pure
    algebra: tolerance 1e-12."""
    spec, psi = small_problem["spec"], small_problem["psi"]
    a = small_problem["a"]
    K, alpha = small_problem["K"], small_problem["alpha"]
    n_theta = 30
    labels = np.array([0, 3, 3, 7, 7, 7, 22, 28, 28, 15, 15, 15, 15, 8])
    rows = []
    for l in labels:
        phase = np.exp(1j * spec.k_arr * (2.0 * np.pi * l / n_theta))
        rows.append(psi @ (a.values * phase))
    F = dft_matrix(build_line_grid(16), quad32)
    emp_mu, emp_C = node_moments(np.array(rows), 0.0, F)

    freq = np.bincount(labels, minlength=n_theta) / labels.size
    p_emp = ViewDistribution(freq, n_theta)
    pop = population_features(a, p_emp, psi, quad32, K, alpha)
    b1, B2 = to_q(*_q_basis(psi, quad32, K), emp_mu, emp_C)
    assert np.linalg.norm(b1 - pop.b1) < 1e-12 * np.linalg.norm(pop.b1)
    assert np.linalg.norm(B2 - pop.B2) < 1e-12 * np.linalg.norm(pop.B2)


def _assert_matches_node_moments(feats, batch, quad, spec):
    """Line-domain moments equal the node-domain accumulation of the
    transformed records, projected onto Q, to 1e-13 relative."""
    mu, C = node_moments(node_spectra(transform_batch(batch, quad)),
                         batch.sigma2, dft_matrix(batch.grid, quad))
    psi = eval_tilt_matrix(spec, quad, batch.K, batch.alpha)
    b1, B2 = to_q(*_q_basis(psi, quad, batch.K), mu, C)
    assert np.linalg.norm(feats.b1 - b1) <= 1e-13 * np.linalg.norm(b1)
    assert np.linalg.norm(feats.B2 - B2) <= 1e-13 * np.linalg.norm(B2)


@pytest.mark.parametrize("L,n_xi", [(16, 32), (40, 12)])
def test_line_moments_match_node_moments(small_phantom, bump12, L, n_xi):
    """The node DFT is linear, so summing the real lines and mapping once
    gives the node-domain moments, with L below and above 2 n_xi."""
    quad = build_quadrature(0.3, n_xi)
    batch = generate_batch(small_phantom, bump12, 1500, 2, 3.8 * DEG, 0.5,
                           build_line_grid(L), quad, seed=3)
    feats = empirical_moments(batch, quad, small_phantom.spec)
    assert feats.K == 2
    _assert_matches_node_moments(feats, batch, quad, small_phantom.spec)


def test_debias_pure_noise(small_spec, quad32):
    grid = build_line_grid(16)
    zero = FBCoeffs(np.zeros(small_spec.n_a, dtype=complex), small_spec)
    batch = generate_batch(zero, uniform_distribution(6), 20000, 1, 0.05,
                           2.0, grid, quad32, seed=4)
    feats = empirical_moments(batch, quad32, small_spec)
    _assert_matches_node_moments(feats, batch, quad32, small_spec)
    # aggregate SE bound for the debiased second moment around zero, with
    # the records and the noise model in the Q coordinates of B2
    Q, d = _q_basis(eval_tilt_matrix(small_spec, quad32, 1, 0.05), quad32, 1)
    noise_full = full_noise_covariance(noise_covariance(2.0, grid, quad32), 1)
    yhat = node_spectra(transform_batch(batch, quad32))
    z = yhat @ (d[:, None] * Q).conj()
    noise_q = to_q(Q, d, np.zeros(len(d)), noise_full)[1]
    absZ2 = np.abs(z) ** 2
    second = (absZ2.T @ absZ2) / 20000
    var_entries = np.maximum(
        second - np.abs(noise_q) ** 2, 0.0) / 20000
    assert np.linalg.norm(feats.B2) <= 3.0 * np.sqrt(var_entries.sum())
    # Hermitian after symmetrization: exact
    assert np.array_equal(feats.B2, feats.B2.conj().T)


def test_residuals_vanish_at_truth(small_problem):
    feats = small_problem["features"]
    a, p = small_problem["a"], small_problem["p"]
    r1, r2, obj = dense_residuals(a, p.p, feats.R, feats)
    scale = np.linalg.norm(feats.b1)
    assert np.linalg.norm(r1) < 1e-12 * scale
    assert obj < 1e-20 * max(1.0, scale ** 2)


def test_empty_batch_rejected(quad32):
    empty = TiltSeriesBatch(samples=np.zeros((0, 5, 16)), K=2, alpha=0.05,
                            sigma2=1.0, grid=build_line_grid(16), seed=0,
                            n_theta=12)
    with pytest.raises(ConfigError):
        empirical_moments(empty, quad32, build_basis_spec(0.3, 8.0))
    with pytest.raises(ConfigError):
        first_moment(empty, quad32)


def test_first_moment_is_empirical_mu(small_batch, quad32, small_spec):
    """The start scale of an EM-only run is bitwise the features' mu_norm,
    and b1 is the weighted first moment's Q coordinates."""
    batch, _ = small_batch
    mu_w = first_moment(batch, quad32)
    feats = empirical_moments(batch, quad32, small_spec)
    assert np.float64(np.linalg.norm(mu_w)).tobytes() == \
        np.float64(feats.mu_norm).tobytes()
    psi = eval_tilt_matrix(small_spec, quad32, batch.K, batch.alpha)
    Q = weighted_qr(psi, quad32, batch.K)[0]
    assert np.array_equal(feats.b1, Q.conj().T @ mu_w)
