"""Independent reference routes for the moment model and the ADMM solver.

The moment forms are explicit mixture sums over the angle grid, one steered
record per candidate angle, so they share no code with the factored
g = E p, H = E diag(p) E^H forms the package builds on.  Through the wide
tilt matrix they give the wide moments; through R they give the moments in
the QR coordinates of Psi_w = Q R directly.  The wide route of the solver's
data pieces, G = Psi_w^H Psi_w, t_mu = Psi_w^H mu_w and
T_C = Psi_w^H C_w Psi_w, is kept as the reference for the QR-coordinate
ones.  The solver forms work on the n_a x n_a coupling H(p) with n_a^3
products: the dense second-moment operator, the dense residuals
||R (x o g) - b1||^2 with g a mixture sum and ||R M R^H - B2||_F^2, and a
whole ADMM iteration, against which the package's moment model and its
angle-Gram factorization are checked.

The moments of node records are accumulated in the node domain, debiased
by the dense per-tilt noise block sigma2 F F^H, against which the package's
line-domain moments are checked after projection onto Q.

The remaining helpers are the test-only entry points the package does not
need: the EM E-step and log marginal likelihood on a freshly built
workspace, the distance of coefficients from real-image symmetry, the
whitened record array, the per-tilt node noise block sigma2 F F^H and
the dense block-diagonal noise covariance, the node DFT matrix by its
definition and applied to one line, the image-domain error, the coupled
rotation-and-shift search one shift at a time, the polar-quadrature image
synthesis the closed form is checked against, and the batch simulator
that builds one numpy Generator per record and forms each clean line's
phase matrix inline, against which the package's substream starts and its
memoized line phases are checked.  The clean variance of a noiseless
batch is read by one pass over all its samples or from one record per
drawn angle, as the draw's table route is checked against.  The basis
layout's reference is the (k, q) -> column dict with the symmetrization
walked over it one pair at a time, and the node spectra of a spectral
batch are its batch's lines mapped through the node DFT by its
definition.  random_phantom's draw before its symmetrization is the
coefficient vector without the real-image symmetry.
"""

import math

import numpy as np
from scipy import linalg
from scipy.special import logsumexp

from tiltrec.basis import (FBCoeffs, _radial_matrix, build_quadrature,
                           eval_basis_matrix, synthesize_image)
from tiltrec.cli import _variance
from tiltrec.em import EmWorkspace
from tiltrec.errors import ConfigError
from tiltrec.moments import angle_coupling
from tiltrec.sim import TiltSeriesBatch


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


def dense_residuals(a, w, R, features, lam1=1.0, lam2=0.5):
    """Data-fit residuals in Q coordinates and the scalar objective, formed
    densely from the mixture sums with R in place of the tilt matrix.

    Returns (first-moment residual vector, second-moment residual matrix,
    lam1/2 * ||r1||^2 + lam2/2 * ||r2||_F^2).
    """
    mu_m, C_m = brute_force_moments(a, w, R, a.spec)
    r1 = mu_m - features.b1
    r2 = C_m - features.B2
    obj = 0.5 * lam1 * float(np.vdot(r1, r1).real) + 0.5 * lam2 * float(
        np.vdot(r2, r2).real
    )
    return r1, r2, obj


def to_q(Q, d, mu, C):
    """(Q^H mu_w, Q^H C_w Q) of wide unweighted moments (mu, C), with
    mu_w = d mu and C_w = d C d."""
    Q_w = d[:, None] * Q
    return Q_w.conj().T @ mu, Q_w.conj().T @ C @ Q_w


def wide_data_pieces(psi_w, mu_w, C_w):
    """(G, t_mu, T_C) by the wide route: Psi_w^H Psi_w, Psi_w^H mu_w and
    Psi_w^H C_w Psi_w, Hermitian-symmetrized."""
    G = psi_w.conj().T @ psi_w
    T_C = psi_w.conj().T @ C_w @ psi_w
    return (0.5 * (G + G.conj().T), psi_w.conj().T @ mu_w,
            0.5 * (T_C + T_C.conj().T))


def build_a2_matrix(psi, fixed, H):
    """Dense route: the (M^2, n_a) matrix whose column i is
    vec(psi_i (psi (fixed o conj(H[i, :])))^H).

    Applying it to x gives vec(psi ((x fixed^H) o H) psi^H); with psi = R
    that is the second-moment model in Q coordinates.  Guarded against
    runaway sizes.
    """
    M, n_a = psi.shape
    if M * M * n_a > 5e7:
        raise ConfigError(
            f"dense second-moment operator would hold {M * M * n_a} entries; "
            f"use the compressed route"
        )
    # H Hermitian makes fixed o conj(H[i, :]) the i-th column of fixed[:,None]*H
    U = psi @ (fixed[:, None] * H)
    out = np.empty((M * M, n_a), dtype=complex)
    for i in range(n_a):
        out[:, i] = np.outer(psi[:, i], U[:, i].conj()).ravel()
    return out


def dense_first_term(model, x, w):
    """||R (x o g) - b1||^2 with g the mixture sum of steering phases
    sum_l w[l] exp(i k phi_l) for any real weight w per angle, formed as the
    norm of the dense residual."""
    n_theta = len(w)
    g = sum(w[l] * np.exp(1j * model.spec.k_arr * (2.0 * np.pi * l / n_theta))
            for l in range(n_theta))
    r = model.R @ (x * g) - model.b1
    return float(np.vdot(r, r).real)


def dense_second_term(model, M):
    """||R M R^H - B2||_F^2 for the n_a x n_a inner matrix M, formed as the
    norm of the dense residual."""
    r = model.R @ M @ model.R.conj().T - model.B2
    return float(np.vdot(r, r).real)


def dense_admm_iteration(state, config):
    """One run_admm iteration (a-, z-, p- and dual step, then the Lagrangian
    and the consensus objective) built on the n_a x n_a coupling H(p) and
    n_a^3 products.  Updates state in place; returns (lagrangian, objective).
    """
    model = state.model
    lam1, lam2, rho = config.lam1, config.lam2, config.rho
    G, T_C, E = model.G, model.T_C, model.E

    def consensus_solve(center, fixed, first):
        g = E @ state.p
        W = fixed[:, None] * angle_coupling(E, state.p)
        lhs = rho * np.eye(model.spec.n_a, dtype=complex)
        rhs = rho * center
        if first:
            lhs = lhs + lam1 * (np.conj(g)[:, None] * G * g[None, :])
            rhs = rhs + lam1 * np.conj(g) * model.t_mu
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
    rhs = (lam1 * (A_a.conj().T @ model.t_mu).real
           + lam2 * np.einsum("li,ij,jl->l", A_a.conj().T, T_C, A_z).real)
    B = model.null_basis
    p_part = np.full(model.n_theta, 1.0 / model.n_theta)
    q, *_ = np.linalg.lstsq(B.T @ lhs @ B, B.T @ (rhs - lhs @ p_part),
                            rcond=None)
    state.p = p_part + B @ q
    state.s = state.s + state.a - state.z
    state.iter += 1

    def objective(x, y):
        M = np.outer(x, y.conj()) * angle_coupling(E, state.p)
        return (0.5 * lam1 * dense_first_term(model, x, state.p)
                + 0.5 * lam2 * dense_second_term(model, M))

    gap = state.a - state.z + state.s
    lag = (objective(state.a, state.z)
           + 0.5 * rho * float(np.vdot(gap, gap).real)
           - 0.5 * rho * float(np.vdot(state.s, state.s).real))
    consensus = 0.5 * (state.a + state.z)
    return lag, objective(consensus, consensus)


def node_moments(yhat, sigma2, F):
    """(mu, C) of node records yhat (N, (2K+1) * n_xi): the mean row, and
    the mean outer product minus sigma2 F F^H on every tilt's diagonal
    block, Hermitian-symmetrized."""
    n_tilt = yhat.shape[1] // F.shape[0]
    C = (yhat.T @ yhat.conj()) / yhat.shape[0]
    C -= full_noise_covariance(sigma2 * (F @ F.conj().T), (n_tilt - 1) // 2)
    return yhat.mean(axis=0), 0.5 * (C + C.conj().T)


def _em_logits(spec_batch, a, p):
    work = EmWorkspace(spec_batch, a.spec, p.n_theta)
    return np.log(p.p)[None, :] - work.half_distances(a.values)


def log_marginal_likelihood(spec_batch, a, p):
    """Total log marginal likelihood of the batch given (a, p), without the
    mixture-independent normalization."""
    return float(logsumexp(_em_logits(spec_batch, a, p), axis=1).sum())


def e_step(spec_batch, a, p):
    """Posterior responsibilities over the candidate angles, N x n_theta."""
    logits = _em_logits(spec_batch, a, p)
    return np.exp(logits - logsumexp(logits, axis=1)[:, None])


def column_index(spec):
    """(k, q) -> flat column index over the spec's layout."""
    return {(int(k), int(q)): i
            for i, (k, q) in enumerate(zip(spec.k_arr, spec.q_arr))}


def symmetrized_reference(coeffs):
    """FBCoeffs.symmetrized one (k, q) pair at a time through the dict:
    0.5 * (a[k,q] + (-1)**k conj a[-k,q])."""
    index = column_index(coeffs.spec)
    v = coeffs.values
    sym = np.empty_like(v)
    for (k, q), i in index.items():
        sym[i] = 0.5 * (v[i] + (-1.0) ** k * np.conj(v[index[(-k, q)]]))
    return FBCoeffs(sym, coeffs.spec, real_symmetric=True)


def node_spectra(sb):
    """Node spectra of a SpectralBatch, shape (N, (2K+1)*n_xi): each
    record's lines mapped to the nodes and concatenated."""
    batch = sb.batch
    F = explicit_dft_matrix(batch.grid, sb.quad)
    return (batch.samples @ F.T).reshape(
        batch.N, (2 * batch.K + 1) * sb.quad.n_xi)


def raw_phantom(spec, decay, seed):
    """random_phantom's coefficient draw before its symmetrization: the same
    envelope exp(-decay * R_{k,q} / (2*pi*c*R)) on the same stream."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    envelope = np.exp(-decay * spec.roots / (2.0 * np.pi * spec.c * spec.R))
    return FBCoeffs(envelope * (rng.standard_normal(spec.n_a)
                                + 1j * rng.standard_normal(spec.n_a)), spec)


def symmetry_residual(coeffs):
    """Relative distance of a coefficient vector from its symmetrized
    vector, the one with the real-image symmetry."""
    norm = np.linalg.norm(coeffs.values)
    if norm == 0.0:
        return 0.0
    return np.linalg.norm(coeffs.values - coeffs.symmetrized().values) / norm


def whitened_records(work, spec_batch):
    """U_w: every record's lines mapped to the nodes, then whitened by
    work.whiten, shape (N, (2K+1) * rank); the workspace folds the two maps
    into one and keeps only U_w conj(B) and the norms."""
    N, n_tilt = spec_batch.batch.samples.shape[:2]
    yhat = node_spectra(spec_batch).reshape(N, n_tilt, spec_batch.quad.n_xi)
    return np.einsum('rj,ikj->ikr', work.whiten, yhat).reshape(
        N, n_tilt * work.rank)


def noise_covariance(sigma2, grid, quad):
    """Per-tilt node noise block sigma2 * F F^H for the node DFT F,
    block[j1, j2] = sigma2 * dx^2 * sum_l exp(-2i*pi*(xi_j1 - xi_j2)*x_l),
    symmetrized to kill rounding skew.  The package never forms it: EM
    whitens from an SVD of F."""
    F = explicit_dft_matrix(grid, quad)
    block = sigma2 * (F @ F.conj().T)
    return 0.5 * (block + block.conj().T)


def full_noise_covariance(block, K):
    """Dense block-diagonal covariance: the per-tilt block repeated on 2K+1
    tilts."""
    return linalg.block_diag(*[block] * (2 * K + 1))


def explicit_dft_matrix(grid, quad):
    """F[j, l] = dx * exp(-2i*pi * xi_j * x_l), formed from its definition
    rather than from the simulator's line phases."""
    return grid.dx * np.exp(-2j * np.pi * np.outer(quad.nodes, grid.positions))


def dft_at_nodes(line, grid, quad):
    """yhat[xi_j] = dx * sum_l y[x_l] exp(-2i*pi*xi_j*x_l) for one line."""
    return explicit_dft_matrix(grid, quad) @ line


def pixel_relative_error(truth, estimate, gamma, n_grid):
    """Image-domain counterpart of the coefficient relative error at a fixed
    rotation, for cross-checking it on band-limited inputs."""
    img_t = synthesize_image(truth, int(n_grid))
    img_e = synthesize_image(estimate.rotated(gamma), int(n_grid))
    return float(np.linalg.norm(img_e - img_t) / np.linalg.norm(img_t))


def joint_alignment_loop(truth_a, est_a, truth_p, est_p):
    """The coupled rotation-and-shift search one shift at a time: shift l0
    rotates the coefficients by 2*pi*l0/n_theta and shifts p; returns (re,
    tv, l0) of the least re + tv, the first on ties."""
    pv, ev = np.asarray(truth_p.p), np.asarray(est_p.p)
    n = pv.size
    norm = np.linalg.norm(truth_a.values)
    best = None
    for l0 in range(n):
        gamma = 2.0 * np.pi * l0 / n
        re = np.linalg.norm(
            est_a.values * np.exp(-1j * truth_a.spec.k_arr * gamma)
            - truth_a.values) / norm
        tv = np.abs(np.roll(ev, l0) - pv).sum()
        if best is None or re + tv < best[0]:
            best = (re + tv, float(re), float(tv), l0)
    return best[1:]


def default_n_xi(grid_size: int) -> int:
    """Node-count default tied to resolution: 2x the pixel count, floor 40."""
    return max(2 * int(grid_size), 40)


def quadrature_image(coeffs, grid_size):
    """Sample the inverse 2-D Fourier transform on a centered Cartesian grid.

    The transform is computed as a polar quadrature over the disc xi <= c:
    Gauss-Legendre radially (2 * default node count) and a uniform angular
    rule wide enough for the phase factor's angular bandwidth.  Pixel (iy, ix)
    holds the value at x = ix - (g-1)/2, y = iy - (g-1)/2 with g = grid_size.

    Raises ValueError for grid_size < 2 or when a coefficient vector without
    the real symmetry leaves a significant imaginary residue.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    spec = coeffs.spec
    n_rad = 2 * default_n_xi(grid_size)
    quad = build_quadrature(spec.c, n_rad)

    half = (grid_size - 1) / 2.0
    coords = np.arange(grid_size) - half
    xx, yy = np.meshgrid(coords, coords)  # image[iy, ix] at (x=coords[ix], y=coords[iy])
    r_max = math.hypot(coords[0], coords[0])

    # angular rule: cover exp(i*k*theta) (|k| <= k_max) times the Jacobi-Anger
    # expansion of exp(2i*pi*xi*r*cos) whose bandwidth is ~2*pi*c*r_max
    n_ang = max(4 * spec.k_max + 4, int(2 * np.pi * spec.c * r_max) + 2 * spec.k_max + 16)
    thetas = 2.0 * np.pi * np.arange(n_ang) / n_ang
    d_theta = 2.0 * np.pi / n_ang

    radial = _radial_matrix(spec, quad)  # (n_rad, n_a)
    fhat = (radial * coeffs.values[None, :]) @ np.exp(
        1j * np.outer(spec.k_arr, thetas)
    )  # (n_rad, n_ang)

    # integrate fhat * exp(2i*pi*xi*(x*cos + y*sin)) * xi over the disc
    scaled = fhat * (quad.weights * quad.nodes)[:, None] * d_theta
    proj = (
        np.outer(xx.ravel(), np.cos(thetas)) + np.outer(yy.ravel(), np.sin(thetas))
    )  # (n_pix, n_ang)
    image = np.empty(grid_size * grid_size, dtype=complex)
    # accumulate per angular node to keep the phase array at n_pix x n_rad
    image[:] = 0.0
    for t in range(n_ang):
        phases = np.exp(2j * np.pi * np.outer(proj[:, t], quad.nodes))
        image += phases @ scaled[:, t]
    image = image.reshape(grid_size, grid_size)

    resid = np.max(np.abs(image.imag))
    scale = max(np.max(np.abs(image.real)), 1.0)
    if coeffs.real_symmetric and resid > 1e-10 * scale:
        raise ValueError(f"imaginary residue {resid:.3e} on symmetric coefficients")
    return image.real


def project_clean_reference(coeffs, theta, grid, quad):
    """project_clean with its line phase matrix formed inline, per call,
    so it shares no memo with the package; the same residue check."""
    spec = coeffs.spec
    fwd = eval_basis_matrix(spec, quad, theta) @ coeffs.values
    rev = eval_basis_matrix(spec, quad, theta + np.pi) @ coeffs.values
    phase = np.exp(2j * np.pi * np.outer(grid.positions, quad.nodes))
    line = phase @ (quad.weights * fwd) + np.conj(phase) @ (quad.weights * rev)
    scale = max(float(np.max(np.abs(line.real))), 1e-300)
    if coeffs.real_symmetric and np.max(np.abs(line.imag)) > 1e-10 * scale:
        raise ValueError("imaginary residue on a symmetric projection")
    return line.real


def sample_variance(samples):
    """The CLI's _variance of all samples, its sums from one pass each over
    the whole array: how the clean variance was read off a noiseless batch
    before sim.BatchDraw.clean_sums took it from the angle table."""
    flat = samples.reshape(-1)
    return _variance(float(flat.sum()), float(np.dot(flat, flat)), flat.size)


def table_variance(batch):
    """The clean variance of a noiseless batch from the first record of
    each drawn angle, weighted by its record count: the sums of
    BatchDraw.clean_sums, in its order, taken from the batch's records."""
    _, first, counts = np.unique(batch.hidden_angles, return_index=True,
                                 return_counts=True)
    lines = batch.samples[first].reshape(len(first), -1)
    return _variance(float(counts @ lines.sum(axis=1)),
                     float(counts @ np.einsum("ij,ij->i", lines, lines)),
                     batch.samples.size)


def generate_batch_reference(coeffs, p, N, K, alpha, sigma2, grid, quad,
                             seed=0):
    """generate_batch with one default_rng(SeedSequence(entropy=seed,
    spawn_key=(i,))) per record: its first random() picks the label, then
    standard_normal((2K+1, L)) is the noise block.  Same return shape: one
    batch per variance when sigma2 is a sequence."""
    variances = np.atleast_1d(sigma2).astype(float)
    sigmas = np.sqrt(variances)
    streams = [np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(i,))) for i in range(N)]
    cdf = np.cumsum(p.p)
    u = np.array([rng.random() for rng in streams])
    labels = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    table = {int(l): np.array([
        project_clean_reference(coeffs, (2.0 * np.pi * l / p.n_theta
                                         + k * alpha) % (2.0 * np.pi),
                                grid, quad) for k in range(-K, K + 1)])
        for l in np.unique(labels)}
    samples = [np.empty((N, 2 * K + 1, grid.L)) for _ in sigmas]
    noisy = bool(np.any(sigmas > 0.0))
    for i, (rng, l) in enumerate(zip(streams, labels)):
        z = rng.standard_normal((2 * K + 1, grid.L)) if noisy else None
        for out, sigma in zip(samples, sigmas):
            out[i] = table[int(l)] + sigma * z if sigma > 0.0 else table[int(l)]
    batches = [TiltSeriesBatch(samples=out, K=K, alpha=float(alpha),
                               sigma2=float(s2), grid=grid, seed=int(seed),
                               n_theta=p.n_theta, hidden_angles=labels)
               for out, s2 in zip(samples, variances)]
    return batches if np.ndim(sigma2) else batches[0]
