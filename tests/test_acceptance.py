"""Whole-pipeline acceptance suite: eight numbered checks, one verdict line each.

Check 1 runs the pinned clean-recovery protocol and currently FAILS; its
message carries the measured numbers and the reason (a +-9 degree tilt wedge
leaves most coefficient directions with curvature far too small to traverse
in the iteration budget - see notes in the repository root README). The
protocol is reported honestly instead of being tuned until green. Every
constant below is frozen; do not adjust one to flip a verdict.

Checks 2-8 pass. Each check prints exactly one verdict line; with the
configured -rA pytest flag these lines appear in the run summary.
"""

import math
import time
import warnings

import numpy as np
import pytest

from tiltrec.admm import (AdmmConfig, AdmmState, augmented_lagrangian,
                          init_admm_state, run_admm, update_a, update_p,
                          update_z)
from tiltrec.basis import (FBCoeffs, build_basis_spec, build_quadrature,
                           eval_tilt_matrix)
from tiltrec.cli import (DEFAULT_CONFIG, _build_problem, _deep_merge,
                         _experiment_trial)
from tiltrec.em import EmConfig, EmWorkspace, run_em
from tiltrec.metrics import (joint_alignment, relative_error, snr_db,
                             total_variation_dist, variance_for_snr)
from tiltrec.moments import (angle_phase_matrix, empirical_moments,
                             population_features, weight_diagonal,
                             weighted_qr)
from tiltrec.sim import (ViewDistribution, build_line_grid, bump_distribution,
                         generate_batch, random_phantom)
from tiltrec.spectral import transform_batch

from oracles import (full_noise_covariance, log_marginal_likelihood,
                     node_spectra, noise_covariance, to_q)

DEG = math.pi / 180.0


def _verdict(num, name, ok, detail):
    line = f"acceptance {num}/8 {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- check 1

def test_1_clean_recovery_protocol():
    """Pinned protocol: 32x32-scale basis (c=0.3, R=16), 24-angle bump
    distribution, 13 tilt lines 1.5 degrees apart, analytic moment features,
    weights (1, 0.5, 1), 500 iterations, 10 seeded random starts. Required:
    RE <= 1e-3 and TV <= 1e-2 in at least 9 of 10 starts, under 5 minutes."""
    spec = build_basis_spec(0.3, 16.0)
    quad = build_quadrature(spec.c, 64)
    alpha = 1.5 * DEG
    p = bump_distribution(24, 1.1, 2.5)
    truth = random_phantom(spec, 1.0, seed=11)
    psi = eval_tilt_matrix(spec, quad, 6, alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        feats = population_features(truth, p, psi, quad, 6, alpha)

    t0 = time.perf_counter()
    res_rows = []
    for seed in range(10):
        res = run_admm(feats, AdmmConfig(lam2=0.5, max_iter=500, seed=seed),
                       spec, 24)
        re, _ = relative_error(truth, res.a, 240)
        tv, _ = total_variation_dist(p, res.p)
        res_rows.append((re, tv))
    runtime = time.perf_counter() - t0

    hits = sum(1 for re, tv in res_rows if re <= 1e-3 and tv <= 1e-2)
    res_arr = np.array(res_rows)
    detail = (
        f"{hits}/10 starts reached RE<=1e-3 and TV<=1e-2 (need >=9) in "
        f"{runtime:.0f}s; measured RE min/median {res_arr[:, 0].min():.3g}/"
        f"{np.median(res_arr[:, 0]):.3g}, TV min/median "
        f"{res_arr[:, 1].min():.3g}/{np.median(res_arr[:, 1]):.3g}. "
        "The +-9 degree tilt wedge makes the feature operator so "
        "ill-conditioned that ~120 of 162 coefficient directions have "
        "relative curvature below 1e-6 at the solution; 500 iterations "
        "cannot flush the random-start error in those directions (the "
        "update algebra itself is certified by checks 2 and 7, and a wider "
        "wedge recovers fine in check 5)."
    )
    _verdict(1, "clean recovery at the pinned narrow-wedge instance",
             hits >= 9 and runtime < 300.0, detail)


# ---------------------------------------------------------------- check 2

def test_2_moment_factorization_vs_brute_force():
    """Factored first/second moment formulas against direct sums over the
    angle grid, compared in the QR coordinates of the weighted tilt matrix
    (b1 = Q^H mu_w, B2 = Q^H C_w Q): 100 random (a, p) draws at the full
    basis size, 1e-12."""
    spec = build_basis_spec(0.3, 16.0)
    quad = build_quadrature(spec.c, 64)
    psi = eval_tilt_matrix(spec, quad, 6, 1.5 * DEG)
    Q, d = weighted_qr(psi, quad, 6)[0], weight_diagonal(quad, 6)
    n_theta = 24
    E = angle_phase_matrix(spec, n_theta)

    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_mu = worst_c = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(100):
            a = FBCoeffs(rng.standard_normal(spec.n_a)
                         + 1j * rng.standard_normal(spec.n_a), spec,
                         real_symmetric=False)
            p = ViewDistribution(rng.dirichlet(np.ones(n_theta)), n_theta)
            feats = population_features(a, p, psi, quad, 6, 1.5 * DEG)
            mu_f, c_f = feats.b1, feats.B2
            V = psi @ (a.values[:, None] * E)
            mu_b, c_b = to_q(Q, d, V @ p.p, (V * p.p[None, :]) @ V.conj().T)
            worst_mu = max(worst_mu, np.linalg.norm(mu_f - mu_b)
                           / np.linalg.norm(mu_b))
            worst_c = max(worst_c, np.linalg.norm(c_f - c_b)
                          / np.linalg.norm(c_b))
    runtime = time.perf_counter() - t0
    ok = worst_mu <= 1e-12 and worst_c <= 1e-12 and runtime < 60.0
    _verdict(2, "moment factorization vs brute force (100 draws, 1e-12)", ok,
             f"worst relative gap mu {worst_mu:.3g}, second moment "
             f"{worst_c:.3g} in {runtime:.1f}s")


# ---------------------------------------------------------------- check 3

def _blockwise_se(yhat, Q_w, noise_q, n_blocks=50):
    """Entrywise Monte Carlo standard errors of the debiased moments in the
    Q coordinates of the features, from independent sub-batches: each
    record maps to z = Q_w^H y with Q_w = d_w Q, and noise_q is the noise
    covariance in those coordinates."""
    n = yhat.shape[0] // n_blocks
    mus, cs = [], []
    for b in range(n_blocks):
        z = yhat[b * n:(b + 1) * n].reshape(n, -1) @ Q_w.conj()
        mus.append(z.mean(axis=0))
        mo = (z[:, :, None] * z[:, None, :].conj()).mean(axis=0)
        cs.append(mo - noise_q)
    mu_se = np.array(mus).std(axis=0, ddof=1) / math.sqrt(n_blocks)
    c_se = np.array(cs).std(axis=0, ddof=1) / math.sqrt(n_blocks)
    return mu_se, c_se


def test_3_debiasing_statistics():
    """Noise-covariance subtraction is unbiased: (a) a pure-noise batch of
    1e5 records leaves the second-moment estimate within 3 aggregate
    standard errors of zero; (b) on a mixed signal+noise batch the debiased
    moments land within 3 SE of the generating process's own population
    moments (per-angle clean spectra weighted by p).  Estimates, references
    and standard errors are all in the QR coordinates of the features."""
    spec = build_basis_spec(0.3, 8.0)
    quad = build_quadrature(spec.c, 24)
    K = 1
    alpha = 3.8 * DEG
    p = bump_distribution(12, 1.1, 2.5)
    Q, d = (weighted_qr(eval_tilt_matrix(spec, quad, K, alpha), quad, K)[0],
            weight_diagonal(quad, K))
    Q_w = d[:, None] * Q
    t0 = time.perf_counter()

    # pure noise
    grid = build_line_grid(16)
    zero = random_phantom(spec, 1.0, seed=11)
    zero.values[:] = 0.0
    noise = noise_covariance(1.0, grid, quad)
    batch = generate_batch(zero, p, 100_000, K, alpha, 1.0, grid, quad,
                           seed=5)
    sb = transform_batch(batch, quad)
    feats = empirical_moments(batch, quad, spec)
    c_norm = np.linalg.norm(feats.B2)
    noise_q = Q_w.conj().T @ full_noise_covariance(noise, K) @ Q_w
    _, c_se = _blockwise_se(node_spectra(sb), Q_w, noise_q)
    pure_ratio = c_norm / np.linalg.norm(c_se)

    # mixed batch vs the exact population moments of the generating process
    truth = random_phantom(spec, 1.0, seed=11)
    clean = generate_batch(truth, p, 20_000, K, alpha, 0.0, grid, quad,
                           seed=6)
    s2 = variance_for_snr(float(clean.samples.var()), 0.0)
    noise = noise_covariance(s2, grid, quad)
    batch = generate_batch(truth, p, 20_000, K, alpha, s2, grid, quad, seed=6)
    sb = transform_batch(batch, quad)
    feats = empirical_moments(batch, quad, spec)

    mu0 = np.zeros(Q.shape[1], dtype=complex)
    c0 = np.zeros((Q.shape[1], Q.shape[1]), dtype=complex)
    for l in range(p.n_theta):
        onehot = np.zeros(p.n_theta)
        onehot[l] = 1.0
        one = generate_batch(truth, ViewDistribution(onehot, p.n_theta), 1, K,
                             alpha, 0.0, grid, quad, seed=1)
        z = Q_w.conj().T @ node_spectra(transform_batch(one, quad))[0]
        mu0 += p.p[l] * z
        c0 += p.p[l] * z[:, None] * z.conj()[None, :]
    noise_q = Q_w.conj().T @ full_noise_covariance(noise, K) @ Q_w
    mu_se, c_se = _blockwise_se(node_spectra(sb), Q_w, noise_q)
    mixed_mu = np.linalg.norm(feats.b1 - mu0) / np.linalg.norm(mu_se)
    mixed_c = np.linalg.norm(feats.B2 - c0) / np.linalg.norm(c_se)

    runtime = time.perf_counter() - t0
    ok = pure_ratio <= 3.0 and mixed_mu <= 3.0 and mixed_c <= 3.0 \
        and runtime < 120.0
    _verdict(3, "second-moment debiasing within 3 Monte Carlo SE", ok,
             f"pure-noise ratio {pure_ratio:.2f}, mixed mu {mixed_mu:.2f}, "
             f"mixed C {mixed_c:.2f} (bound 3) in {runtime:.0f}s")


# ---------------------------------------------------------------- check 4

def test_4_em_likelihood_ascent():
    """Log marginal likelihood never drops by more than 1e-8 relative on
    pipeline batches: N=500 records at 0 dB, up to 50 iterations, 5 seeds."""
    spec = build_basis_spec(0.3, 8.0)
    quad = build_quadrature(spec.c, 32)
    alpha = 3.8 * DEG
    p = bump_distribution(16, 1.1, 2.5)
    truth = random_phantom(spec, 1.0, seed=11)
    grid = build_line_grid(32)

    t0 = time.perf_counter()
    worst = np.inf
    total_iters = 0
    for seed in range(5):
        clean = generate_batch(truth, p, 500, 6, alpha, 0.0, grid, quad,
                               seed=seed)
        s2 = variance_for_snr(float(clean.samples.var()), 0.0)
        batch = generate_batch(truth, p, 500, 6, alpha, s2, grid, quad,
                               seed=seed)
        feats = empirical_moments(batch, quad, spec)
        st = init_admm_state(feats, AdmmConfig(seed=seed), spec, 16)
        res = run_em(EmWorkspace(transform_batch(batch, quad), spec, 16),
                     FBCoeffs(st.a, spec, real_symmetric=False),
                     ViewDistribution(st.p, 16),
                     EmConfig(max_iter=50, tol_loglik=0.0))
        ll = np.asarray(res.history["log_likelihood"])
        worst = min(worst, (np.diff(ll) / np.abs(ll[:-1])).min())
        total_iters += res.n_iter
    runtime = time.perf_counter() - t0
    ok = worst >= -1e-8 and runtime < 120.0
    _verdict(4, "EM ascent (5 seeds, 0 dB, tolerance 1e-8 relative)", ok,
             f"worst relative loglik increment {worst:.3g} over "
             f"{total_iters} iterations in {runtime:.0f}s")


# ---------------------------------------------------------------- check 5

def test_5_method_ordering():
    """Desk-scale method comparison at 6.6 and -4.4 dB, N=2000, 10 trials
    per SNR with one shared random start per trial: the moment solver's
    success rate (RE <= 0.3) must not trail EM-from-random, and EM
    refinement must not hurt the moment solver's median RE."""
    cfg = _deep_merge(DEFAULT_CONFIG, {
        "seed": 100,
        "phantom": {"R": 8.0},
        "distribution": {"n_theta": 24},
        "acquisition": {"N": 2000, "K": 6, "alpha_deg": 7.5, "L": 128},
        "solver": {"lambda2": 5.0, "admm_iters": 4000,
                   "hybrid_admm_iters": 4000, "hybrid_em_iters": 50},
        "experiment": {"snrs_db": [6.6, -4.4]},
    })
    spec, truth, p = _build_problem(cfg)

    t0 = time.perf_counter()
    snrs = cfg["experiment"]["snrs_db"]
    rows = {snr: {m: [] for m in ("admm", "em", "admm+em")} for snr in snrs}
    for trial in range(10):
        for snr, (reports, hashes) in zip(
                snrs, _experiment_trial(cfg, spec, truth, p, trial)):
            assert len(set(hashes.values())) == 1, "inits were not shared"
            for r in reports:
                rows[snr][r.method].append(r.re)
    details, ok = [], True
    for snr in snrs:
        succ = {m: np.mean(np.array(v) <= 0.3)
                for m, v in rows[snr].items()}
        med = {m: np.median(v) for m, v in rows[snr].items()}
        clause1 = succ["admm"] >= succ["em"]
        clause2 = med["admm+em"] <= med["admm"]
        ok = ok and clause1 and clause2
        details.append(
            f"{snr:+.1f} dB success admm/em/hybrid "
            f"{succ['admm']:.1f}/{succ['em']:.1f}/{succ['admm+em']:.1f}, "
            f"median RE {med['admm']:.3f}/{med['em']:.3f}/"
            f"{med['admm+em']:.3f}")
    runtime = time.perf_counter() - t0
    ok = ok and runtime < 1800.0
    _verdict(5, "method ordering with shared starts", ok,
             "; ".join(details) + f"; {runtime:.0f}s")


# ---------------------------------------------------------------- check 6

def test_6_rotation_shift_equivariance():
    """The global-rotation group acts trivially on every observable:
    moments (1e-12), likelihood (1e-9), and the aligned metrics (1e-12 plus
    grid-consistent alignment recovery)."""
    # moments
    spec = build_basis_spec(0.3, 8.0)
    quad = build_quadrature(spec.c, 32)
    psi = eval_tilt_matrix(spec, quad, 2, 3.8 * DEG)
    a = random_phantom(spec, 1.0, seed=11)
    p = bump_distribution(16, 1.1, 2.5)
    feats = population_features(a, p, psi, quad, 2, 3.8 * DEG)
    mu, C = feats.b1, feats.B2
    worst_mom = 0.0
    for l0 in (1, 5, 11):
        gamma = 2.0 * math.pi * l0 / p.n_theta
        p_s = ViewDistribution(np.roll(p.p, l0), p.n_theta)
        a_r = a.rotated(gamma)
        feats_r = population_features(a_r, p_s, psi, quad, 2, 3.8 * DEG)
        dmu = np.linalg.norm(feats_r.b1 - mu)
        dC = np.linalg.norm(feats_r.B2 - C)
        worst_mom = max(worst_mom, dmu / np.linalg.norm(mu),
                        dC / np.linalg.norm(C))

    # likelihood
    spec4 = build_basis_spec(0.3, 4.0)
    quad12 = build_quadrature(spec4.c, 12)
    grid10 = build_line_grid(10)
    p8 = bump_distribution(8, 1.1, 2.5)
    truth4 = random_phantom(spec4, 1.0, seed=11)
    batch = generate_batch(truth4, p8, 20, 1, 3.8 * DEG, 0.3, grid10, quad12,
                           seed=3)
    sb = transform_batch(batch, quad12)
    a_try = truth4.values * 1.1 + 0.05
    base = log_marginal_likelihood(
        sb, FBCoeffs(a_try, spec4, real_symmetric=False), p8)
    worst_ll = 0.0
    for l0 in (1, 3, 5):
        phase = np.exp(-1j * spec4.k_arr * (2.0 * math.pi * l0 / 8))
        rot = log_marginal_likelihood(
            sb, FBCoeffs(a_try * phase, spec4, real_symmetric=False),
            ViewDistribution(np.roll(p8.p, l0), 8))
        worst_ll = max(worst_ll, abs(rot - base) / abs(base))

    # metrics: exact grid-rotation inversion and joint-rotation invariance
    truth8 = random_phantom(spec, 1.0, seed=11)
    re_rot, gamma = relative_error(truth8, truth8.rotated(2 * math.pi * 5 / 24),
                                   240)
    align_ok = re_rot <= 1e-12 and abs(gamma - 2 * math.pi * 19 / 24) < 1e-12
    rng = np.random.default_rng(0)
    est = FBCoeffs(truth8.values * (1 + 0.1 * rng.standard_normal(spec.n_a)),
                   spec, real_symmetric=False)
    re0, _ = relative_error(truth8, est, 240)
    worst_met = 0.0
    for l0 in (2, 9):
        g = 2.0 * math.pi * l0 / 24
        re_g, _ = relative_error(truth8.rotated(g), est.rotated(g), 240)
        worst_met = max(worst_met, abs(re_g - re0))

    # joint alignment recovers a pure group action exactly (the reported
    # shift is the one that maps the estimate back onto the truth)
    p24 = bump_distribution(24, 1.1, 2.5)
    g7 = 2.0 * math.pi * 7 / 24
    re_j, tv_j, shift_j = joint_alignment(
        truth8, truth8.rotated(g7), p24,
        ViewDistribution(np.roll(p24.p, 7), 24))
    tv_s, shift_s = total_variation_dist(
        p24, ViewDistribution(np.roll(p24.p, 7), 24))
    joint_ok = (re_j <= 1e-12 and tv_j <= 1e-12 and shift_j == 24 - 7
                and tv_s <= 1e-12 and shift_s == 24 - 7)

    ok = (worst_mom <= 1e-12 and worst_ll <= 1e-9 and worst_met <= 1e-12
          and align_ok and joint_ok)
    _verdict(6, "rotation/shift equivariance of moments, likelihood, metrics",
             ok, f"moments {worst_mom:.3g} (<=1e-12), likelihood "
             f"{worst_ll:.3g} (<=1e-9), metric invariance {worst_met:.3g} "
             f"(<=1e-12), alignment recovery exact: {align_ok and joint_ok}")


# ---------------------------------------------------------------- check 7

def test_7_block_updates_zero_gradient():
    """Each returned block update zeroes its block objective's directional
    derivatives: central differences over 20 random states, three random
    directions per block, within 1e-8 of the pre-update derivative scale.
    All three block objectives are quadratic, so central differences are
    truncation-free and a large step just suppresses roundoff."""
    spec = build_basis_spec(0.3, 8.0)
    quad = build_quadrature(spec.c, 32)
    p = bump_distribution(16, 1.1, 2.5)
    truth = random_phantom(spec, 1.0, seed=11)
    psi = eval_tilt_matrix(spec, quad, 6, 3.8 * DEG)
    feats = population_features(truth, p, psi, quad, 6, 3.8 * DEG)
    cfg = AdmmConfig(lam2=5.0, seed=0)
    rng = np.random.default_rng(42)

    t0 = time.perf_counter()
    worst = {"a": 0.0, "z": 0.0, "p": 0.0}
    for trial in range(20):
        st = init_admm_state(feats, AdmmConfig(lam2=5.0, seed=trial), spec,
                             16)
        st.s = 0.3 * (rng.standard_normal(spec.n_a)
                      + 1j * rng.standard_normal(spec.n_a))
        model = st.model

        def lag(a, z, pv):
            probe = AdmmState(a=a, z=z, p=pv, s=st.s, iter=0, model=model)
            return augmented_lagrangian(probe, cfg)

        def ratio(block, sol, pre, d, others):
            eps = 0.3 * max(np.linalg.norm(sol), 1.0)
            val = {}
            for tag, x in (("sol+", sol + eps * d), ("sol-", sol - eps * d),
                           ("pre+", pre + eps * d), ("pre-", pre - eps * d)):
                args = {block: x, **others}
                val[tag] = lag(args["a"], args["z"], args["p"])
            g_sol = (val["sol+"] - val["sol-"]) / (2 * eps)
            g_pre = (val["pre+"] - val["pre-"]) / (2 * eps)
            return abs(g_sol) / max(abs(g_pre), 1e-12)

        for block, update in (("a", update_a), ("z", update_z),
                              ("p", update_p)):
            pre = getattr(st, block).copy()
            sol = update(st, cfg)
            setattr(st, block, sol)
            others = {n: getattr(st, n) for n in ("a", "z", "p")
                      if n != block}
            for _ in range(3):
                if block == "p":
                    d = model.null_basis @ rng.standard_normal(16 - 1)
                else:
                    d = (rng.standard_normal(spec.n_a)
                         + 1j * rng.standard_normal(spec.n_a))
                d /= np.linalg.norm(d)
                worst[block] = max(worst[block],
                                   ratio(block, sol, pre, d, others))
    runtime = time.perf_counter() - t0
    ok = max(worst.values()) <= 1e-8 and runtime < 60.0
    _verdict(7, "block updates zero their finite-difference gradients", ok,
             f"worst relative directional derivative a/z/p "
             f"{worst['a']:.3g}/{worst['z']:.3g}/{worst['p']:.3g} "
             f"(<=1e-8) in {runtime:.0f}s")


# ---------------------------------------------------------------- check 8

def test_8_snr_construction():
    """SNR bookkeeping: the formula anchor (noise variance 10 at clean
    variance 10^2.746 is 17.46 dB), its inverse, and a constructed batch
    whose measured SNR lands within 0.1 dB of the request."""
    v_anchor = 10.0 ** 2.746
    anchor_ok = (abs(snr_db(v_anchor, 10.0) - 17.46) <= 1e-12
                 and abs(variance_for_snr(v_anchor, 17.46) - 10.0) <= 1e-12)

    spec = build_basis_spec(0.3, 8.0)
    quad = build_quadrature(spec.c, 24)
    grid = build_line_grid(32)
    p = bump_distribution(16, 1.1, 2.5)
    truth = random_phantom(spec, 1.0, seed=11)
    alpha = 3.8 * DEG

    # scale the object so noise variance 10 sits exactly at the anchor
    clean = generate_batch(truth, p, 2000, 2, alpha, 0.0, grid, quad, seed=9)
    v0 = float(clean.samples.var())
    truth_s = FBCoeffs(truth.values * math.sqrt(v_anchor / v0), spec,
                       real_symmetric=truth.real_symmetric)
    clean = generate_batch(truth_s, p, 2000, 2, alpha, 0.0, grid, quad,
                           seed=9)
    v1 = float(clean.samples.var())
    batch = generate_batch(truth_s, p, 2000, 2, alpha, 10.0, grid, quad,
                           seed=9)
    est_clean_var = float(batch.samples.var()) - 10.0
    gap_anchor = abs(snr_db(v1, 10.0) - 17.46)
    gap_debiased = abs(snr_db(est_clean_var, 10.0) - 17.46)

    # arbitrary requested target through the inverse map
    s2 = variance_for_snr(v1, -4.0)
    noisy = generate_batch(truth_s, p, 2000, 2, alpha, s2, grid, quad, seed=9)
    est = float(noisy.samples.var()) - s2
    gap_target = abs(snr_db(est, s2) - (-4.0))

    ok = (anchor_ok and gap_anchor <= 0.1 and gap_debiased <= 0.1
          and gap_target <= 0.1)
    _verdict(8, "SNR formula and constructed-batch accuracy (0.1 dB)", ok,
             f"anchor exact: {anchor_ok}, batch at anchor off by "
             f"{gap_anchor:.3g} dB, debiased estimate off by "
             f"{gap_debiased:.3g} dB, -4 dB target off by "
             f"{gap_target:.3g} dB")
