import itertools
from dataclasses import replace

import numpy as np
import pytest

from tiltrec.basis import build_quadrature
from tiltrec.errors import ConfigError
from tiltrec.sim import TiltSeriesBatch, _line_phases, build_line_grid
from tiltrec.spectral import (SpectralBatch, blockwise_mean_outer,
                              dft_matrix, noise_covariance, transform_batch)

from oracles import (dft_at_nodes, explicit_dft_matrix, full_noise_covariance,
                     node_spectra)


def test_dft_matches_direct_sum(quad32):
    grid = build_line_grid(16)
    rng = np.random.default_rng(0)
    line = rng.standard_normal(16)
    got = dft_at_nodes(line, grid, quad32)
    # independent route: plain python accumulation of the definition
    want = np.array([
        sum(grid.dx * line[l] * np.exp(-2j * np.pi * xi * grid.positions[l])
            for l in range(16))
        for xi in quad32.nodes])
    assert np.max(np.abs(got - want)) < 1e-12 * np.abs(want).max()


def test_dft_linearity(quad32):
    grid = build_line_grid(16)
    rng = np.random.default_rng(1)
    u, v = rng.standard_normal(16), rng.standard_normal(16)
    lhs = dft_at_nodes(u + 2.0 * v, grid, quad32)
    rhs = dft_at_nodes(u, grid, quad32) + 2.0 * dft_at_nodes(v, grid, quad32)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_dft_matrix_is_the_explicit_formula_from_the_line_phases():
    """dft_matrix, read from the simulator's memoized line phases, is
    bitwise the explicit dx exp(-2i pi xi x) for odd and even L, several
    node counts and dx; it is a C-contiguous array of its own, and the
    shared phases it reads stay read-only."""
    for L, n_xi, dx in itertools.product((1, 16, 32, 128, 129),
                                         (1, 16, 32, 64), (1.0, 0.7, 2.5)):
        grid, quad = build_line_grid(L, dx), build_quadrature(0.3, n_xi)
        F = dft_matrix(grid, quad)
        assert F.flags.c_contiguous and F.shape == (n_xi, L)
        assert np.array_equal(F, explicit_dft_matrix(grid, quad))
        for shared in _line_phases(grid, quad):
            assert not shared.flags.writeable
            assert not np.shares_memory(F, shared)


def test_transform_batch_blocks(small_batch, quad32):
    batch, grid = small_batch
    sb = transform_batch(batch, quad32)
    yhat = node_spectra(sb)
    assert yhat.shape == (batch.N, (2 * batch.K + 1) * quad32.n_xi)
    assert sb.sigma2 == batch.sigma2
    # per-tilt block kappa equals the node DFT of that line
    i, kappa = 3, 1
    block = yhat[i, kappa * quad32.n_xi:(kappa + 1) * quad32.n_xi]
    want = dft_at_nodes(batch.samples[i, kappa], grid, quad32)
    assert np.allclose(block, want, atol=1e-12)


def test_transform_batch_keeps_the_samples(small_batch, quad32):
    """The records are the line samples themselves, not a copy."""
    batch, grid = small_batch
    sb = transform_batch(batch, quad32)
    assert np.shares_memory(sb.records, batch.samples)
    assert np.array_equal(sb.to_nodes, dft_matrix(grid, quad32))


@pytest.mark.parametrize("field, bad", [
    ("records", lambda sb: sb.records.astype(complex)),
    ("records", lambda sb: sb.records.reshape(sb.N, -1)),
    ("records", lambda sb: sb.records[:, :4]),
    ("to_nodes", lambda sb: sb.to_nodes[:-1]),
    ("to_nodes", lambda sb: sb.to_nodes[:, :-1]),
], ids=["complex", "2-d", "tilt-axis", "n_xi", "width"])
def test_spectral_batch_validation(small_batch, quad32, field, bad):
    sb = transform_batch(small_batch[0], quad32)
    with pytest.raises(ConfigError, match=field):
        replace(sb, **{field: bad(sb)})


def test_transform_empty_batch(quad32):
    grid = build_line_grid(16)
    empty = TiltSeriesBatch(samples=np.zeros((0, 5, 16)), K=2, alpha=0.1,
                            sigma2=0.0, grid=grid, seed=0, n_theta=12)
    sb = transform_batch(empty, quad32)
    assert node_spectra(sb).shape == (0, 5 * quad32.n_xi)


def test_noise_block_structure(quad32):
    grid = build_line_grid(16)
    blk = noise_covariance(2.5, grid, quad32)
    assert np.max(np.abs(blk - blk.conj().T)) < 1e-14 * np.abs(blk).max()
    eig = np.linalg.eigvalsh(blk)
    assert eig.min() > -1e-12 * eig.max()
    # definition: sigma2 * F F^H
    F = dft_matrix(grid, quad32)
    assert np.allclose(blk, 2.5 * F @ F.conj().T, atol=1e-12)
    full = full_noise_covariance(blk, 2)
    assert full.shape == (5 * quad32.n_xi, 5 * quad32.n_xi)
    # block diagonal: off blocks exactly zero
    n = quad32.n_xi
    assert np.all(full[:n, n:2 * n] == 0)
    assert np.allclose(full[3 * n:4 * n, 3 * n:4 * n], blk)


def test_noise_covariance_validates(quad32):
    grid = build_line_grid(16)
    with pytest.raises(ConfigError):
        noise_covariance(-1.0, grid, quad32)


def test_blockwise_mean_outer_oracle():
    rng = np.random.default_rng(5)
    Y = rng.standard_normal((37, 8)) + 1j * rng.standard_normal((37, 8))
    C = blockwise_mean_outer(Y)
    want = sum(np.outer(Y[i].conj(), Y[i]) for i in range(37)) / 37
    assert np.max(np.abs(C - want)) < 1e-13 * np.abs(want).max()


def test_noise_spectrum_matches_model(small_spec, quad32):
    """Spectral covariance of pure real noise equals sigma2 F F^H per tilt:
    Monte-Carlo agreement through the whole transform pipeline."""
    from tiltrec.sim import generate_batch, uniform_distribution
    from tiltrec.basis import FBCoeffs

    grid = build_line_grid(16)
    zero = FBCoeffs(np.zeros(small_spec.n_a, dtype=complex), small_spec)
    p = uniform_distribution(6)
    sigma2 = 3.0
    batch = generate_batch(zero, p, 20000, 1, 0.05, sigma2, grid, quad32,
                           seed=13)
    yhat = node_spectra(transform_batch(batch, quad32))
    raw = (yhat.T @ yhat.conj()) / 20000
    model = full_noise_covariance(noise_covariance(sigma2, grid, quad32), 1)
    # aggregate MC standard error of the Frobenius discrepancy
    absY2 = np.abs(yhat) ** 2
    second = (absY2.T @ absY2) / 20000
    var_entries = np.maximum(second - np.abs(model) ** 2, 0.0) / 20000
    agg_se = np.sqrt(var_entries.sum())
    assert np.linalg.norm(raw - model) <= 3.0 * agg_se
