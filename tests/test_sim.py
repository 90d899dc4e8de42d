import json
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltrec.basis import FBCoeffs, build_basis_spec, build_quadrature
from tiltrec.errors import ConfigError
from tiltrec.sim import (ViewDistribution, _substream_starts, build_line_grid,
                         bump_distribution, generate_batch, load_batch,
                         project_clean, random_phantom, save_batch,
                         two_bump_distribution, uniform_distribution)

from oracles import (default_n_xi, dft_at_nodes, generate_batch_reference,
                     symmetry_residual)

DEG = np.pi / 180.0


def test_distribution_families():
    u = uniform_distribution(24)
    assert np.allclose(u.p, 1.0 / 24)
    b = bump_distribution(24, 1.1, 2.5)
    assert abs(b.p.sum() - 1.0) < 1e-12
    assert np.all(b.p >= 0)
    # bump peaks near its location
    assert abs(2 * np.pi * np.argmax(b.p) / 24 - 1.1) < 2 * np.pi / 24 + 1e-9
    t = two_bump_distribution(24, 1.1, 4.0, 3.0, 0.7)
    assert abs(t.p.sum() - 1.0) < 1e-12


def test_distribution_validation():
    with pytest.raises(ConfigError):
        ViewDistribution(np.array([0.5, 0.6]), 2)  # sums to 1.1
    with pytest.raises(ConfigError):
        ViewDistribution(np.array([1.5, -0.5]), 2)
    with pytest.raises(ConfigError, match="non-finite"):
        ViewDistribution(np.array([np.nan, 0.5, 0.5]), 3)
    with pytest.raises(ConfigError):
        two_bump_distribution(12, 0.0, 1.0, 2.0, weight=1.5)


def test_line_grid_symmetry():
    grid = build_line_grid(16)
    assert grid.positions.sum() == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(np.diff(grid.positions), grid.dx)


def test_phantom_deterministic(small_spec):
    a1 = random_phantom(small_spec, 1.0, seed=3)
    a2 = random_phantom(small_spec, 1.0, seed=3)
    assert np.array_equal(a1.values, a2.values)
    assert a1.real_symmetric
    assert symmetry_residual(a1) < 1e-14
    raw = random_phantom(small_spec, 1.0, realize=False, seed=3)
    assert symmetry_residual(raw) > 1e-3  # unsymmetrized draw


def test_zero_object_projects_to_zero(small_spec, quad32):
    zero = FBCoeffs(np.zeros(small_spec.n_a, dtype=complex), small_spec)
    grid = build_line_grid(16)
    line = project_clean(zero, 0.7, grid, quad32)
    assert np.allclose(line, 0.0)


def test_projection_periodic(small_phantom, quad32):
    grid = build_line_grid(32)
    l0 = project_clean(small_phantom, 0.7, grid, quad32)
    l1 = project_clean(small_phantom, 0.7 + 2 * np.pi, grid, quad32)
    assert np.max(np.abs(l0 - l1)) < 1e-12 * max(1.0, np.abs(l0).max())


def test_radial_object_angle_free(small_spec, quad32):
    vals = np.zeros(small_spec.n_a, dtype=complex)
    vals[small_spec.index_map[(0, 1)]] = 1.0
    radial = FBCoeffs(vals, small_spec, real_symmetric=True)
    grid = build_line_grid(32)
    l0 = project_clean(radial, 0.0, grid, quad32)
    l1 = project_clean(radial, np.pi / 3.0, grid, quad32)
    assert np.max(np.abs(l0 - l1)) < 1e-10


def test_fourier_slice_curve(small_phantom, small_spec, quad32):
    """Node DFT of a clean projection approaches the basis-slice model as the
    sampling window grows; band-edge truncation caps how fast."""
    from tiltrec.basis import eval_basis_matrix

    theta = 0.9
    errs = []
    for L in (32, 64, 128):
        # quadrature must track the window: the inverse transform has to
        # resolve c*x cycles out to x = L/2
        quad = build_quadrature(0.3, default_n_xi(L))
        slice_model = eval_basis_matrix(small_spec, quad, theta) \
            @ small_phantom.values
        grid = build_line_grid(L)
        line = project_clean(small_phantom, theta, grid, quad)
        yhat = dft_at_nodes(line, grid, quad)
        errs.append(np.linalg.norm(yhat - slice_model)
                    / np.linalg.norm(slice_model))
    assert errs[0] < 5e-2
    assert errs[1] < 2e-2
    assert errs[2] < 8e-3
    assert errs[0] > errs[1] > errs[2]  # tightens with window size


def test_mass_conservation(small_phantom):
    grid = build_line_grid(96)
    quad = build_quadrature(0.3, default_n_xi(96))
    masses = [np.trapezoid(project_clean(small_phantom, th, grid, quad),
                           grid.positions) for th in (0.0, 0.8, 2.1, 4.4)]
    spread = (max(masses) - min(masses)) / max(abs(m) for m in masses)
    assert spread < 1e-3


def test_generate_batch_shapes_and_determinism(small_phantom, bump12, quad32):
    grid = build_line_grid(16)
    b1 = generate_batch(small_phantom, bump12, 50, 2, 3.8 * DEG, 0.5, grid,
                        quad32, seed=9)
    b2 = generate_batch(small_phantom, bump12, 50, 2, 3.8 * DEG, 0.5, grid,
                        quad32, seed=9)
    assert b1.samples.shape == (50, 5, 16)
    assert np.array_equal(b1.samples, b2.samples)
    assert np.array_equal(b1.hidden_angles, b2.hidden_angles)
    b3 = generate_batch(small_phantom, bump12, 50, 2, 3.8 * DEG, 0.5, grid,
                        quad32, seed=10)
    assert not np.array_equal(b1.samples, b3.samples)


def test_generate_batch_several_variances_equal_separate_calls(
        small_phantom, bump12, quad32, monkeypatch):
    """One pass over several variances returns, per variance, bitwise the
    batch of a separate call, and projects each used angle once."""
    grid = build_line_grid(16)
    variances = (0.0, 0.5, 3.0)
    alone = [generate_batch(small_phantom, bump12, 50, 2, 3.8 * DEG, s2, grid,
                            quad32, seed=9) for s2 in variances]
    calls = []
    monkeypatch.setattr("tiltrec.sim.project_clean",
                        lambda *args: calls.append(1) or project_clean(*args))
    together = generate_batch(small_phantom, bump12, 50, 2, 3.8 * DEG,
                              variances, grid, quad32, seed=9)
    assert len(together) == 3
    for one, many in zip(alone, together):
        assert np.array_equal(one.samples, many.samples)
        assert np.array_equal(one.hidden_angles, many.hidden_angles)
        assert one.sigma2 == many.sigma2
    assert len(calls) == 5 * np.unique(alone[0].hidden_angles).size
    with pytest.raises(ConfigError):
        generate_batch(small_phantom, bump12, 50, 2, 3.8 * DEG, [0.5, -1.0],
                       grid, quad32, seed=9)


def test_hidden_angle_is_cdf_index_of_first_draw(small_phantom, bump12, quad32):
    """Label i is the first cdf cell above the first uniform of substream
    (seed, i), the last cell if rounding leaves the cdf's end below it."""
    batch = generate_batch(small_phantom, bump12, 200, 1, 3.8 * DEG, 0.5,
                           build_line_grid(16), quad32, seed=9)
    cdf = np.cumsum(bump12.p)
    for i, label in enumerate(batch.hidden_angles):
        u = np.random.default_rng(
            np.random.SeedSequence(entropy=9, spawn_key=(i,))).random()
        above = [l for l in range(bump12.n_theta) if u < cdf[l]]
        assert label == (above[0] if above else bump12.n_theta - 1)


def _numpy_starts(seed, N):
    """(u, states) of N substreams from numpy's own objects."""
    rngs = [np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(i,))) for i in range(N)]
    u = [rng.random() for rng in rngs]
    return u, [rng.bit_generator.state for rng in rngs]


# 2**160 + 1 has six entropy words, past the four-word pool
@pytest.mark.parametrize("seed", [0, 9, 2**32 + 5, 2**64 + 3, 2**160 + 1])
def test_generate_batch_bitwise_equals_per_record_reference(
        small_phantom, bump12, quad32, seed):
    """Batches from the all-records-at-once substream starts are bitwise
    those of one numpy Generator per record, for one and several
    variances."""
    grid = build_line_grid(16)
    for N in (1, 37, 300):
        for sigma2 in (0.0, 0.5, [0.0, 0.5, 3.0]):
            args = (small_phantom, bump12, N, 1, 3.8 * DEG, sigma2, grid,
                    quad32, seed)
            got, want = generate_batch(*args), generate_batch_reference(*args)
            for g, w in zip(np.atleast_1d(got), np.atleast_1d(want)):
                assert np.array_equal(g.samples, w.samples)
                assert np.array_equal(g.hidden_angles, w.hidden_angles)
                assert g.sigma2 == w.sigma2 and g.seed == w.seed
    u, states = _substream_starts(seed, 300)
    assert (u.tolist(), states) == _numpy_starts(seed, 300)


@settings(max_examples=60, derandomize=True, database=None, deadline=2000)
@given(seed=st.integers(0, 2**256 - 1), N=st.integers(1, 64))
def test_substream_starts_match_numpy(seed, N):
    """The first uniform and the PCG64 state after it agree with numpy's
    SeedSequence and PCG64 for any seed: this breaks if a numpy release
    changes the streams NEP 19 keeps stable."""
    u, states = _substream_starts(seed, N)
    assert (u.tolist(), states) == _numpy_starts(seed, N)


def test_negative_seed_is_rejected_by_name(small_phantom, bump12, quad32):
    with pytest.raises(ConfigError, match="seed must be a non-negative "
                                          "integer, got -1"):
        generate_batch(small_phantom, bump12, 5, 1, 3.8 * DEG, 0.5,
                       build_line_grid(16), quad32, seed=-1)


def test_noise_variance_matches(small_phantom, bump12, quad32):
    grid = build_line_grid(16)
    sigma2 = 4.0
    clean = generate_batch(small_phantom, bump12, 800, 2, 3.8 * DEG, 0.0,
                           grid, quad32, seed=21)
    noisy = generate_batch(small_phantom, bump12, 800, 2, 3.8 * DEG, sigma2,
                           grid, quad32, seed=21)
    diff = noisy.samples - clean.samples
    n = diff.size
    est = diff.var()
    se = sigma2 * np.sqrt(2.0 / (n - 1))
    assert abs(est - sigma2) < 4 * se


def test_hidden_angles_follow_p(small_phantom, quad32):
    grid = build_line_grid(16)
    p = bump_distribution(12, 2.0, 4.0)
    batch = generate_batch(small_phantom, p, 20000, 1, 3.8 * DEG, 0.0, grid,
                           quad32, seed=2)
    hist = np.bincount(batch.hidden_angles.astype(int), minlength=12) / 20000
    assert np.abs(hist - p.p).sum() < 3.0 / np.sqrt(20000) * np.sqrt(12)


def test_batch_roundtrip(tmp_path, small_batch):
    batch, _ = small_batch
    path = tmp_path / "b.dat"
    save_batch(batch, path)
    back = load_batch(path)
    assert np.array_equal(back.samples, batch.samples)
    assert back.samples.flags.writeable
    back.samples[0, 0, 0] += 1.0
    assert back.K == batch.K and back.n_theta == batch.n_theta
    assert back.sigma2 == batch.sigma2 and back.alpha == batch.alpha
    assert np.array_equal(back.hidden_angles, batch.hidden_angles)
    assert back.grid.L == batch.grid.L and back.grid.dx == batch.grid.dx


def test_batch_loads_through_a_pipe(tmp_path, small_batch):
    """A non-regular file reports no size: its payload is read to the end."""
    batch, _ = small_batch
    path, fifo = tmp_path / "b.dat", tmp_path / "b.fifo"
    save_batch(batch, path)
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
    writer.start()
    back = load_batch(fifo)
    writer.join()
    assert np.array_equal(back.samples, batch.samples)
    assert np.array_equal(back.hidden_angles, batch.hidden_angles)


@pytest.mark.filterwarnings("error")
def test_dx_past_the_float_range_is_rejected(tmp_path, small_batch):
    """A header dx whose line positions overflow raises a ConfigError
    naming dx, with no numpy overflow warning on the way."""
    batch, _ = small_batch
    path = tmp_path / "b.dat"
    save_batch(batch, path)
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["dx"] = 1e308
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(ConfigError, match="dx = 1e[+]?308 puts line "
                                          "positions past the float range"):
        load_batch(path)


def test_narrow_window_warns(small_spec, quad32):
    phantom = random_phantom(small_spec, 1.0, seed=1)
    grid = build_line_grid(8)  # 8 < 2R = 16
    with pytest.warns(UserWarning):
        project_clean(phantom, 0.0, grid, quad32)


def test_small_support_spec_fails():
    with pytest.raises(ConfigError):
        build_basis_spec(0.3, 0.5)  # retains nothing
