import contextlib
import hashlib
import itertools
import json
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltrec.basis import (FBCoeffs, QuadratureGrid, build_basis_spec,
                           build_quadrature, eval_tilt_matrix)
from tiltrec.errors import ConfigError
from tiltrec.sim import (BatchFile, ViewDistribution, _line_phases,
                         _substream_starts, build_line_grid,
                         bump_distribution, generate_batch, load_batch,
                         project_clean, random_phantom, reduce_records,
                         save_batch, two_bump_distribution,
                         uniform_distribution)

from oracles import (column_index, default_n_xi, dft_at_nodes,
                     generate_batch_reference, project_clean_reference,
                     raw_phantom, symmetry_residual)

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
    raw = raw_phantom(small_spec, 1.0, 3)
    assert symmetry_residual(raw) > 1e-3  # unsymmetrized draw
    assert a1.values.tobytes() == raw.symmetrized().values.tobytes()


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
    vals[column_index(small_spec)[(0, 1)]] = 1.0
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


def test_project_clean_line_phases_keyed_by_grid_and_quadrature(
        small_phantom, quad32):
    """Lines read through the shared phases are bitwise the reference's,
    which forms its phases per call, for two grids of equal L and different
    dx and two quadratures of equal size and different nodes, called
    interleaved: a memo that ignored either key would hand one pair's
    phases to the other."""
    grids = [build_line_grid(16, 1.0), build_line_grid(16, 1.25)]
    mid = (np.arange(32) + 0.5) * 0.3 / 32   # midpoint rule on [0, c]
    quads = [quad32, QuadratureGrid(nodes=mid, weights=np.full(32, 0.3 / 32),
                                    n_xi=32, c=0.3)]
    for _ in range(2):
        for theta, (grid, quad) in zip(
                (0.3, 1.1, 2.9, 4.4), itertools.product(grids, quads)):
            assert np.array_equal(
                project_clean(small_phantom, theta, grid, quad),
                project_clean_reference(small_phantom, theta, grid, quad))
    phase, phase_conj = _line_phases(grids[0], quads[0])
    for shared in (phase, phase_conj):
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 0.0


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
    """Batches from the all-records-at-once substream starts and the
    gathered clean table are bitwise those of one numpy Generator per
    record, for one and several variances, at K = 1 and at the 13 tilts
    (K = 6, L = 32) of the pipeline's default geometry."""
    for (K, L), N, sigma2 in itertools.product(
            [(1, 16), (6, 32)], (1, 37, 300), (0.0, 0.5, [0.0, 0.5, 3.0])):
        args = (small_phantom, bump12, N, K, 3.8 * DEG, sigma2,
                build_line_grid(L), quad32, seed)
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


def _feed_fifo(fifo, blob):
    """Start a thread that writes blob into the new FIFO fifo; the reader
    may close it before reading all of blob."""
    os.mkfifo(fifo)

    def write():
        with contextlib.suppress(BrokenPipeError):
            fifo.write_bytes(blob)
    writer = threading.Thread(target=write)
    writer.start()
    return writer


def test_batch_loads_through_a_pipe(tmp_path, small_batch):
    """A non-regular file reports no size: its payload is read to the end."""
    batch, _ = small_batch
    path, fifo = tmp_path / "b.dat", tmp_path / "b.fifo"
    save_batch(batch, path)
    writer = _feed_fifo(fifo, path.read_bytes())
    back = load_batch(fifo)
    writer.join()
    assert np.array_equal(back.samples, batch.samples)
    assert np.array_equal(back.hidden_angles, batch.hidden_angles)


@pytest.fixture
def blocked_file(tmp_path, small_batch, monkeypatch):
    """small_batch saved and read 64 records a block: 7 blocks, the last
    short."""
    monkeypatch.setattr("tiltrec.sim._REDUCE_BLOCK", 64)
    path = tmp_path / "b.dat"
    save_batch(small_batch[0], path)
    return path


def test_batch_pass_hashes_on_one_thread_that_ends_with_it(blocked_file):
    """While a pass runs, one more thread (the hash's) is alive and a
    consumer cannot write into the block it may be reading; after the
    pass, no thread is left and the digest is the file's sha256."""
    before, seen = threading.active_count(), []

    def consume(block):
        seen.append(threading.active_count())
        with pytest.raises(ValueError, match="read-only"):
            block *= 2.0

    with contextlib.closing(BatchFile(blocked_file)) as src:
        reduce_records(src.blocks(), [consume])
    assert len(seen) == 7 and set(seen) == {before + 1}
    assert threading.active_count() == before
    assert src.source_sha256 == hashlib.sha256(
        blocked_file.read_bytes()).hexdigest()


@pytest.mark.parametrize("exit_path", ["consumer_raises", "nan_in_last_block",
                                       "short_fifo"])
def test_batch_pass_ends_its_hash_thread_on_every_exit(blocked_file,
                                                       exit_path):
    """A consumer that raises on block 2 (the pass is closed mid-way), a
    NaN sample in the last block and a short payload read from a FIFO each
    stop the pass, and no thread outlives it."""
    blob, writer = blocked_file.read_bytes(), None
    calls = []

    def consume(block):
        calls.append(len(block))
        if exit_path == "consumer_raises" and len(calls) == 2:
            raise RuntimeError("consumer failed on block 2")

    error, match = RuntimeError, "consumer failed on block 2"
    if exit_path == "nan_in_last_block":
        at = blob.index(b"\n") + 1 + 8 * (400 * 5 * 16 - 3)
        blocked_file.write_bytes(blob[:at] + np.float64(np.nan).tobytes()
                                 + blob[at + 8:])
        error, match = ConfigError, f"{blocked_file}: .*non-finite samples"
    elif exit_path == "short_fifo":
        fifo = blocked_file.with_suffix(".fifo")
        writer = _feed_fifo(fifo, blob[:len(blob) // 2])
        blocked_file = fifo
        error, match = ConfigError, r"payload holds \d+ bytes"
    before = threading.active_count() - (writer is not None)
    with contextlib.closing(BatchFile(blocked_file)) as src:
        with pytest.raises(error, match=match) as raised:
            reduce_records(src.blocks(), [consume])
    if writer is not None:
        writer.join(timeout=10)
        assert not writer.is_alive()
    # raised holds the traceback, and with it the pass's frames
    assert threading.active_count() == before, raised
    assert src.source_sha256 is None


@pytest.mark.parametrize("N", [2 ** 44, 2 ** 62], ids=["memory", "too_big"])
def test_lying_header_on_a_pipe_is_refused_by_name(tmp_path, small_batch, N):
    """A FIFO reports no size, so its header's N is believed until the
    payload ends: an N whose sample array cannot be allocated (numpy's
    MemoryError, or its "array is too big" ValueError) raises a ConfigError
    naming N."""
    path = tmp_path / "b.dat"
    save_batch(small_batch[0], path)
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["N"] = N
    fifo = tmp_path / "b.fifo"
    writer = _feed_fifo(fifo, json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(ConfigError, match=re.escape(
            f"header field 'N' = {N} gives an array of shape ({N}, 5, 16) "
            f"that memory cannot hold")):
        load_batch(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()


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


def test_narrow_window_warns_once_per_draw(small_phantom, bump12, quad32):
    """One draw on a short window warns once, at generate_batch's caller,
    not once more per tabulated line."""
    with pytest.warns(UserWarning) as caught:   # records with "always"
        generate_batch(small_phantom, bump12, 50, 2, 3.8 * DEG, 0.5,
                       build_line_grid(8), quad32, seed=9)  # 8 < 2R = 16
    short = [w for w in caught if "shorter than" in str(w.message)]
    assert len(short) == 1
    assert short[0].filename == __file__


def test_wide_tilt_span_warns_once_at_each_caller(small_phantom, bump12,
                                                 quad32, small_spec):
    """A tilt span |K*alpha| past pi/3 warns once per generate_batch draw
    and once per eval_tilt_matrix call, each attributed to its caller; a
    negative alpha spans the same tilts in the other order."""
    for alpha in (40 * DEG, -40 * DEG):
        for call in (lambda: generate_batch(small_phantom, bump12, 50, 2,
                                            alpha, 0.5, build_line_grid(16),
                                            quad32, seed=9),
                     lambda: eval_tilt_matrix(small_spec, quad32, 2, alpha)):
            with pytest.warns(UserWarning) as caught:
                call()
            wide = [w for w in caught if "tilt span" in str(w.message)]
            assert len(wide) == 1
            assert wide[0].filename == __file__


def test_small_support_spec_fails():
    with pytest.raises(ConfigError):
        build_basis_spec(0.3, 0.5)  # retains nothing
