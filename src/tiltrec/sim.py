"""Observation-model simulator.

Generates band-limited phantoms, draws hidden view angles from a discrete
distribution over n_theta equispaced candidates, and produces clean or noisy
projection tilt series.  One record is a group of 2K+1 projection lines of
the same object at angles theta_i + kappa*alpha, kappa = -K..K, sampled on L
equispaced points and corrupted by i.i.d. Gaussian noise of variance sigma2.

Batches are reproducible: record i consumes only the substream spawned from
(seed, i), that is default_rng(SeedSequence(entropy=seed, spawn_key=(i,))),
so generation order (or parallel generation) cannot change the output.  The
start states of all N substreams are computed at once from SeedSequence's
hash and PCG64's seeding, both fixed algorithms whose streams NumPy keeps
stable (NEP 19); they are bitwise the states numpy's own objects reach.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import operator
import os
import stat
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisSpec,
    FBCoeffs,
    QuadratureGrid,
    eval_basis_matrix,
    warn_tilt_span,
)
from .errors import ConfigError

_SUM_TOL = 1e-12
# records per block of every pass over a batch's records: a batch file is
# read, and each record reduction fed, this many records at a time, which
# bounds what a pass holds to one block whatever N is
_REDUCE_BLOCK = 1024

# SeedSequence's uint32 hash constants and PCG64's 128-bit LCG multiplier
# (numpy/random/bit_generator.pyx, numpy/random/src/pcg64/pcg64.h)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = (0x43B0D7E5, 0x931E8875, 0x8B51F9DD,
                                      0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


@dataclass(frozen=True)
class ViewDistribution:
    """Probability mass over the angle grid phi_l = 2*pi*l/n_theta."""

    p: np.ndarray
    n_theta: int

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.shape != (self.n_theta,):
            raise ConfigError(f"p has shape {p.shape}, expected ({self.n_theta},)")
        if not np.all(np.isfinite(p)):
            raise ConfigError("non-finite probability in p")
        if np.any(p < 0):
            raise ConfigError(f"negative probability: min(p) = {p.min():.3e}")
        if abs(p.sum() - 1.0) > _SUM_TOL:
            raise ConfigError(f"probabilities sum to {p.sum():.15f}, not 1")


def uniform_distribution(n_theta: int) -> ViewDistribution:
    return ViewDistribution(np.full(n_theta, 1.0 / n_theta), n_theta)


def bump_distribution(n_theta: int, loc: float, kappa: float) -> ViewDistribution:
    """Discretized circular bump exp(kappa*cos(phi - loc)), normalized.

    kappa = 0 recovers the uniform distribution; larger kappa concentrates
    mass near loc.  Any kappa > 0 with generic loc gives an aperiodic p
    (no nontrivial cyclic-shift symmetry), which the moment solver needs.
    """
    phi = 2.0 * np.pi * np.arange(n_theta) / n_theta
    w = np.exp(kappa * np.cos(phi - loc))
    p = w / w.sum()
    p = p / p.sum()
    return ViewDistribution(p, n_theta)


def two_bump_distribution(
    n_theta: int,
    loc1: float,
    loc2: float,
    kappa: float,
    weight: float = 0.5,
) -> ViewDistribution:
    """Mixture of two circular bumps; weight is the mass of the first."""
    if not 0.0 <= weight <= 1.0:
        raise ConfigError(f"mixture weight must be in [0, 1], got {weight}")
    p1 = bump_distribution(n_theta, loc1, kappa).p
    p2 = bump_distribution(n_theta, loc2, kappa).p
    p = weight * p1 + (1.0 - weight) * p2
    p = p / p.sum()
    return ViewDistribution(p, n_theta)


@dataclass(frozen=True, eq=False)
class LineGrid:
    """Equispaced sample positions along a projection line.

    positions x_l = (l - (L-1)/2) * dx, symmetric about 0.  Hashed by
    identity, like BasisSpec and QuadratureGrid: an immutable value whose
    array is never written after construction.
    """

    L: int
    dx: float
    positions: np.ndarray

    def __post_init__(self):
        if self.L < 1:
            raise ConfigError(f"L must be >= 1, got {self.L}")
        if self.dx <= 0:
            raise ConfigError(f"dx must be positive, got {self.dx}")
        if not np.all(np.isfinite(self.positions)):
            raise ConfigError(f"dx = {self.dx} puts line positions past the "
                              f"float range")


def build_line_grid(L: int, dx: float = 1.0) -> LineGrid:
    with np.errstate(over="ignore"):   # LineGrid rejects what overflows
        positions = (np.arange(L) - (L - 1) / 2.0) * dx
    return LineGrid(L=int(L), dx=float(dx), positions=positions)


@dataclass(frozen=True)
class TiltSeriesBatch:
    """N tilt-series records: samples[i, kappa+K, l] = y_{i,kappa}[x_l]."""

    samples: np.ndarray
    K: int
    alpha: float
    sigma2: float
    grid: LineGrid
    seed: int
    n_theta: int
    hidden_angles: np.ndarray | None = None
    source_sha256: str | None = None    # of the file it was loaded from

    def __post_init__(self):
        N = self.samples.shape[0]
        expect = (N, 2 * self.K + 1, self.grid.L)
        if self.samples.shape != expect:
            raise ConfigError(f"samples shape {self.samples.shape} != {expect}")
        if np.iscomplexobj(self.samples):
            raise ConfigError(f"samples must be real, got {self.samples.dtype}")
        if self.sigma2 < 0:
            raise ConfigError(f"sigma2 must be >= 0, got {self.sigma2}")

    @property
    def N(self) -> int:
        return self.samples.shape[0]

    def blocks(self):
        """Views of samples, _REDUCE_BLOCK records each, in record order:
        the blocks a BatchFile reads, for a batch in memory."""
        return (self.samples[i:i + _REDUCE_BLOCK]
                for i in range(0, self.N, _REDUCE_BLOCK))


def random_phantom(spec: BasisSpec, decay: float, seed: int = 0) -> FBCoeffs:
    """Random band-limited object with a decaying coefficient envelope.

    Coefficients are i.i.d. complex Gaussian with standard deviation
    exp(-decay * R_{k,q} / (2*pi*c*R)), replaced by their nearest
    real-image-symmetric vector.
    """
    if decay <= 0:
        raise ConfigError(f"decay must be positive, got {decay}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    envelope = np.exp(-decay * spec.roots / (2.0 * np.pi * spec.c * spec.R))
    raw = envelope * (
        rng.standard_normal(spec.n_a) + 1j * rng.standard_normal(spec.n_a)
    )
    return FBCoeffs(raw, spec).symmetrized()


@functools.lru_cache(maxsize=8)
def _line_phases(grid: LineGrid, quad: QuadratureGrid):
    """(phase, conj(phase)) with phase = exp(2 pi i x_l xi_j), shape
    (L, n_xi): the inverse transform from the quadrature nodes to the line.

    Memoized by the identity of grid and quad, as basis._radial_matrix is;
    both shared results are read-only.
    """
    phase = np.exp(2j * np.pi * np.outer(grid.positions, quad.nodes))
    phase_conj = np.conj(phase)
    phase.setflags(write=False)
    phase_conj.setflags(write=False)
    return phase, phase_conj


def project_clean(
    coeffs: FBCoeffs, theta: float, grid: LineGrid, quad: QuadratureGrid,
) -> np.ndarray:
    """Clean projection line at view angle theta, sampled on grid.positions.

    Computed through the Fourier slice: the 1-D spectrum of the projection is
    the radial slice of the object's 2-D transform.  The inverse transform
    over (-c, c) splits into the [0, c] quadrature plus its mirror, where the
    negative-frequency half-slice at theta equals the positive half at
    theta + pi.  Real-symmetric coefficients give a real line (residue
    checked at 1e-10 relative); without the flag the real part is returned
    as-is.  The line phases are shared per (grid, quad) pair, like the
    radial factor per (spec, quad) pair, so a call forms no exponential of
    its own.
    """
    spec = coeffs.spec
    fwd = eval_basis_matrix(spec, quad, theta) @ coeffs.values
    rev = eval_basis_matrix(spec, quad, theta + np.pi) @ coeffs.values
    phase, phase_conj = _line_phases(grid, quad)
    line = phase @ (quad.weights * fwd) + phase_conj @ (quad.weights * rev)

    if coeffs.real_symmetric:
        scale = max(float(np.max(np.abs(line.real))), 1e-300)
        resid = float(np.max(np.abs(line.imag)))
        if resid > 1e-10 * scale:
            raise ValueError(
                f"imaginary residue {resid:.3e} on a symmetric projection"
            )
    return line.real


def _hasher(init, mult):
    """SeedSequence's hashmix over uint32 arrays: each call XORs in the
    hash constant, advances it by mult, multiplies and folds the high half
    down."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16
    return hashmix


def _substream_starts(seed: int, N: int):
    """(u, states): for each i < N, the first random() of
    default_rng(SeedSequence(entropy=seed, spawn_key=(i,))) and that
    generator's bit_generator.state right after it, bitwise numpy's.

    SeedSequence's entropy assembly, mix_entropy and generate_state(4,
    uint64) run as uint32 columns over all records, then PCG64's set_seed
    (inc = 2*initseq + 1, step, add initstate, step) and one more step with
    its XSL-RR output run on 128-bit Python ints per record.
    """
    seed = operator.index(seed)
    if seed < 0:   # the word split below would never end
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    words = [seed >> 32 * k & _MASK32
             for k in range(max(1, -(-seed.bit_length() // 32)))]
    words += [0] * (4 - len(words))   # the pool is padded before a spawn key
    entropy = [np.full(N, w, np.uint32) for w in words]
    entropy.append(np.arange(N, dtype=np.uint32))
    hash_a, hash_b = _hasher(_INIT_A, _MULT_A), _hasher(_INIT_B, _MULT_B)

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ r >> 16

    with np.errstate(over="ignore"):
        pool = [hash_a(w) for w in entropy[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hash_a(pool[src]))
        for w in entropy[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hash_a(w))
        half = [hash_b(pool[j % 4]).astype(np.uint64) for j in range(8)]
    s0, s1, q0, q1 = [(half[2 * j] | half[2 * j + 1] << np.uint64(32)).tolist()
                      for j in range(4)]
    bits, states = np.empty(N), []
    for i in range(N):
        inc = ((q0[i] << 64 | q1[i]) << 1 | 1) & _MASK128
        state = ((inc + (s0[i] << 64 | s1[i])) * _PCG_MULT + inc) & _MASK128
        state = (state * _PCG_MULT + inc) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        bits[i] = ((x >> rot | x << (64 - rot)) & _MASK64) >> 11
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return bits * 2.0**-53, states


class BatchDraw:
    """One seeded draw of N records y_{i,kappa} = P_{theta_i +
    kappa*alpha}(f) + sqrt(sigma2) z_i, theta_i = phi_{l_i} with l_i ~ p,
    made one record block at a time.  It carries a saved batch's header
    fields and hidden_angles, the labels.  Record i reads only the
    substream spawned from (seed, i): one uniform for l_i, then its
    unit-normal noise block z_i.  The substream starts, the labels, the
    table of each drawn angle's 2K+1 clean lines and clean_sums, the (sum,
    sum of squares, count) of the noiseless samples, are made once, here.
    Bad N, sigma2 or seed raise ConfigError; a short line window or wide
    tilt span warns at warnings.warn's stacklevel."""

    def __init__(self, coeffs: FBCoeffs, p: ViewDistribution, N: int, K: int,
                 alpha: float, sigma2: float, grid: LineGrid,
                 quad: QuadratureGrid, seed: int = 0, stacklevel: int = 2):
        if N < 1:
            raise ConfigError(f"N must be >= 1, got {N}")
        if sigma2 < 0:
            raise ConfigError(f"sigma2 must be >= 0, got {sigma2}")
        warn_tilt_span(K, alpha, stacklevel)
        if grid.L * grid.dx < 2.0 * coeffs.spec.R - 1e-9:
            warnings.warn(f"line window L*dx = {grid.L * grid.dx:.2f} shorter "
                          f"than the object diameter 2R = "
                          f"{2 * coeffs.spec.R:.2f}", stacklevel=stacklevel)
        self.N, self.K, self.alpha = N, K, float(alpha)
        self.sigma2, self.seed = float(sigma2), int(seed)
        self.grid, self.n_theta = grid, p.n_theta
        u, self._states = _substream_starts(seed, N)
        cdf = np.cumsum(p.p)
        self.hidden_angles = np.minimum(np.searchsorted(cdf, u, side="right"),
                                        len(cdf) - 1)
        drawn, self._row = np.unique(self.hidden_angles, return_inverse=True)
        self.table = np.array([
            [project_clean(coeffs, (2.0 * np.pi * l / p.n_theta + k * alpha)
                           % (2.0 * np.pi), grid, quad)
             for k in range(-K, K + 1)]
            for l in drawn])
        lines = self.table.reshape(len(drawn), -1)
        counts = np.bincount(self._row)
        self.clean_sums = (float(counts @ lines.sum(axis=1)),
                           float(counts @ np.einsum("ij,ij->i", lines, lines)),
                           N * lines.shape[1])

    def sample_blocks(self, variances, outs=None):
        """Per record block, its samples at each variance s2: the clean lines
        gathered from the table, plus sqrt(s2) z_i with each z_i drawn once,
        as views of outs (one N-row array per variance) or of one reused
        one-block buffer per variance, valid until the next block."""
        shape = self.table.shape[1:]
        outs = outs or [np.empty((min(self.N, _REDUCE_BLOCK), *shape))
                        for _ in variances]
        rng = np.random.Generator(np.random.PCG64(0))   # one per pass
        for i in range(0, self.N, _REDUCE_BLOCK):
            rows = self._row[i:i + _REDUCE_BLOCK]
            # a one-block buffer starts every block at 0, an N-row array at i
            blocks = [out[i % len(out):][:len(rows)] for out in outs]
            for block in blocks:   # "clip" gathers straight into block
                np.take(self.table, rows, axis=0, out=block, mode="clip")
            noise = [(block, np.sqrt(s2))
                     for block, s2 in zip(blocks, variances) if s2 > 0]
            for k, state in enumerate(self._states[i:i + len(rows)]
                                      if noise else ()):
                rng.bit_generator.state = state
                z = rng.standard_normal(shape)
                for block, sigma in noise:
                    block[k] += sigma * z
            yield blocks

    def blocks(self):
        """The samples at sigma2, _REDUCE_BLOCK records at a time."""
        return (block for [block] in self.sample_blocks([self.sigma2]))


def generate_batch(coeffs: FBCoeffs, p: ViewDistribution, N: int, K: int,
                   alpha: float, sigma2: float, grid: LineGrid,
                   quad: QuadratureGrid, seed: int = 0) -> TiltSeriesBatch:
    """The records of BatchDraw(coeffs, p, N, K, alpha, sigma2, grid, quad,
    seed) in memory, warning at the caller.  For a sequence sigma2, one
    batch per variance from one draw, each bitwise a separate call's."""
    variances = np.atleast_1d(sigma2).astype(float)
    # the draw refuses the least variance if it is negative
    draw = BatchDraw(coeffs, p, N, K, alpha, min(variances, default=0.0),
                     grid, quad, seed, stacklevel=3)
    samples = [np.empty((N, *draw.table.shape[1:])) for _ in variances]
    for _ in draw.sample_blocks(variances, samples):
        pass
    batches = [TiltSeriesBatch(samples=out, K=K, alpha=float(alpha),
                               sigma2=float(s2), grid=grid, seed=int(seed),
                               n_theta=p.n_theta,
                               hidden_angles=draw.hidden_angles)
               for out, s2 in zip(samples, variances)]
    return batches if np.ndim(sigma2) else batches[0]


def save_batch(batch: TiltSeriesBatch | BatchDraw, path: str):
    """One JSON header line, then the little-endian float64 payload.

    Payload order: samples (C order, N x (2K+1) x L), then the hidden angle
    indices as float64 when present.  The samples are written a record
    block at a time, as a BatchDraw draws them.
    """
    header = {
        "N": batch.N,
        "K": batch.K,
        "L": batch.grid.L,
        "alpha": batch.alpha,
        "sigma2": batch.sigma2,
        "seed": batch.seed,
        "n_theta": batch.n_theta,
        "dx": batch.grid.dx,
        "hidden_angles": batch.hidden_angles is not None,
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        for block in batch.blocks():
            fh.write(np.ascontiguousarray(block, dtype="<f8").data)
        if batch.hidden_angles is not None:
            fh.write(batch.hidden_angles.astype("<f8").tobytes())


def _parse_header(path, line, fields):
    """The header dict of a header line; fields maps each required key to
    its type: bool, float (a finite real) or an int giving the least
    integer the key may hold.  Raises ConfigError when the line is not an
    ASCII JSON object, or naming the first key it lacks or holds with
    another type."""
    try:
        header = json.loads(line.decode("ascii"))
    except (ValueError, RecursionError) as err:   # not ASCII, not JSON
        raise ConfigError(f"{path}: header line is not ASCII JSON: "
                          f"{err}") from None
    if not isinstance(header, dict):
        raise ConfigError(f"{path}: header is not a JSON object")
    for key, kind in fields.items():
        if key not in header:
            raise ConfigError(f"{path}: header lacks the {key!r} field")
        value = header[key]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if kind is bool:
            ok, want = isinstance(value, bool), "a boolean"
        elif kind is float:
            # also rejects NaN and an int past the float range
            ok = number and abs(value) <= sys.float_info.max
            want = "a finite real"
        else:
            ok = number and isinstance(value, int) and value >= kind
            want = f"an integer >= {kind}"
        if not ok:
            raise ConfigError(
                f"{path}: header field {key!r} must be {want}, got {value!r}")
    return header


def read_header_file(path, fields):
    """(header, payload, sha256) of a small file that starts with one JSON
    header line, read whole; the sha256 is that of the bytes read, header
    line and payload.  The header is checked against fields as
    _parse_header does, for a batch file too (BatchFile)."""
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = fh.read()
    digest = hashlib.sha256(line)
    digest.update(payload)
    return _parse_header(path, line, fields), payload, digest.hexdigest()


def check_payload_size(path, size: int, expected: int):
    """Raise ConfigError unless the payload holds exactly expected bytes."""
    if size != expected:
        raise ConfigError(
            f"{path}: payload holds {size} bytes, header implies {expected}")


def reduce_records(blocks, consumers):
    """Feed each record block, in order, to every consumer: the one loop by
    which each record reduction (moment sums, EM statistics) sees a batch,
    from a BatchFile's blocks or from those of a batch in memory, so
    both routes give the same bits.  blocks, a generator, is closed on
    every exit, so a consumer that raises ends a file's pass at once."""
    with contextlib.closing(blocks):
        for block in blocks:
            for consume in consumers:
                consume(block)


class BatchFile:
    """A saved batch, open for one pass over its records.

    Opening reads the header line, checks it as read_header_file does and
    sets the fields TiltSeriesBatch names N, K, alpha, sigma2, grid, seed
    and n_theta, and checks the payload size against the header (a pipe or
    other non-regular file reports no size: it is checked as it is read,
    and an L or K whose arrays memory cannot hold is refused by name).
    blocks() then reads the samples _REDUCE_BLOCK records at a time, by
    readinto, into one reused buffer (or into out), hashes each block on
    one helper thread (hashlib releases the GIL) while the caller reduces
    it, and rejects non-finite samples; at the end it reads and checks the
    hidden angles, refuses bytes past them and sets hidden_angles and
    source_sha256, the sha256 of the file's bytes in order.  Every fault raises
    ConfigError naming the file and the bad field, and only one record
    block is held at a time.  close() closes the file (contextlib.closing).
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb")
        try:
            line = self._fh.readline()
            header = _parse_header(path, line, {
                "N": 1, "K": 0, "L": 1, "n_theta": 1, "seed": 0,
                "alpha": float, "sigma2": float, "dx": float,
                "hidden_angles": bool})
            self.N, self.K, self.n_theta, self.seed = (
                header[key] for key in ("N", "K", "n_theta", "seed"))
            self.alpha, self.sigma2 = (float(header["alpha"]),
                                       float(header["sigma2"]))
            self._hidden = header["hidden_angles"]
            self._size = 8 * self.N * ((2 * self.K + 1) * header["L"]
                                       + self._hidden)
            st = os.fstat(self._fh.fileno())
            if stat.S_ISREG(st.st_mode):   # before anything is sized by N, L
                check_payload_size(path, st.st_size - len(line), self._size)
            L = header["L"]   # the sizes of the grid and of blocks()' block
            _allocate(path, "L", L, (L,))
            _allocate(path, "K", self.K, (min(self.N, _REDUCE_BLOCK),
                                          2 * self.K + 1, L))
            self.grid = build_line_grid(L, header["dx"])
        except BaseException:
            self._fh.close()
            raise
        self._digest, self._read = hashlib.sha256(line), 0
        self.hidden_angles = self.source_sha256 = None

    def close(self):
        self._fh.close()

    def _fill(self, array: np.ndarray):
        """Read array's bytes from the file; a file that ends first holds a
        short payload."""
        got = self._fh.readinto(array.data)
        self._read += got
        if got < array.nbytes:
            check_payload_size(self.path, self._read, self._size)

    def blocks(self, out: np.ndarray | None = None):
        """The sample blocks, each a read-only (block, 2K+1, L) view of the
        reused buffer, valid until the next one is read, or of out, an
        (N, 2K+1, L) array the samples are read into; each is hashed, by
        the helper thread, before the next readinto."""
        # imported here: imported with sim, ahead of numpy, it raised the
        # peak RSS of importing the package by 0.3 MB
        from concurrent.futures import ThreadPoolExecutor
        shape = (min(self.N, _REDUCE_BLOCK), 2 * self.K + 1, self.grid.L)
        buffer = np.empty(shape, "<f8") if out is None else None
        with ThreadPoolExecutor(max_workers=1) as hasher:
            for i in range(0, self.N, _REDUCE_BLOCK):
                n = min(_REDUCE_BLOCK, self.N - i)
                block = buffer[:n] if out is None else out[i:i + n]
                self._fill(block)
                hashed = hasher.submit(self._digest.update, block.data)
                if not np.isfinite(block).all():
                    raise ConfigError(f"{self.path}: payload holds "
                                      f"non-finite samples")
                block.flags.writeable = False   # a view: buffer stays writable
                yield block
                hashed.result()
        angles = np.empty(self.N if self._hidden else 0, "<f8")
        self._fill(angles)
        self._digest.update(angles.data)
        if not np.isfinite(angles).all():
            raise ConfigError(f"{self.path}: payload holds non-finite "
                              f"hidden angles")
        # n_theta bounds no allocation: it may exceed any array size
        if self._hidden and not (
                np.array_equal(angles, np.trunc(angles)) and angles.min() >= 0
                and angles.max() < min(self.n_theta, 2 ** 63)):
            raise ConfigError(f"{self.path}: payload holds hidden angles that "
                              f"are not integers in [0, n_theta)")
        if self._fh.read(1):
            raise ConfigError(f"{self.path}: payload holds more than the "
                              f"{self._size} bytes the header implies")
        self.hidden_angles = angles.astype(int) if self._hidden else None
        self.source_sha256 = self._digest.hexdigest()


def _allocate(path, key, value, shape, dtype="<f8") -> np.ndarray:
    """np.empty(shape, dtype), or a ConfigError naming the header field
    key = value if memory cannot hold it, as a lying pipe's header asks."""
    try:
        return np.empty(shape, dtype)
    except (MemoryError, ValueError) as err:
        raise ConfigError(f"{path}: header field {key!r} = {value} gives an "
                          f"array of shape {shape} that memory cannot hold: "
                          f"{err}") from None


def empty_records(batch, shape=(), dtype=float) -> np.ndarray:
    """np.empty((batch.N, *shape), dtype), one row per record; for a
    BatchFile, whose N may lie, by _allocate naming N."""
    if not isinstance(batch, BatchFile):
        return np.empty((batch.N, *shape), dtype)
    return _allocate(batch.path, "N", batch.N, (batch.N, *shape), dtype)


def load_batch(path: str) -> TiltSeriesBatch:
    """The batch saved at path, read by one BatchFile pass straight into
    its (N, 2K+1, L) sample array: the payload is neither zero-filled nor
    copied."""
    with contextlib.closing(BatchFile(path)) as src:
        samples = empty_records(src, (2 * src.K + 1, src.grid.L), "<f8")
        for _ in src.blocks(out=samples):
            pass
    return TiltSeriesBatch(
        samples=samples,
        K=src.K,
        alpha=src.alpha,
        sigma2=src.sigma2,
        grid=src.grid,
        seed=src.seed,
        n_theta=src.n_theta,
        hidden_angles=src.hidden_angles,
        source_sha256=src.source_sha256,
    )
