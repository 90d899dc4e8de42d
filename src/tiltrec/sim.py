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
    MAX_TILT_SPAN,
    BasisSpec,
    FBCoeffs,
    QuadratureGrid,
    eval_basis_matrix,
)
from .errors import ConfigError

_SUM_TOL = 1e-12

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


@dataclass(frozen=True)
class LineGrid:
    """Equispaced sample positions along a projection line.

    positions x_l = (l - (L-1)/2) * dx, symmetric about 0.
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
        if self.sigma2 < 0:
            raise ConfigError(f"sigma2 must be >= 0, got {self.sigma2}")

    @property
    def N(self) -> int:
        return self.samples.shape[0]


def random_phantom(
    spec: BasisSpec, decay: float, realize: bool = True, seed: int = 0
) -> FBCoeffs:
    """Random band-limited object with a decaying coefficient envelope.

    Coefficients are i.i.d. complex Gaussian with standard deviation
    exp(-decay * R_{k,q} / (2*pi*c*R)); realize=True replaces the draw by its
    nearest real-image-symmetric vector and sets the symmetry flag.
    """
    if decay <= 0:
        raise ConfigError(f"decay must be positive, got {decay}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    envelope = np.exp(-decay * spec.roots / (2.0 * np.pi * spec.c * spec.R))
    raw = envelope * (
        rng.standard_normal(spec.n_a) + 1j * rng.standard_normal(spec.n_a)
    )
    coeffs = FBCoeffs(raw, spec)
    return coeffs.symmetrized() if realize else coeffs


def _check_support(spec: BasisSpec, grid: LineGrid):
    if grid.L * grid.dx < 2.0 * spec.R - 1e-9:
        warnings.warn(
            f"line window L*dx = {grid.L * grid.dx:.2f} shorter than the "
            f"object diameter 2R = {2 * spec.R:.2f}",
            stacklevel=3,
        )


def project_clean(
    coeffs: FBCoeffs, theta: float, grid: LineGrid, quad: QuadratureGrid
) -> np.ndarray:
    """Clean projection line at view angle theta, sampled on grid.positions.

    Computed through the Fourier slice: the 1-D spectrum of the projection is
    the radial slice of the object's 2-D transform.  The inverse transform
    over (-c, c) splits into the [0, c] quadrature plus its mirror, where the
    negative-frequency half-slice at theta equals the positive half at
    theta + pi.  Real-symmetric coefficients give a real line (residue
    checked at 1e-10 relative); without the flag the real part is returned
    as-is.
    """
    spec = coeffs.spec
    _check_support(spec, grid)
    fwd = eval_basis_matrix(spec, quad, theta) @ coeffs.values
    rev = eval_basis_matrix(spec, quad, theta + np.pi) @ coeffs.values
    phase = np.exp(2j * np.pi * np.outer(grid.positions, quad.nodes))
    line = phase @ (quad.weights * fwd) + np.conj(phase) @ (quad.weights * rev)

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


def generate_batch(
    coeffs: FBCoeffs,
    p: ViewDistribution,
    N: int,
    K: int,
    alpha: float,
    sigma2: float,
    grid: LineGrid,
    quad: QuadratureGrid,
    seed: int = 0,
) -> TiltSeriesBatch:
    """Draw N records: hidden angle theta_i = phi_{l_i} with l_i ~ p, then
    y_{i,kappa} = P_{theta_i + kappa*alpha}(f) + Gaussian noise.

    Record i consumes only the substream spawned from (seed, i): first one
    uniform draw for l_i, then the unit-normal noise block z_i, so batches
    are deterministic in seed regardless of generation order.  The uniforms
    and the states after them come from _substream_starts for all records
    at once; one Generator, set to each record's state in turn, draws the
    z_i.  sigma2 may also be a sequence of variances: one pass then returns
    one batch per variance, whose record i is clean_i + sqrt(sigma2_j) * z_i
    from the one label, clean lines and z_i, so each batch is bitwise that
    of a separate call with its variance.  A negative seed raises
    ConfigError.
    """
    variances = np.atleast_1d(sigma2).astype(float)
    if N < 1:
        raise ConfigError(f"N must be >= 1, got {N}")
    if np.any(variances < 0):
        raise ConfigError(f"sigma2 must be >= 0, got {sigma2}")
    if K * alpha > MAX_TILT_SPAN + 1e-12:
        warnings.warn(
            f"tilt span K*alpha = {K * alpha:.4f} rad exceeds pi/3", stacklevel=2
        )
    _check_support(coeffs.spec, grid)

    cdf = np.cumsum(p.p)
    sigmas = np.sqrt(variances)
    n_tilt = 2 * K + 1

    u, states = _substream_starts(seed, N)
    labels = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)

    # clean lines depend on i only through l_i: tabulate the used angles once
    kappas = np.arange(-K, K + 1)
    table = {}
    for l in np.unique(labels):
        theta = 2.0 * np.pi * l / p.n_theta
        rows = [
            project_clean(coeffs, (theta + k * alpha) % (2.0 * np.pi), grid, quad)
            for k in kappas
        ]
        table[int(l)] = np.array(rows)

    samples = [np.empty((N, n_tilt, grid.L)) for _ in sigmas]
    noisy = bool(np.any(sigmas > 0.0))
    rng = np.random.Generator(np.random.PCG64(0))   # one per call: no sharing
    for i, (state, l) in enumerate(zip(states, labels)):
        clean = table[int(l)]
        if noisy:
            rng.bit_generator.state = state
            z = rng.standard_normal((n_tilt, grid.L))
        for out, sigma in zip(samples, sigmas):
            out[i] = clean + sigma * z if sigma > 0.0 else clean

    batches = [TiltSeriesBatch(samples=out, K=K, alpha=float(alpha),
                               sigma2=float(s2), grid=grid, seed=int(seed),
                               n_theta=p.n_theta, hidden_angles=labels)
               for out, s2 in zip(samples, variances)]
    return batches if np.ndim(sigma2) else batches[0]


def save_batch(batch: TiltSeriesBatch, path: str):
    """One JSON header line, then the little-endian float64 payload.

    Payload order: samples (C order, N x (2K+1) x L), then the hidden angle
    indices as float64 when present.
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
        fh.write(np.ascontiguousarray(batch.samples, dtype="<f8").data)
        if batch.hidden_angles is not None:
            fh.write(batch.hidden_angles.astype("<f8").tobytes())


def read_header_file(path, fields):
    """(header, payload, sha256) of a file that starts with one JSON header
    line; the sha256 is that of the bytes read, header line and payload.

    The payload is read once into a writable bytearray sized from the file
    (a pipe or other non-regular file is read to its end), so arrays viewing
    it need no copy.  fields maps each required key to its type: bool, float
    (a finite real) or an int giving the least integer the key may hold.
    Raises ConfigError when the header line is not an ASCII JSON object, or
    naming the first key it lacks or holds with another type.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        st = os.fstat(fh.fileno())
        size = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else 0
        payload = bytearray(max(size, 0))
        del payload[fh.readinto(payload):]
        payload += fh.read()  # what the size missed: a pipe, a grown file
    digest = hashlib.sha256(line)
    digest.update(payload)
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
    return header, payload, digest.hexdigest()


def check_payload_size(path, payload: bytearray, expected: int):
    """Raise ConfigError unless the payload holds exactly expected bytes."""
    if len(payload) != expected:
        raise ConfigError(
            f"{path}: payload holds {len(payload)} bytes, header implies "
            f"{expected}"
        )


def load_batch(path: str) -> TiltSeriesBatch:
    header, payload, digest = read_header_file(
        path, {"N": 1, "K": 0, "L": 1, "n_theta": 1, "seed": 0,
               "alpha": float, "sigma2": float, "dx": float,
               "hidden_angles": bool})
    N, K, L = header["N"], header["K"], header["L"]
    n_main = N * (2 * K + 1) * L
    check_payload_size(
        path, payload, 8 * (n_main + (N if header["hidden_angles"] else 0)))
    data = np.frombuffer(payload, dtype="<f8")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"{path}: payload holds non-finite samples or "
                          f"hidden angles")
    samples = data[:n_main].reshape(N, 2 * K + 1, L)   # writable view
    angles, hidden = data[n_main:], None
    if header["hidden_angles"]:
        # n_theta bounds no allocation: it may exceed any array size
        if not (np.array_equal(angles, np.trunc(angles)) and angles.min() >= 0
                and angles.max() < min(header["n_theta"], 2 ** 63)):
            raise ConfigError(f"{path}: payload holds hidden angles that are "
                              f"not integers in [0, n_theta)")
        hidden = angles.astype(int)
    return TiltSeriesBatch(
        samples=samples,
        K=K,
        alpha=header["alpha"],
        sigma2=header["sigma2"],
        grid=build_line_grid(L, header["dx"]),
        seed=header["seed"],
        n_theta=header["n_theta"],
        hidden_angles=hidden,
        source_sha256=digest,
    )
