"""Truncated Fourier-Bessel dictionary on the Fourier disc.

A band-limited image with bandlimit ``c`` (cycles per pixel) and real-space
support radius ``R`` (pixels) is represented by complex coefficients on the
orthonormal functions

    psi_{k,q}(xi, theta) = N_{k,q} * J_|k|(R_{|k|,q} * xi / c) * exp(i*k*theta)

for xi <= c, where R_{m,q} is the q-th positive root of the Bessel function
J_m and N_{k,q} = 1 / (c * sqrt(pi) * |J_{|k|+1}(R_{|k|,q})|).  The functions
are orthonormal under the polar measure xi dxi dtheta on the disc of radius
c.  A pair (k, q) is retained when R_{|k|,q+1} <= 2*pi*c*R.

Radial evaluation always uses the non-negative order |k|; with that choice
a coefficient vector satisfying a[-k,q] == (-1)**k * conj(a[k,q]) synthesizes
a real-valued image.  Rotating the image counter-clockwise by gamma maps
a[k,q] -> a[k,q] * exp(-i*k*gamma), which makes every basis-matrix column
steerable: Psi_theta = Psi_0 @ diag(exp(i*k*theta)).  Only the phase
depends on theta, so the radial factor is evaluated once per (spec,
quadrature) pair and shared; both are treated as immutable values.

Images are synthesized in closed form: each basis function's inverse
Fourier transform is a Bessel quotient by Lommel's integral, so no
quadrature is involved.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import ConfigError

MAX_TILT_SPAN = np.pi / 3.0


def bessel_roots(k: int, count: int) -> np.ndarray:
    """First `count` positive roots of J_k, in increasing order."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return special.jn_zeros(abs(int(k)), count)


@dataclass(frozen=True, eq=False)
class BasisSpec:
    """Layout of the truncated dictionary as per-column index arrays.

    Columns run over k ascending from -k_max to k_max, then q ascending from
    1 to q_|k|; column i holds the pair (k_arr[i], q_arr[i]).

    Attributes
    ----------
    c, R : bandlimit (cycles/pixel) and support radius (pixels).
    k_max : largest retained angular frequency.
    q_counts : q_k for k = 0..k_max; counts for negative k mirror these.
    n_a : total number of coefficients.
    k_arr, q_arr : per-column angular frequency and radial index.
    roots : per-column Bessel root R_{|k|, q}.
    norms : per-column normalization N_{k, q} (even in k).
    """

    c: float
    R: float
    k_max: int
    q_counts: tuple
    n_a: int
    k_arr: np.ndarray = field(repr=False)
    q_arr: np.ndarray = field(repr=False)
    roots: np.ndarray = field(repr=False)
    norms: np.ndarray = field(repr=False)

    def angular_phases(self, theta: float) -> np.ndarray:
        """exp(i * k * theta) per column; the steering diagonal."""
        return np.exp(1j * self.k_arr * theta)


def build_basis_spec(c: float, R: float) -> BasisSpec:
    """Apply the truncation rule and lay out the flat index.

    A pair (k, q) is retained iff R_{|k|, q+1} <= 2*pi*c*R (boundary
    inclusive), so q_k = max{q : R_{k, q+1} <= 2*pi*c*R}.  Columns are
    ordered by k ascending from -k_max to k_max, then q ascending.
    """
    if c <= 0 or R <= 0:
        raise ConfigError(f"c and R must be positive, got c={c}, R={R}")
    bound = 2.0 * np.pi * c * R

    q_counts, order_roots = [], []
    k = 0
    while True:
        # need roots up to the first one beyond `bound`
        n_roots = max(8, int(bound / np.pi) + 4)
        roots = bessel_roots(k, n_roots)
        while roots[-1] <= bound:
            n_roots *= 2
            roots = bessel_roots(k, n_roots)
        q_k = int(np.searchsorted(roots, bound, side="right")) - 1
        if q_k < 1:
            break
        q_counts.append(q_k)
        order_roots.append(roots[:q_k])
        k += 1
    if not q_counts:
        raise ConfigError(
            f"empty basis: 2*pi*c*R = {bound:.4f} retains no (k, q) pair "
            f"for c={c}, R={R}"
        )
    k_max = len(q_counts) - 1

    orders = np.abs(np.arange(-k_max, k_max + 1))
    k_arr = np.repeat(np.arange(-k_max, k_max + 1), np.take(q_counts, orders))
    q_arr = np.concatenate([np.arange(1, q_counts[m] + 1) for m in orders])
    roots = np.concatenate([order_roots[m] for m in orders])
    norms = 1.0 / (c * math.sqrt(math.pi) * np.abs(special.jv(np.abs(k_arr) + 1, roots)))

    return BasisSpec(
        c=float(c),
        R=float(R),
        k_max=k_max,
        q_counts=tuple(q_counts),
        n_a=len(k_arr),
        k_arr=k_arr,
        q_arr=q_arr,
        roots=roots,
        norms=norms,
    )


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Gauss-Legendre nodes/weights for integrals over [0, c]."""

    nodes: np.ndarray
    weights: np.ndarray
    n_xi: int
    c: float


def build_quadrature(c: float, n_xi: int) -> QuadratureGrid:
    """Gauss-Legendre rule mapped from [-1, 1] onto [0, c]."""
    if n_xi < 1:
        raise ValueError(f"n_xi must be >= 1, got {n_xi}")
    x, w = np.polynomial.legendre.leggauss(n_xi)
    nodes = 0.5 * c * (x + 1.0)
    weights = 0.5 * c * w
    return QuadratureGrid(nodes=nodes, weights=weights, n_xi=n_xi, c=float(c))


@dataclass
class FBCoeffs:
    """Complex coefficient vector over a BasisSpec's columns.

    real_symmetric marks vectors satisfying a[-k,q] == (-1)**k * conj(a[k,q]),
    the condition for a real synthesized image.
    """

    values: np.ndarray
    spec: BasisSpec
    real_symmetric: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.spec.n_a,):
            raise ValueError(
                f"coefficient length {self.values.shape} != n_a {self.spec.n_a}"
            )

    def rotated(self, gamma: float) -> "FBCoeffs":
        """Coefficients of the image rotated counter-clockwise by gamma."""
        return FBCoeffs(
            self.values * np.exp(-1j * self.spec.k_arr * gamma),
            self.spec,
            self.real_symmetric,
        )

    def symmetrized(self) -> "FBCoeffs":
        """Nearest vector with the real-image symmetry."""
        k, v = self.spec.k_arr, self.values
        # sorting columns by (-k, q) lists the mirror of each (k, q) column
        mirror = np.lexsort((self.spec.q_arr, -k))
        sym = 0.5 * (v + (-1.0) ** k * np.conj(v[mirror]))
        return FBCoeffs(sym, self.spec, real_symmetric=True)


@functools.lru_cache(maxsize=8)
def _radial_matrix(spec: BasisSpec, grid: QuadratureGrid) -> np.ndarray:
    """Real radial factor N_{k,q} * J_|k|(R_{k,q} xi_j / c), shape (n_xi, n_a).

    Memoized by the identity of spec and grid, which are immutable values:
    their arrays are never written after construction.  The shared result
    is read-only.
    """
    if not math.isclose(spec.c, grid.c, rel_tol=1e-12):
        raise ValueError(f"bandlimit mismatch: spec c={spec.c}, grid c={grid.c}")
    args = np.outer(grid.nodes / spec.c, spec.roots)
    radial = special.jv(np.abs(spec.k_arr)[None, :], args) * spec.norms[None, :]
    radial.setflags(write=False)
    return radial


def eval_basis_matrix(spec: BasisSpec, grid: QuadratureGrid, theta: float) -> np.ndarray:
    """Matrix of psi_{k,q}(xi_j, theta), shape (n_xi, n_a)."""
    return _radial_matrix(spec, grid) * spec.angular_phases(theta)[None, :]


def warn_tilt_span(K: int, alpha: float):
    """Warn at the caller's caller when |K*alpha| exceeds MAX_TILT_SPAN:
    a negative step spans the same tilts in the other order."""
    span = abs(K * alpha)
    if span > MAX_TILT_SPAN + 1e-12:
        warnings.warn(f"tilt span |K*alpha| = {span:.4f} rad exceeds pi/3",
                      stacklevel=3)


def eval_tilt_matrix(
    spec: BasisSpec, grid: QuadratureGrid, K: int, alpha: float
) -> np.ndarray:
    """Vertical stack of eval_basis_matrix at kappa*alpha, kappa = -K..K.

    Row blocks are ordered by kappa ascending; rows within a block follow the
    quadrature nodes.  Shape ((2K+1)*n_xi, n_a).
    """
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    warn_tilt_span(K, alpha)
    radial = _radial_matrix(spec, grid)
    blocks = [
        radial * spec.angular_phases(kappa * alpha)[None, :]
        for kappa in range(-K, K + 1)
    ]
    return np.vstack(blocks)


def synthesize_image(coeffs: FBCoeffs, grid_size: int) -> np.ndarray:
    """Sample the inverse 2-D Fourier transform on a centered Cartesian grid.

    Every basis function transforms in closed form.  At a pixel of radius r
    and angle phi, with beta = 2*pi*c*r, alpha = R_{m,q} and m = |k|, the
    angular integral of psi_{k,q} gives 2*pi * i^m * exp(i*k*phi) times
    J_m(beta * xi / c), and Lommel's integral (J_m(alpha) = 0) the radial one:

        c^2 * alpha * J_{m+1}(alpha) * J_m(beta) / (alpha^2 - beta^2).

    Where |alpha^2 - beta^2| <= 1e-8 * alpha^2 the quotient is replaced by
    its first-order limit alpha * J_{m+1}(alpha)^2 / (alpha + beta), since
    the direct form divides rounding noise there.  Pixel (iy, ix) holds the
    value at x = ix - (g-1)/2, y = iy - (g-1)/2 with g = grid_size.

    Raises ValueError for grid_size < 2 or when a coefficient vector marked
    real_symmetric leaves a significant imaginary residue.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    spec = coeffs.spec
    coords = np.arange(grid_size) - (grid_size - 1) / 2.0
    xx, yy = np.meshgrid(coords, coords)  # image[iy, ix] at (x=coords[ix], y=coords[iy])
    beta = 2.0 * np.pi * spec.c * np.hypot(xx, yy).ravel()
    phi = np.arctan2(yy, xx).ravel()

    m = np.abs(spec.k_arr)
    alpha = spec.roots[:, None]
    j_next = special.jv(m + 1, spec.roots)[:, None]
    j_beta = special.jv(np.arange(spec.k_max + 1)[:, None], beta)[m]  # (n_a, n_pix)
    gap = alpha**2 - beta**2
    near = np.abs(gap) <= 1e-8 * alpha**2
    radial = np.where(near, alpha * j_next**2 / (alpha + beta),
                      alpha * j_next * j_beta / np.where(near, 1.0, gap))

    weights = (coeffs.values * spec.norms * 2.0 * np.pi * spec.c**2
               * np.array([1, 1j, -1, -1j])[m % 4])
    image = (radial * np.exp(1j * np.outer(spec.k_arr, phi))).T @ weights
    image = image.reshape(grid_size, grid_size)

    resid = np.max(np.abs(image.imag))
    scale = max(np.max(np.abs(image.real)), 1.0)
    if coeffs.real_symmetric and resid > 1e-10 * scale:
        raise ValueError(f"imaginary residue {resid:.3e} on symmetric coefficients")
    return image.real
