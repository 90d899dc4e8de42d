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

Bessel functions are computed here, in numpy.  J_n(x) for integer n >= 0
comes from Miller's normalized backward recurrence (W. Gautschi,
"Computational aspects of three-term recurrence relations", SIAM Review 9,
1967): J_{k-1} = (2k/x) J_k - J_{k+1} run down from a start order beyond
both n and x, scaled by powers of two against overflow and normalized with
J_0 + 2 * sum_k J_{2k} = 1.  One pass yields every order 0..n.  The roots of
J_k are bracketed by sign changes on a fixed grid and refined by Halley
steps clipped to the bracket.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

MAX_TILT_SPAN = np.pi / 3.0


# width of the cells that bracket Bessel roots; consecutive roots of one
# order lie more than 3.1 apart, so a cell holds at most one
_ROOT_CELL = 0.5
# a Halley step this small leaves an error of its cube, below rounding
_ROOT_STEP_TOL = 1e-6
_ROOT_MAX_STEPS = 20


def bessel_j(n, x, count: int = 1) -> np.ndarray:
    """J_{n+j}(x) for j = 0..count-1, stacked on a new leading axis.

    n (integers >= 0) and x (finite, >= 0) broadcast together.  Each
    element runs Miller's backward recurrence from its own start order, so
    its values depend only on its own n and x, never on the other elements.
    Positive x below 1e-300 is evaluated at 1e-300; x = 0 gives J_0 = 1 and
    J_n = 0 exactly.
    """
    n, x = np.broadcast_arrays(np.asarray(n), np.asarray(x, dtype=float))
    finite = np.all((0 <= x) & (x < np.inf))
    if n.dtype.kind not in "iu" or np.any(n < 0) or not finite:
        raise ValueError("bessel_j needs integer orders >= 0 and finite "
                         "arguments >= 0")
    shape = n.shape
    by_order = np.argsort(n, axis=None, kind="stable")
    n, x = n.ravel()[by_order], x.ravel()[by_order]
    # past the turning point m, J_N / Y_N falls like exp(-4/3 t^1.5) with
    # t = (N - m) (2/m)^(1/3); this start order keeps it below e^-50
    m = np.maximum(n + count - 1, x)
    start = (m + 9.0 * np.cbrt(m) + 8.0).astype(np.int64)
    top = int(start.max(initial=0))
    t = 2.0 / np.where(x > 0, np.maximum(x, 1e-300), 1.0)
    # a step multiplies the larger of the pair (f_k, f_{k+1}) by at most
    # top * t + 1, so `period` steps from below 1 cannot overflow; scaling
    # by powers of two is exact, so the period changes no bit
    period = max(1, int(1000.0 / np.log2(top * t.max(initial=0.0) + 2.0)))

    # element ranges as lists: order_at[k]:order_at[k+1] holds order k (n is
    # sorted), by_start[start_at[k]:start_at[k+1]] the elements starting at k
    order_at = np.searchsorted(n, np.arange(top + 2)).tolist()
    by_start = np.argsort(start, kind="stable")
    start_at = np.searchsorted(start[by_start], np.arange(top + 2)).tolist()
    n_lo, n_hi = (int(n[0]), int(n[-1])) if n.size else (0, -1)

    f, fp, even = np.zeros(x.size), np.zeros(x.size), np.zeros(x.size)
    new = np.empty(x.size)
    exponent = np.zeros(x.size, dtype=np.int64)   # f holds F_k * 2**-exponent
    out = np.empty((count, x.size))
    out_exponent = np.empty((count, x.size), dtype=np.int64)
    rescale = top - period
    for k in range(top, -1, -1):                  # f holds F_k, fp F_{k+1}
        lo, hi = start_at[k], start_at[k + 1]
        if lo < hi:
            f[by_start[lo:hi]] = 1.0
        for j in range(max(0, k - n_hi), min(count, k - n_lo + 1)):
            lo, hi = order_at[k - j], order_at[k - j + 1]
            out[j, lo:hi] = f[lo:hi]
            out_exponent[j, lo:hi] = exponent[lo:hi]
        if k == 0:
            break
        if k % 2 == 0:
            even += f
        if k == rescale:
            e = -np.frexp(np.maximum(np.abs(f), np.abs(fp)))[1]
            for a in (f, fp, even):
                np.ldexp(a, e, out=a)
            exponent -= e
            rescale -= period
        np.multiply(t, f, out=new)
        new *= k
        new -= fp
        f, fp, new = new, f, fp

    J = np.ldexp(out / (f + 2.0 * even), out_exponent - exponent)
    at_zero = x == 0
    J[:, at_zero] = n[at_zero] + np.arange(count)[:, None] == 0
    result = np.empty_like(J)
    result[:, by_order] = J
    return result.reshape((count,) + shape)


def bessel_roots(k, count) -> np.ndarray:
    """First `count` positive roots of J_|k|, in increasing order.

    k and count are integers or matching 1-D integer arrays; for arrays the
    roots of each order follow one another.  A root is bracketed by a sign
    change on the grid |k| + i * _ROOT_CELL and refined inside that cell
    alone, so bessel_roots(k, m) is bessel_roots(k, n)[:m] bit for bit.
    """
    k, count = np.broadcast_arrays(np.abs(np.atleast_1d(k)), np.asarray(count))
    if k.dtype.kind not in "iu" or count.dtype.kind not in "iu":
        raise ValueError(f"orders and counts must be integers, got k={k}, "
                         f"count={count}")
    if np.any(count < 1):
        raise ValueError(f"count must be >= 1, got {count}")
    # the roots of J_k lie in (k, (count + k/2) * pi)
    cells = np.ceil(((count + k / 2.0) * np.pi - k) / _ROOT_CELL).astype(np.int64)
    grid = k[:, None] + _ROOT_CELL * np.minimum(np.arange(cells.max() + 1),
                                                 cells[:, None])
    values = bessel_j(k[:, None], grid)[0]
    sign = values > 0
    same = sign[:, :-1] == sign[:, 1:]
    changes = np.argsort(same, axis=1, kind="stable")[:, :count.max()]
    row, s = np.nonzero(np.arange(changes.shape[1]) < count[:, None])
    cell = changes[row, s]
    if np.any(same[row, cell]):
        raise ArithmeticError("fewer sign changes than roots requested")
    lo, hi = grid[row, cell], grid[row, cell + 1]
    j_lo, j_hi = values[row, cell], values[row, cell + 1]
    order = k[row]
    root = lo + (hi - lo) * j_lo / (j_lo - j_hi)     # secant start
    active = np.arange(root.size)
    for _ in range(_ROOT_MAX_STEPS):
        if active.size == 0:
            return root
        x, n = root[active], order[active]
        j, j_next = bessel_j(n, x, 2)
        d1 = n / x * j - j_next                       # J_n'
        d2 = -d1 / x - (1.0 - (n / x) ** 2) * j       # Bessel's equation
        step = j / d1 / (1.0 - j * d2 / (2.0 * d1 * d1))
        root[active] = np.clip(x - step, lo[active], hi[active])
        active = active[np.abs(step) > _ROOT_STEP_TOL]
    raise ArithmeticError(f"Bessel roots did not converge for orders "
                          f"{np.unique(order[active])}")


@dataclass(frozen=True, eq=False)
class BasisSpec:
    """Layout of the truncated dictionary as per-column index arrays.

    Columns run over k ascending from -k_max to k_max, then q ascending from
    1 to q_|k|; column i holds the pair (k_arr[i], q_arr[i]).

    Attributes
    ----------
    c, R : bandlimit (cycles/pixel) and support radius (pixels).
    k_max : largest retained angular frequency.
    n_a : total number of coefficients.
    k_arr, q_arr : per-column angular frequency and radial index.
    roots : per-column Bessel root R_{|k|, q}.
    norms : per-column normalization N_{k, q} (even in k).
    """

    c: float
    R: float
    k_max: int
    n_a: int
    k_arr: np.ndarray = field(repr=False)
    q_arr: np.ndarray = field(repr=False)
    roots: np.ndarray = field(repr=False)
    norms: np.ndarray = field(repr=False)


def build_basis_spec(c: float, R: float) -> BasisSpec:
    """Apply the truncation rule and lay out the flat index.

    A pair (k, q) is retained iff R_{|k|, q+1} <= 2*pi*c*R (boundary
    inclusive), so q_k = max{q : R_{k, q+1} <= 2*pi*c*R}.  Columns are
    ordered by k ascending from -k_max to k_max, then q ascending.
    """
    if not (math.isfinite(c) and math.isfinite(R)) or c <= 0 or R <= 0:
        raise ConfigError(f"c and R must be finite and positive, got c={c}, R={R}")
    bound = 2.0 * np.pi * c * R

    # R_{k,s} > k + |a_s| (k/2)^(1/3), a_s the s-th Airy zero (Qu and Wong,
    # Trans. AMS 351, 1999), so q_k >= 1 (R_{k,2} <= bound) needs
    # k + 4.08795 (k/2)^(1/3) <= bound.  Roots of J_k (k >= 1) lie more than
    # pi apart, and R_{0,s} > (s - 1/4) pi, so these counts reach past bound.
    orders = np.arange(int(bound) + 1)
    orders = orders[orders + 4.08795 * np.cbrt(orders / 2.0) <= bound]
    first = orders + 2.33811 * np.cbrt(orders / 2.0)
    counts = ((bound - first) // np.pi).astype(np.int64) + 2
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    order_roots = bessel_roots(orders, counts)
    q_counts = np.add.reduceat(order_roots <= bound, offsets) - 1
    q_counts = q_counts[q_counts >= 1]    # non-increasing in k: a prefix
    if not q_counts.size:
        raise ConfigError(
            f"empty basis: 2*pi*c*R = {bound:.4f} retains no (k, q) pair "
            f"for c={c}, R={R}"
        )
    k_max = len(q_counts) - 1

    orders = np.abs(np.arange(-k_max, k_max + 1))
    k_arr = np.repeat(np.arange(-k_max, k_max + 1), q_counts[orders])
    q_arr = np.concatenate([np.arange(1, q_counts[m] + 1) for m in orders])
    roots = np.concatenate([order_roots[offsets[m]:offsets[m] + q_counts[m]]
                            for m in orders])
    norms = 1.0 / (c * math.sqrt(math.pi)
                   * np.abs(bessel_j(np.abs(k_arr) + 1, roots)[0]))

    return BasisSpec(
        c=float(c),
        R=float(R),
        k_max=k_max,
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
    radial = bessel_j(np.abs(spec.k_arr), args)[0] * spec.norms[None, :]
    radial.setflags(write=False)
    return radial


def eval_basis_matrix(spec: BasisSpec, grid: QuadratureGrid, theta: float) -> np.ndarray:
    """Matrix of psi_{k,q}(xi_j, theta), shape (n_xi, n_a): the radial
    factor steered by exp(i * k * theta) per column."""
    steer = np.exp(1j * spec.k_arr * theta)
    return _radial_matrix(spec, grid) * steer[None, :]


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
    return np.vstack([eval_basis_matrix(spec, grid, kappa * alpha)
                      for kappa in range(-K, K + 1)])


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
    j_next = bessel_j(m + 1, spec.roots)[0][:, None]
    j_beta = bessel_j(0, beta, spec.k_max + 1)[m]  # (n_a, n_pix)
    gap = alpha**2 - beta**2
    near = np.abs(gap) <= 1e-8 * alpha**2
    radial = np.where(near, alpha * j_next**2 / (alpha + beta),
                      alpha * j_next * j_beta / np.where(near, 1.0, gap))

    weights = (coeffs.values * spec.norms * 2.0 * np.pi * spec.c**2
               * np.array([1, 1j, -1, -1j])[m % 4])
    phases = np.exp(1j * np.outer(np.arange(-spec.k_max, spec.k_max + 1), phi))
    image = (radial * phases[spec.k_arr + spec.k_max]).T @ weights
    image = image.reshape(grid_size, grid_size)

    resid = np.max(np.abs(image.imag))
    scale = max(np.max(np.abs(image.real)), 1.0)
    if coeffs.real_symmetric and resid > 1e-10 * scale:
        raise ValueError(f"imaginary residue {resid:.3e} on symmetric coefficients")
    return image.real
