"""Spectral transform of tilt series and the exact noise covariance.

Projection lines are mapped to Fourier values at the radial quadrature nodes
by a direct type-II DFT with the Riemann factor dx, so node values
approximate the continuous transform integral and are directly comparable to
tilt-matrix slices.  The induced noise covariance of a transformed pure-noise
line is known in closed form and is block diagonal over tilts; it feeds both
moment debiasing and EM whitening.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import QuadratureGrid
from .errors import ConfigError
from .sim import LineGrid, TiltSeriesBatch

# fixed record-block size for pairwise reduction (here and in the EM M-step);
# keeps accumulation order (hence bits) independent of how records would be
# distributed over workers
_REDUCE_BLOCK = 1024


def dft_matrix(grid: LineGrid, quad: QuadratureGrid) -> np.ndarray:
    """F[j, l] = dx * exp(-2i*pi * xi_j * x_l), shape (n_xi, L)."""
    return grid.dx * np.exp(
        -2j * np.pi * np.outer(quad.nodes, grid.positions)
    )


@dataclass(frozen=True)
class SpectralBatch:
    """Transformed records: row i concatenates the per-tilt node vectors.

    yhat has shape (N, (2K+1)*n_xi); tilt blocks are ordered by kappa
    ascending, matching the tilt-matrix row blocks.
    """

    yhat: np.ndarray
    quad: QuadratureGrid
    grid: LineGrid
    K: int
    alpha: float

    def __post_init__(self):
        width = (2 * self.K + 1) * self.quad.n_xi
        if self.yhat.ndim != 2 or self.yhat.shape[1] != width:
            raise ConfigError(
                f"yhat shape {self.yhat.shape} inconsistent with "
                f"(2K+1)*n_xi = {width}"
            )

    @property
    def N(self) -> int:
        return self.yhat.shape[0]


def transform_batch(batch: TiltSeriesBatch, quad: QuadratureGrid) -> SpectralBatch:
    """Node DFT of every (record, tilt) line, concatenated per record."""
    F = dft_matrix(batch.grid, quad)
    N, n_tilt, L = batch.samples.shape
    # (N, n_tilt, L) @ (L, n_xi) -> (N, n_tilt, n_xi), then flatten tilts
    yhat = (batch.samples @ F.T).reshape(N, n_tilt * quad.n_xi)
    return SpectralBatch(
        yhat=yhat, quad=quad, grid=batch.grid, K=batch.K, alpha=batch.alpha
    )


@dataclass(frozen=True)
class NoiseModel:
    """Per-tilt noise covariance block; the full covariance is this block
    repeated 2K+1 times on the diagonal (noise independent across tilts)."""

    sigma2: float
    block: np.ndarray

    @property
    def n_xi(self) -> int:
        return self.block.shape[0]


def noise_covariance(
    sigma2: float, grid: LineGrid, quad: QuadratureGrid, K: int
) -> NoiseModel:
    """block[j1, j2] = sigma2 * dx^2 * sum_l exp(-2i*pi*(xi_j1 - xi_j2)*x_l).

    Equals sigma2 * F F^H for the node-DFT matrix F, hence Hermitian positive
    semidefinite by construction; symmetrized to kill rounding skew.
    """
    if sigma2 < 0:
        raise ConfigError(f"sigma2 must be >= 0, got {sigma2}")
    F = dft_matrix(grid, quad)
    block = sigma2 * (F @ F.conj().T)
    block = 0.5 * (block + block.conj().T)
    return NoiseModel(sigma2=float(sigma2), block=block)


def blockwise_mean_outer(yhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean row and mean outer product, accumulated in fixed record blocks.

    Per-block partial sums are combined in index order, so the result does
    not depend on any worker partitioning of the records.
    """
    N, width = yhat.shape
    sum_mu = np.zeros(width, dtype=complex)
    sum_outer = np.zeros((width, width), dtype=complex)
    for start in range(0, N, _REDUCE_BLOCK):
        chunk = yhat[start : start + _REDUCE_BLOCK]
        sum_mu += chunk.sum(axis=0)
        sum_outer += chunk.T @ chunk.conj()
    return sum_mu / N, sum_outer / N
