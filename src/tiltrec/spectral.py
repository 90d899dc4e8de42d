"""Spectral transform of tilt series and the noise covariance it induces.

Projection lines are mapped to Fourier values at the radial quadrature nodes
by a direct type-II DFT with the Riemann factor dx, so node values
approximate the continuous transform integral and are directly comparable to
tilt-matrix slices.  The detector noise is white, sigma2 on each real
sample: moment debiasing subtracts it from the diagonal of the line-sample
second moment, and only EM's whitening needs its node-domain block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import QuadratureGrid
from .errors import ConfigError
from .sim import LineGrid, TiltSeriesBatch

def dft_matrix(grid: LineGrid, quad: QuadratureGrid) -> np.ndarray:
    """F[j, l] = dx * exp(-2i*pi * xi_j * x_l), shape (n_xi, L)."""
    return grid.dx * np.exp(
        -2j * np.pi * np.outer(quad.nodes, grid.positions)
    )


@dataclass(frozen=True)
class SpectralBatch:
    """Transformed records: row i concatenates the per-tilt node vectors.

    yhat has shape (N, (2K+1)*n_xi); tilt blocks are ordered by kappa
    ascending, matching the tilt-matrix row blocks.  sigma2 is the noise
    variance of each real detector sample behind the records.
    """

    yhat: np.ndarray
    quad: QuadratureGrid
    grid: LineGrid
    K: int
    alpha: float
    sigma2: float

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
    # (N, n_tilt, L) @ (L, n_xi) -> (N, n_tilt, n_xi) as two real products,
    # so the samples are never cast to complex; then flatten tilts
    yhat = np.empty((N, n_tilt, quad.n_xi), dtype=complex)
    yhat.real[...] = batch.samples @ F.real.T
    yhat.imag[...] = batch.samples @ F.imag.T
    return SpectralBatch(yhat=yhat.reshape(N, n_tilt * quad.n_xi), quad=quad,
                         grid=batch.grid, K=batch.K, alpha=batch.alpha,
                         sigma2=batch.sigma2)


def noise_covariance(sigma2: float, grid: LineGrid, quad: QuadratureGrid) -> np.ndarray:
    """Per-tilt node noise block
    block[j1, j2] = sigma2 * dx^2 * sum_l exp(-2i*pi*(xi_j1 - xi_j2)*x_l).

    Equals sigma2 * F F^H for the node-DFT matrix F, hence Hermitian positive
    semidefinite by construction; symmetrized to kill rounding skew.
    """
    if sigma2 < 0:
        raise ConfigError(f"sigma2 must be >= 0, got {sigma2}")
    F = dft_matrix(grid, quad)
    block = sigma2 * (F @ F.conj().T)
    return 0.5 * (block + block.conj().T)


def blockwise_mean_outer(y: np.ndarray) -> np.ndarray:
    """Mean outer product of real records (N >= 1), as one y^T y scaled in
    place."""
    mean_outer = y.T @ y
    mean_outer /= len(y)
    return mean_outer
