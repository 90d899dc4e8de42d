"""Spectral transform of tilt series.

Projection lines are mapped to Fourier values at the radial quadrature nodes
by a direct type-II DFT with the Riemann factor dx, read from the line
phases the simulator shares per (grid, quadrature) pair, so node values
approximate the continuous transform integral and are directly comparable to
tilt-matrix slices.  A SpectralBatch keeps the real records together with
that linear map instead of the node values it would produce.  EM composes
the map into its whitener and the moment route into the map to the QR
coordinates of the features, so neither forms a node spectrum.  The
detector noise is white, sigma2 on each real sample; EM whitens its node
image sigma2 F F^H from one SVD of the node DFT F, so no node-domain noise
block is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import QuadratureGrid
from .errors import ConfigError
from .sim import LineGrid, TiltSeriesBatch, _line_phases

def dft_matrix(grid: LineGrid, quad: QuadratureGrid) -> np.ndarray:
    """F[j, l] = dx * exp(-2i*pi * xi_j * x_l), shape (n_xi, L), a fresh
    array: dx times the conjugate transpose of the simulator's memoized line
    phases, so the node DFT is the adjoint of the line transform."""
    return np.ascontiguousarray(grid.dx * _line_phases(grid, quad)[1].T)


@dataclass(frozen=True)
class SpectralBatch:
    """Records and the linear map that takes each tilt row to node values.

    records has shape (N, 2K+1, m) and is real; to_nodes is the complex
    (n_xi, m) matrix with node spectra records @ to_nodes^T.  Tilt rows are
    ordered by kappa ascending, matching the tilt-matrix row blocks.  sigma2
    is the noise variance of each real detector sample behind the records.
    """

    records: np.ndarray
    to_nodes: np.ndarray
    quad: QuadratureGrid
    grid: LineGrid
    K: int
    alpha: float
    sigma2: float

    def __post_init__(self):
        r = self.records
        if r.ndim != 3 or np.iscomplexobj(r):
            raise ConfigError(f"records must be a real 3-D array, got "
                              f"{r.dtype} of shape {r.shape}")
        if r.shape[1] != 2 * self.K + 1:
            raise ConfigError(f"records tilt axis {r.shape[1]} != 2K+1 = "
                              f"{2 * self.K + 1}")
        if self.to_nodes.shape != (self.quad.n_xi, r.shape[2]):
            raise ConfigError(f"to_nodes shape {self.to_nodes.shape} != "
                              f"(n_xi, m) = {(self.quad.n_xi, r.shape[2])}")

    @property
    def N(self) -> int:
        return self.records.shape[0]


def transform_batch(batch: TiltSeriesBatch, quad: QuadratureGrid) -> SpectralBatch:
    """The line samples as records, with the node DFT as their map."""
    return SpectralBatch(records=batch.samples,
                         to_nodes=dft_matrix(batch.grid, quad), quad=quad,
                         grid=batch.grid, K=batch.K, alpha=batch.alpha,
                         sigma2=batch.sigma2)


def blockwise_mean_outer(Z: np.ndarray) -> np.ndarray:
    """Mean outer product Z^H Z / len(Z) of the rows of a complex Z (N >= 1).

    With Z = U + iV, Z^H Z = U^T U + V^T V + i (U^T V - V^T U), all read
    from W^T W for the interleaved real view W of Z: one real symmetric
    rank-k update, half the work of the complex product.
    """
    W = Z.view(float)
    P = (W.T @ W).reshape(Z.shape[1], 2, Z.shape[1], 2)
    mean_outer = P[:, 0, :, 0] + P[:, 1, :, 1] + 1j * (P[:, 0, :, 1]
                                                       - P[:, 1, :, 0])
    mean_outer /= len(Z)
    return mean_outer
