"""Spectral transform of tilt series.

Projection lines are mapped to Fourier values at the radial quadrature nodes
by a direct type-II DFT with the Riemann factor dx, read from the line
phases the simulator shares per (grid, quadrature) pair, so node values
approximate the continuous transform integral and are directly comparable to
tilt-matrix slices.  A SpectralBatch is a batch with its quadrature, not
the node values it would produce: EM composes the node DFT into its
whitener and the moment route into the map to the QR coordinates of the
features, so neither forms a node spectrum.  The detector noise is white,
sigma2 on each real sample; EM whitens its node image sigma2 F F^H from one
SVD of the node DFT F, so no node-domain noise block is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import QuadratureGrid
from .sim import BatchFile, LineGrid, TiltSeriesBatch, _line_phases

def dft_matrix(grid: LineGrid, quad: QuadratureGrid) -> np.ndarray:
    """F[j, l] = dx * exp(-2i*pi * xi_j * x_l), shape (n_xi, L), a fresh
    array: dx times the conjugate transpose of the simulator's memoized line
    phases, so the node DFT is the adjoint of the line transform."""
    return np.ascontiguousarray(grid.dx * _line_phases(grid, quad)[1].T)


@dataclass(frozen=True)
class SpectralBatch:
    """A tilt-series batch with the quadrature its lines are read at; the
    node spectra of its samples are samples @ dft_matrix(batch.grid,
    quad)^T, which the package never forms.  batch may also be an open
    BatchFile, whose records a pass over the file feeds to EM."""

    batch: TiltSeriesBatch | BatchFile
    quad: QuadratureGrid


def transform_batch(batch: TiltSeriesBatch, quad: QuadratureGrid) -> SpectralBatch:
    """The batch, read at the nodes of quad."""
    return SpectralBatch(batch=batch, quad=quad)


def blockwise_mean_outer(Z: np.ndarray, n: int | None = None) -> np.ndarray:
    """Z^H Z / n for the rows of a complex Z, n = len(Z) >= 1 by default:
    the mean outer product of the rows, or, with n the rows of a whole
    batch, the share of its mean that the block Z adds.

    With Z = U + iV, Z^H Z = U^T U + V^T V + i (U^T V - V^T U), all read
    from W^T W for the interleaved real view W of Z: one real symmetric
    rank-k update, half the work of the complex product.
    """
    W = Z.view(float)
    P = (W.T @ W).reshape(Z.shape[1], 2, Z.shape[1], 2)
    mean_outer = P[:, 0, :, 0] + P[:, 1, :, 1] + 1j * (P[:, 0, :, 1]
                                                       - P[:, 1, :, 0])
    mean_outer /= len(Z) if n is None else n
    return mean_outer
