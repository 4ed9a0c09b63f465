"""Cell-centered finite-volume operators on a uniform 1D interval.

Fields live at the ``M`` cell centers ``x_m = (m + 1/2) h``; fluxes and
gradients live at the ``M + 1`` faces, with the two boundary faces pinned to
zero (homogeneous Neumann walls).  Quadrature is the midpoint rule.  The
divergence is the exact negative adjoint of the face gradient under these
inner products, which is what makes summation-by-parts identities hold to
rounding in the energy estimates downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _require_number


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid: interval length and cell count."""

    length: float
    cells: int

    def __post_init__(self):
        _require_number("length", self.length)
        _require_number("cells", self.cells, integer=True)
        if not self.length > 0.0:
            raise ValidationError("length", "must be positive")
        if self.cells < 2:
            raise ValidationError("cells", "need at least 2 cells")
        h2 = self.h * self.h  # the Laplacian's bands scale as 1/h**2
        if not (0.0 < h2 < math.inf and 1.0 / h2 < math.inf):
            raise ValidationError(
                "length", f"cell width {self.h:g}: h**2 and 1/h**2 must be finite"
            )

    @property
    def h(self) -> float:
        return self.length / self.cells

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.cells) + 0.5) * self.h


def _check_cells(grid: Grid1D, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape[0] != grid.cells:
        raise ValidationError(
            "f", f"cell field must have {grid.cells} rows, got {f.shape[0]}"
        )
    return f


def face_gradient(grid: Grid1D, f: np.ndarray) -> np.ndarray:
    """Two-point difference quotients at faces; zero at the two walls.

    ``f`` is ``(M,)`` or ``(M, k)``; the result gains one row.
    """
    f = _check_cells(grid, f)
    out = np.zeros((grid.cells + 1,) + f.shape[1:])
    out[1:-1] = (f[1:] - f[:-1]) / grid.h
    return out


def divergence(grid: Grid1D, flux: np.ndarray) -> np.ndarray:
    """Per-cell face-flux balance ``(flux[m+1] - flux[m]) / h``."""
    flux = np.asarray(flux, dtype=float)
    if flux.shape[0] != grid.cells + 1:
        raise ValidationError(
            "flux", f"face field must have {grid.cells + 1} rows, got {flux.shape[0]}"
        )
    return (flux[1:] - flux[:-1]) / grid.h


def laplacian_squared_lower_bands(grid: Grid1D) -> tuple[np.ndarray, ...]:
    """Lower diagonals (offsets 0, 1, 2) of the squared Neumann Laplacian.

    The Laplacian L is the matrix of ``divergence(face_gradient(.))``: main
    diagonal d with ``-2/h^2`` inside and ``-1/h^2`` at the two walls, off
    diagonals e of ``1/h^2``.  The square is pentadiagonal and symmetric,
    so these three bands define it; the implicit stepper assembles its
    fourth-order regularization term from them directly in banded storage.
    The diagonal sums its terms in column order, ``(e[m-1]**2 + d[m]**2) +
    e[m]**2``, the order of a sparse row-times-column product, so the bands
    are bitwise those of ``scipy.sparse``'s ``L @ L``.
    """
    d = np.full(grid.cells, -2.0 / grid.h**2)
    d[[0, -1]] = -1.0 / grid.h**2
    e = np.full(grid.cells - 1, 1.0 / grid.h**2)
    l0 = d * d
    l0[1:] = e * e + l0[1:]
    l0[:-1] += e * e
    return (l0, e * d[:-1] + d[1:] * e, e[1:] * e[:-1])


def integrate(grid: Grid1D, f: np.ndarray) -> np.ndarray | float:
    """Midpoint-rule integral over the interval: ``h * sum`` along axis 0."""
    f = _check_cells(grid, f)
    total = f.sum(axis=0) * grid.h
    return float(total) if np.ndim(total) == 0 else total
