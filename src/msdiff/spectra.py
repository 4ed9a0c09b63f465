"""Spectral certificates for the friction matrices.

Every nonzero eigenvalue of the full friction matrix -A(c), and every
eigenvalue of the reduced matrix A0(c), is provably real and confined to the
half-open band ``[delta, Delta)`` derived from the friction coefficients; the
zero eigenvalue of -A is simple.  This module computes the spectra and
packages the band membership checks as reports, so a run (or the ``certify``
CLI command) can verify the claims numerically instead of trusting them.

Backend choices, both standard LAPACK routines: the symmetric path uses the
tridiagonal-reduction eigensolver behind ``numpy.linalg.eigvalsh``; the
reduced matrix, which is not symmetric, goes through the Hessenberg QR solver
behind ``numpy.linalg.eigvals`` and asserts that the computed spectrum is
real to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotSymmetric
from .mixture import (
    MixtureSpec,
    friction_matrix,
    friction_matrix_symmetric,
    full_concentrations,
    reduced_friction_matrix,
)


@dataclass(frozen=True)
class SpectrumReport:
    """Computed spectrum of a friction matrix plus its band certificate.

    ``eigenvalues`` are sorted ascending.  ``zero_multiplicity`` counts
    eigenvalues within ``tol`` of zero; ``in_band`` states whether every
    other eigenvalue lies in ``[delta - tol, Delta)``.  The upper edge is
    checked strictly: a borderline eigenvalue at ``Delta`` flips the flag
    rather than raising, leaving the caller to decide.
    """

    eigenvalues: np.ndarray = field(repr=False)
    zero_multiplicity: int = 0
    in_band: bool = False
    delta: float = 0.0
    Delta: float = 0.0
    tol: float = 0.0

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)


def symmetric_spectrum(M: np.ndarray, sym_tol: float = 1e-8) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending.

    Rejects matrices whose asymmetry exceeds ``sym_tol`` (absolute, scaled by
    ``max(1, |M|_max)``); smaller asymmetries are averaged away before the
    solve so the backend sees an exactly symmetric input.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.max(np.abs(M))))
    asym = float(np.max(np.abs(M - M.T)))
    if asym > sym_tol * scale:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds tolerance")
    return np.linalg.eigvalsh(0.5 * (M + M.T))


def _band_tol(spec: MixtureSpec, tol: float | None) -> float:
    return 1e-9 * spec.Delta if tol is None else tol


def certify_friction_spectrum(
    spec: MixtureSpec, c: np.ndarray, tol: float | None = None
) -> SpectrumReport:
    """Report on the spectrum of -A(c) for an interior state.

    Computed through the symmetric similarity transform, so the certified
    claims are: exactly one eigenvalue at zero (within ``tol``), all others
    inside ``[delta - tol, Delta)``.  With ``tol == 0`` the zero eigenvalue
    is detected structurally instead, by checking the known kernel vector
    ``A(c) @ c_full == 0`` exactly, and the eigenvalue nearest zero stands
    in for it in the band check.
    """
    tol = _band_tol(spec, tol)
    vals = symmetric_spectrum(-friction_matrix_symmetric(spec, c))
    if tol > 0.0:
        zero_mask = np.abs(vals) <= tol
    else:
        cf = full_concentrations(c)
        residual = float(np.max(np.abs(friction_matrix(spec, c) @ cf[..., None])))
        zero_mask = np.zeros(len(vals), dtype=bool)
        if residual == 0.0:
            zero_mask[int(np.argmin(np.abs(vals)))] = True
        else:
            zero_mask = vals == 0.0
    rest = vals[~zero_mask]
    in_band = bool(np.all(rest >= spec.delta - tol) and np.all(rest < spec.Delta))
    return SpectrumReport(
        eigenvalues=vals,
        zero_multiplicity=int(np.count_nonzero(zero_mask)),
        in_band=in_band,
        delta=spec.delta,
        Delta=spec.Delta,
        tol=tol,
    )


def certify_reduced_spectrum(
    spec: MixtureSpec, c: np.ndarray, tol: float | None = None
) -> SpectrumReport:
    """Report on the spectrum of A0(c), valid on the closed simplex.

    Uses the general Hessenberg QR eigensolver (A0 is not symmetric) and
    insists the computed eigenvalues are real up to ``tol``; the provable
    statement is that they all sit inside ``[delta - tol, Delta)`` with no
    zero among them.
    """
    tol = _band_tol(spec, tol)
    vals = np.linalg.eigvals(reduced_friction_matrix(spec, c))
    max_imag = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
    if max_imag > max(tol, 1e-12 * max(1.0, spec.Delta)):
        raise NotSymmetric(
            f"reduced spectrum has imaginary parts up to {max_imag:.3e}; "
            "it is provably real, so the input state must be corrupted"
        )
    vals = np.sort(vals.real)
    zero_mult = int(np.count_nonzero(np.abs(vals) <= tol))
    rest = vals[np.abs(vals) > tol]
    in_band = bool(np.all(rest >= spec.delta - tol) and np.all(rest < spec.Delta))
    return SpectrumReport(
        eigenvalues=vals,
        zero_multiplicity=zero_mult,
        in_band=in_band,
        delta=spec.delta,
        Delta=spec.Delta,
        tol=tol,
    )
