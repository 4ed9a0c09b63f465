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

from .errors import NotSymmetric, ValidationError
from .mixture import MixtureSpec, friction_matrix_symmetric, reduced_friction_matrix


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


def symmetric_spectrum(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending.

    Rejects matrices whose asymmetry exceeds 1e-8 (absolute, scaled by
    ``max(1, |M|_max)``); smaller asymmetries are averaged away before the
    solve so the backend sees an exactly symmetric input.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("M", f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.abs(M).max()))
    asym = float(np.abs(M - M.T).max())
    if asym > 1e-8 * scale:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds tolerance")
    return np.linalg.eigvalsh(0.5 * (M + M.T))


def certify_friction_spectrum(spec: MixtureSpec, c: np.ndarray) -> SpectrumReport:
    """Report on the spectrum of -A(c) for an interior state.

    Computed through the symmetric similarity transform, so the certified
    claims are: exactly one eigenvalue at zero (within ``tol = 1e-9 *
    Delta``), all others inside ``[delta - tol, Delta)``.
    """
    return _band_report(
        spec, symmetric_spectrum(-friction_matrix_symmetric(spec, c))
    )


def certify_reduced_spectrum(spec: MixtureSpec, c: np.ndarray) -> SpectrumReport:
    """Report on the spectrum of A0(c), valid on the closed simplex.

    Uses the general Hessenberg QR eigensolver (A0 is not symmetric) and
    insists the computed eigenvalues are real up to ``tol = 1e-9 * Delta``;
    the provable statement is that they all sit inside
    ``[delta - tol, Delta)`` with no zero among them.
    """
    return _band_report(spec, _reduced_spectra(spec, reduced_friction_matrix(spec, c)))


def _reduced_spectra(spec: MixtureSpec, A0: np.ndarray) -> np.ndarray:
    """Sorted real spectra of the reduced friction matrices ``A0``, one
    ``(N, N)`` matrix or a stack of them, from one eigensolver call."""
    vals = np.linalg.eigvals(A0)
    max_imag = np.abs(vals.imag).max(initial=0.0)
    if max_imag > max(1e-9 * spec.Delta, 1e-12 * max(1.0, spec.Delta)):
        raise NotSymmetric(
            f"reduced spectrum has imaginary parts up to {max_imag:.3e}; "
            "it is provably real, so the input state must be corrupted"
        )
    return np.sort(vals.real)


def _band_report(spec: MixtureSpec, vals: np.ndarray) -> SpectrumReport:
    """Zero count and band test of the sorted real spectrum ``vals``."""
    zeros, in_band = _band_test(spec, vals.tolist())
    return SpectrumReport(
        eigenvalues=vals,
        zero_multiplicity=zeros,
        in_band=in_band,
        delta=spec.delta,
        Delta=spec.Delta,
        tol=1e-9 * spec.Delta,
    )


def _band_test(spec: MixtureSpec, vals: list[float]) -> tuple[int, bool]:
    """Zero count and band flag of one spectrum in plain floats; a NaN
    fails the band test."""
    tol = 1e-9 * spec.Delta
    low = spec.delta - tol
    zeros = 0
    in_band = True
    for v in vals:
        if abs(v) <= tol:
            zeros += 1
        elif not low <= v < spec.Delta:
            in_band = False
    return zeros, in_band
