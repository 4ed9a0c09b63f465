"""Entropy bookkeeping, flux closure checks and per-step audits.

Everything the scheme provably guarantees is re-derived here from the
solver's own evaluation of each accepted state, so a run can check itself:
the entropy functional and its dissipation (both the quadratic form
actually damped by the scheme and the square-root lower bound it
dominates), per-species mass balances, strict positivity, flux
reconstruction against the original gradient-flux relations, and the
exponential decay fit of the relative entropy.

One private, unchecked builder, ``_record``, computes the entropy, the
relative entropy and both dissipation forms of a state: it reads all N+1
fractions ``cf`` and the mobilities that the stepper already computed and
checked for the state, and the stepper is its only caller.  What it
computes is public through ``DiagnosticsRecord``, and ``audit_step``
judges it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientData, NonPositiveEntropy, ValidationError
from .grid import Grid1D, divergence, face_gradient, integrate
from .mixture import (
    MixtureSpec,
    full_concentrations,
    _inverse_friction,
    _require_admissible,
    _xlogx,
)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One accepted step's worth of scalar diagnostics; ``relative_entropy``
    is measured against ``reference``, all N+1 fractions of a constant
    composition.  ``masses`` and ``reference`` are read-only."""

    time: float
    entropy: float
    relative_entropy: float
    dissipation_sqrt: float
    dissipation_raw: float
    masses: np.ndarray = field(repr=False)
    min_c: float = 0.0
    picard_iterations: int = 0
    reference: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "masses", np.asarray(self.masses, dtype=float))
        self.masses.setflags(write=False)
        if self.reference is not None:
            self.reference.setflags(write=False)


@dataclass(frozen=True)
class AuditVerdict:
    """Pass/fail flags and margins for the per-step invariant checks.

    Margins are signed distances to the allowed limit: nonnegative means the
    check passed with that much room.  ``passed`` aggregates all flags.
    """

    time: float
    entropy_ok: bool
    entropy_margin: float
    mass_ok: bool
    mass_margin: float
    bounds_ok: bool
    bounds_margin: float
    dissipation_ok: bool
    dissipation_margin: float

    @property
    def passed(self) -> bool:
        return self.entropy_ok and self.mass_ok and self.bounds_ok and self.dissipation_ok


def solver_slack(picard_tol: float, n_reduced: int, cells: int) -> float:
    """Entropy-audit slack granted for finite nonlinear solver tolerance."""
    return 10.0 * picard_tol * n_reduced * cells


def _record(
    grid: Grid1D,
    t: float,
    B: np.ndarray,
    cf: np.ndarray,
    w: np.ndarray,
    reference: np.ndarray,
    iterations: int,
) -> DiagnosticsRecord:
    """The record of the state ``w`` at time ``t``, from its cell
    mobilities ``B`` and all N+1 fractions ``cf``.

    The entropy integrates ``sum_i c_i (log c_i - 1)`` and the relative
    entropy the pointwise Kullback-Leibler divergence ``sum_i c_i log(c_i /
    ref_i)`` from the strictly positive ``reference``, which is nonnegative
    and vanishes exactly at the reference; both read one ``x log x`` of
    ``cf``, with ``0 log 0 = 0``.  The dissipation is taken two ways by face
    quadrature: ``raw`` is the quadratic form ``grad w : B grad w`` with
    face mobilities averaged from the neighboring cells, ``sqrt_form`` is
    ``sum_i |grad sqrt(c_i)|^2`` over all N+1 species from differences of
    cellwise square roots.  The energy estimate bounds ``raw`` from below
    by ``(4 / Delta) * sqrt_form``; ``audit_step`` checks that margin.
    """
    h = grid.h
    xlogx = _xlogx(cf)
    dw = w[1:] - w[:-1]
    B_face = 0.5 * (B[:-1] + B[1:])
    ds = np.sqrt(cf)
    dsqrt = ds[1:] - ds[:-1]
    return DiagnosticsRecord(
        time=t,
        entropy=float(integrate(grid, np.sum(xlogx, axis=-1) - 1.0)),
        relative_entropy=float(
            integrate(grid, np.sum(xlogx - cf * np.log(reference), axis=-1))
        ),
        dissipation_sqrt=float(np.sum(dsqrt * dsqrt)) / h,
        dissipation_raw=float(np.einsum("mi,mij,mj->", dw, B_face, dw)) / h,
        masses=integrate(grid, cf),
        min_c=float(np.min(cf)),
        picard_iterations=iterations,
        reference=reference,
    )


def reconstruct_fluxes(
    spec: MixtureSpec, grid: Grid1D, c: np.ndarray
) -> tuple[np.ndarray, float]:
    """Recover face fluxes from a concentration field and close the loop.

    Interior-face fluxes of the first N species solve the reduced gradient
    relation with face-averaged compositions; the last flux balances them so
    all N+1 sum to zero, and the wall faces carry none.  The returned
    residual is the largest violation of the pairwise friction relations
    ``grad c_i = -sum_j (c_j J_i - c_i J_j) / D_ij`` relative to the gradient
    scale, and should sit at rounding level for any admissible field.

    The fluxes are defined on the closed simplex: A0 is invertible there and
    nothing divides by a fraction, so the field is checked against the
    solver's own floor (``InadmissibleState`` outside the simplex) and a
    species that vanishes somewhere is no error.
    """
    c = _require_admissible(c)
    if c.shape[0] != grid.cells:
        raise ValidationError("c", "concentration field rows must match cells")
    h = grid.h
    n1 = spec.n_species
    c_face = 0.5 * (c[:-1] + c[1:])
    g_red = (c[1:] - c[:-1]) / h
    # averages of admissible states are admissible: no second check
    alpha = _inverse_friction(spec, c_face)
    J_red = -np.einsum("mij,mj->mi", alpha, g_red)
    J = np.zeros((grid.cells + 1, n1))
    J[1:-1, :-1] = J_red
    J[1:-1, -1] = -J_red.sum(axis=-1)
    # close the loop: plug the fluxes back into the full friction relations
    cf_face = full_concentrations(c_face)
    g_full = np.concatenate([g_red, -g_red.sum(axis=-1, keepdims=True)], axis=-1)
    Ji = J[1:-1]
    resid = g_full + Ji * (cf_face @ spec.d) - cf_face * (Ji @ spec.d)
    scale = max(float(np.max(np.abs(g_full))), 1e-300)
    return J, float(np.max(np.abs(resid))) / scale


def fit_decay_rate(
    records: list[DiagnosticsRecord],
    window: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Least-squares exponential decay rate of the relative entropy.

    Fits ``log H*(t)`` linearly over the records inside ``window`` (default:
    the second half of the recorded time span) and returns ``(lambda,
    r_squared)`` with ``lambda`` the negated slope.  Needs at least 10
    records in the window, all with strictly positive relative entropy.
    """
    if not records:
        raise InsufficientData("no records to fit")
    if window is None:
        t0, t1 = records[0].time, records[-1].time
        window = (t0 + 0.5 * (t1 - t0), t1)
    lo, hi = window
    sel = [r for r in records if lo <= r.time <= hi]
    if len(sel) < 10:
        raise InsufficientData(
            f"need >= 10 records in window [{lo:g}, {hi:g}], found {len(sel)}"
        )
    H = np.array([r.relative_entropy for r in sel])
    if np.any(H <= 0.0):
        raise NonPositiveEntropy(
            "relative entropy reached the noise floor inside the fit window"
        )
    t = np.array([r.time for r in sel])
    y = np.log(H)
    slope, intercept = np.polyfit(t, y, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return float(-slope), float(r_squared)


def audit_step(
    spec: MixtureSpec,
    grid: Grid1D,
    tau: float,
    eps: float,
    slack: float,
    prev_record: DiagnosticsRecord,
    new_record: DiagnosticsRecord,
    w_new: np.ndarray,
    *,
    production_integral: np.ndarray | None = None,
) -> AuditVerdict:
    """Check one accepted step against the scheme's proved inequalities.

    ``new_record`` and ``w_new`` are the one description of the new state:
    the record reads all N+1 fractions the solver computed from ``w_new``,
    the last one included.
    Entropy: the new entropy plus the dissipation lower bound and the
    regularization payments must not exceed the previous entropy beyond
    ``slack``; production adds nothing to that budget, because both laws
    meet the entropy sign condition exactly.  Mass: the per-species change
    must match the exact balance ``-eps * tau * integral(w) +
    tau * integral(r)`` to 1e-10.
    Bounds: every fraction, the implied one included, is positive, read
    as ``new_record.min_c > 0``.
    Dissipation: the raw form dominates the square-root form (tol 1e-9).
    The regularization payment applies the Neumann Laplacian as its O(M)
    stencil ``divergence(face_gradient(.))``.
    """
    lap_w = divergence(grid, face_gradient(grid, w_new))
    reg = float(integrate(grid, np.sum(lap_w**2 + w_new**2, axis=-1)))
    lhs = (
        new_record.entropy
        + (4.0 * tau / spec.Delta) * new_record.dissipation_sqrt
        + eps * tau * reg
    )
    entropy_margin = prev_record.entropy + slack - lhs
    w_int = integrate(grid, w_new)
    if production_integral is None:
        production_integral = np.zeros(spec.n_reduced)
    defect = (
        new_record.masses[:-1]
        - prev_record.masses[:-1]
        + eps * tau * w_int
        - tau * production_integral
    )
    mass_margin = 1e-10 - float(np.max(np.abs(defect)))
    bounds_margin = new_record.min_c
    dissipation_margin = (
        new_record.dissipation_raw
        - 4.0 * new_record.dissipation_sqrt / spec.Delta
        + 1e-9
    )
    return AuditVerdict(
        time=new_record.time,
        entropy_ok=entropy_margin >= 0.0,
        entropy_margin=entropy_margin,
        mass_ok=mass_margin >= 0.0,
        mass_margin=mass_margin,
        bounds_ok=bounds_margin > 0.0,
        bounds_margin=bounds_margin,
        dissipation_ok=dissipation_margin >= 0.0,
        dissipation_margin=dissipation_margin,
    )
