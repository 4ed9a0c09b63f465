"""Exception hierarchy for the msdiff package.

Construction-time errors signal ill-formed inputs (bad diffusivity matrices,
inadmissible states, malformed configs).  Runtime errors signal solver
breakdown or a violated runtime invariant; the simulation driver distinguishes
the two when mapping failures to process exit codes.
"""

from __future__ import annotations


class MsdiffError(Exception):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------------------
# mixture construction and state validation


class NonSymmetricD(MsdiffError):
    """Binary diffusivity matrix is not symmetric."""


class NonPositiveOffDiagonal(MsdiffError):
    """A binary diffusivity D_ij (i != j) is zero or negative."""


class DimensionMismatch(MsdiffError):
    """Array shape incompatible with the declared species count."""


class NotStrictlyAdmissible(MsdiffError):
    """State touches the boundary of the composition simplex."""


class InadmissibleState(MsdiffError):
    """State has a negative fraction or fractions summing above one."""


class SingularA0(MsdiffError):
    """Reduced friction matrix reported singular; indicates corrupted input."""


class WrongSpeciesCount(MsdiffError):
    """Production law applied to a mixture with the wrong species count."""


class InvalidProductionLaw(MsdiffError):
    """Production law of an unknown ``kind``."""


# ---------------------------------------------------------------------------
# spectral analysis


class NotSymmetric(MsdiffError):
    """Matrix handed to the symmetric eigensolver is visibly asymmetric."""


# ---------------------------------------------------------------------------
# time stepping


class InadmissibleInitialData(MsdiffError):
    """Initial concentrations not inside the closed composition simplex."""


class LinearSolveFailure(MsdiffError):
    """Banded Cholesky solve failed or left a large residual."""


class NonlinearDivergence(MsdiffError):
    """Per-step fixed-point iteration exhausted its budget without converging.

    Carries the increment history of the failed attempt.
    """

    def __init__(self, message: str, increments: list[float] | None = None):
        super().__init__(message)
        self.increments = list(increments or [])


class SimulationAborted(MsdiffError):
    """Time loop gave up after repeated step-size halving.

    ``partial`` holds the trajectory accumulated before the failure.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# diagnostics and audits


class InconsistentFields(MsdiffError):
    """Concentration and entropy-variable fields disagree."""


class BadReference(MsdiffError):
    """Reference composition for the relative entropy is not a valid state."""


class InsufficientData(MsdiffError):
    """Too few diagnostics records in the requested fit window."""


class NonPositiveEntropy(MsdiffError):
    """Relative entropy already at the noise floor; no decay rate to fit."""


class AuditError(MsdiffError):
    """A runtime invariant check failed beyond its allowed slack."""


class DissipationContractViolation(AuditError):
    """Raw entropy dissipation fell below its square-root lower bound."""


class AuditFailure(AuditError):
    """Enforcing per-step audit rejected an accepted step.

    ``partial`` holds the trajectory accumulated before the failure.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# configuration


class ParseError(MsdiffError):
    """Config text is syntactically malformed.  Carries the line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(MsdiffError):
    """Config key holds a value outside its documented domain."""

    def __init__(self, key: str, reason: str):
        super().__init__(f"{key}: {reason}")
        self.key = key
        self.reason = reason
