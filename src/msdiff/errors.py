"""Exception hierarchy for the msdiff package.

Construction-time errors signal ill-formed inputs (bad diffusivity matrices,
inadmissible states, malformed configs).  Runtime errors signal solver
breakdown (``SimulationAborted``, once a step's ``NonlinearDivergence``
persists through five step-size halvings) or a step that failed its audit
(``AuditFailure``); a run either finishes with every audit passed or
raises one of them, whose ``partial`` result ends at the last state
reached.  The command line maps the three kinds to the exit codes 64, 1
and 2.
"""

from __future__ import annotations

import math
import numbers


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


class NonlinearDivergence(MsdiffError):
    """A step attempt failed: its iteration spent its budget or failed the
    backtracking after three restarts, or one of its banded solves failed."""


class SimulationAborted(MsdiffError):
    """Time loop gave up after five step-size halvings of one step.

    ``partial`` holds the trajectory up to the last accepted step.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# diagnostics and audits


class InsufficientData(MsdiffError):
    """Too few diagnostics records in the requested fit window."""


class NonPositiveEntropy(MsdiffError):
    """Relative entropy already at the noise floor; no decay rate to fit."""


class AuditFailure(MsdiffError):
    """The per-step audit rejected an accepted step.

    ``partial`` holds the trajectory up to and including that step.
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


def _require_number(key: str, value, integer: bool = False) -> None:
    """Hold a library argument to the config parsers' type rules."""
    if not isinstance(value, numbers.Integral if integer else numbers.Real):
        what = "an integer" if integer else "a number"
        raise ValidationError(key, f"not {what}: {value!r}")
    if not -math.inf < value < math.inf:
        raise ValidationError(key, "must be finite")
