"""Exception hierarchy for the msdiff package.

One class per kind of failure, not per argument that failed:

- ``ValidationError`` is a rejected input: a library argument or a
  configuration value outside its domain, named by its ``key``.
  ``ParseError`` is configuration text that is not ``key=value`` lines.
  The command line maps both to exit 64.
- ``InadmissibleState`` is a state off the composition simplex, or off its
  interior where a kernel needs an interior point.  ``NotSymmetric`` is a
  matrix the symmetric eigensolver cannot take, ``SingularA0`` a reduced
  friction matrix reported singular, which validated mixtures never give.
- ``NonlinearDivergence`` is a failed step attempt, which the time loop
  retries with a halved step; ``SimulationAborted`` is a step that still
  fails after five halvings (exit 1), ``AuditFailure`` a step that failed
  its audit (exit 2).  A run either finishes with every audit passed or
  raises one of the two, whose ``partial`` result ends at the last state
  reached.
- ``InsufficientData`` and ``NonPositiveEntropy`` are decay-rate fits
  without data to fit.
"""

from __future__ import annotations

import math
import numbers


class MsdiffError(Exception):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------------------
# states and matrices


class InadmissibleState(MsdiffError):
    """State off the composition simplex: a negative fraction or fractions
    summing above one, or, where an interior point is needed, a fraction
    (the implied last one too) below ``EPS_ADMISSIBLE``."""


class SingularA0(MsdiffError):
    """Reduced friction matrix reported singular; indicates corrupted input."""


class NotSymmetric(MsdiffError):
    """Matrix handed to the symmetric eigensolver is visibly asymmetric."""


# ---------------------------------------------------------------------------
# time stepping


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
    """A rejected input: ``key`` names the configuration key or library
    argument (``D``, ``species``, ``production``, ``initial``, ``eta_floor``,
    ``c``, ...) whose value lies outside its documented domain, ``reason``
    says why."""

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
