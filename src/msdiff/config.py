"""Line-oriented configuration for batch runs.

A configuration document is UTF-8 text, one ``key=value`` per line, with
blank lines and ``#`` comments ignored.  Diffusivities are given as the
upper triangle of the symmetric matrix in row-major order, so ``species=3``
with ``D=1,2,3`` means D12=1, D13=2, D23=3.  Presets are merged below
explicit keys, and later occurrences of a key win, which gives the layering
defaults < preset < file < command line.  A ``RunConfig`` checks itself
however it is built, under the mixture and grid rules of ``new_mixture_spec``
and ``Grid1D``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError, _require_number
from .grid import Grid1D
from .mixture import (
    MixtureSpec,
    ProductionLaw,
    diffusivity_matrix_from_upper,
    new_mixture_spec,
)
from .scenarios import PRESETS, build_initial


@dataclass(frozen=True)
class SchemeParams:
    """Knobs of the implicit scheme.

    tau            time step
    t_end          final time (the last step is shortened to land on it)
    eps            regularization weight; must be positive to run
    picard_tol     sets only the entropy audit's slack (solver_slack); the
                   inner solve accepts a step on its residual floor alone
    picard_max     total inner-iteration budget per step, restarts included
    eta_floor      initial-data blending weight toward the uniform mixture
    final_polish   has no effect; kept so callers that pass it to
                   ``dataclasses.replace`` keep working

    The first six fields obey their configuration keys' types, ranges and
    messages; running also needs ``eps`` > 0, which certify does not.
    """

    tau: float
    t_end: float
    eps: float = 1e-8
    picard_tol: float = 1e-10
    picard_max: int = 200
    eta_floor: float = 1e-8
    final_polish: bool = True

    def __post_init__(self):
        for key in _SCHEME_KEYS:
            _check(key, getattr(self, key))
        if not self.eps > 0.0:
            raise ValidationError("eps", "must be positive to run a simulation")


@dataclass(frozen=True)
class RunConfig:
    """Settings for one simulation or certification run, checked however
    they are built: each field by its key's type and range, the mixture and
    grid it names by building them (``materialize_spec``, ``Grid1D``).
    ``materialize`` requires ``tau`` and ``t_end`` and checks ``initial``."""

    species: int
    d_upper: tuple[float, ...]
    production: str = "zero"
    length: float = 1.0
    cells: int = 128
    tau: float | None = None
    t_end: float | None = None
    eps: float = SchemeParams.eps
    picard_tol: float = SchemeParams.picard_tol
    picard_max: int = SchemeParams.picard_max
    eta_floor: float = SchemeParams.eta_floor
    initial: str = "uniform"
    scenario: str | None = None
    output_dir: str = "msdiff_out"
    snapshot_every: int = 0
    record_every: int = 1
    audit: str = "enforce"
    seed: int = 0
    samples: int = 1000

    def __post_init__(self):
        for key in _KEYS:
            value = self.d_upper if key == "D" else getattr(self, key)
            if value is not None or key not in ("tau", "t_end", "scenario"):
                _check(key, value)
        materialize_spec(self)
        Grid1D(length=self.length, cells=self.cells)


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value, 10)
    except ValueError as exc:
        raise ValidationError(key, f"not an integer: {value!r}") from exc


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ValidationError(key, f"not a number: {value!r}") from exc


def _parse_d(key: str, value: str) -> tuple[float, ...]:
    return tuple(_parse_float(key, p.strip()) for p in value.split(",") if p.strip())


def _parse_str(key: str, value: str) -> str:
    return value


# key -> (converter, validator or None, reason shown on validation failure)
_KEYS = {
    "species": (_parse_int, None, ""),
    "D": (_parse_d, None, ""),
    "production": (
        _parse_str,
        lambda v: v in ("zero", "quaternary_reversible"),
        "must be 'zero' or 'quaternary_reversible'",
    ),
    "length": (_parse_float, None, ""),
    "cells": (_parse_int, None, ""),
    "tau": (_parse_float, lambda v: v > 0.0, "must be positive"),
    "t_end": (_parse_float, lambda v: v >= 0.0, "must be nonnegative"),
    "eps": (_parse_float, lambda v: v >= 0.0, "must be nonnegative"),
    "picard_tol": (_parse_float, lambda v: v > 0.0, "must be positive"),
    "picard_max": (_parse_int, lambda v: v >= 1, "must be at least 1"),
    "eta_floor": (_parse_float, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "initial": (_parse_str, None, ""),
    "scenario": (_parse_str, None, ""),
    "output_dir": (_parse_str, None, ""),
    "snapshot_every": (_parse_int, lambda v: v >= 0, "must be nonnegative"),
    "record_every": (_parse_int, lambda v: v >= 1, "must be at least 1"),
    "audit": (
        _parse_str,
        lambda v: v in ("enforce", "off"),
        "must be 'enforce' or 'off'",
    ),
    "seed": (_parse_int, lambda v: 0 <= v < 2**64, "must fit in 64 bits"),
    "samples": (_parse_int, lambda v: v >= 0, "must be nonnegative"),
}
_SCHEME_KEYS = ("tau", "t_end", "eps", "picard_tol", "picard_max", "eta_floor")


def _check(key: str, value) -> None:
    """Hold the typed value of ``key`` to its ``_KEYS`` type and range."""
    parse, check, reason = _KEYS[key]
    if parse in (_parse_int, _parse_float):
        _require_number(key, value, integer=parse is _parse_int)
    elif parse is _parse_d:
        if not isinstance(value, tuple):
            raise ValidationError(key, f"not a tuple of numbers: {value!r}")
        for item in value:
            _require_number(key, item)
    elif not isinstance(value, str):
        raise ValidationError(key, f"not a string: {value!r}")
    if check is not None and not check(value):
        raise ValidationError(key, reason)


def scan_config_lines(text: str) -> list[tuple[str, str]]:
    """Split a configuration document into (key, raw value) pairs."""
    pairs: list[tuple[str, str]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(line_no, f"expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError(line_no, "missing key before '='")
        pairs.append((key, value))
    return pairs


def config_from_pairs(pairs: list[tuple[str, str]]) -> RunConfig:
    """Merge raw key=value pairs (later wins) into a validated RunConfig.

    If a scenario is named, its preset values are layered underneath the
    explicit pairs.  Requires at least ``species`` and ``D``; step-time
    keys may stay unset for certification-only configs.
    """
    raw: dict[str, str] = {}
    for key, value in pairs:
        if key not in _KEYS:
            raise ValidationError(key, "unknown key")
        raw[key] = value
    scenario = raw.get("scenario")
    if scenario is not None:
        preset = PRESETS.get(scenario)
        if preset is None:
            known = ", ".join(sorted(PRESETS))
            raise ValidationError("scenario", f"unknown preset (known: {known})")
        merged = dict(preset.values)
        merged.update(raw)
        raw = merged
    for required in ("species", "D"):
        if required not in raw:
            raise ValidationError(required, "required key missing")
    typed = {"d_upper" if k == "D" else k: _KEYS[k][0](k, v) for k, v in raw.items()}
    return RunConfig(**typed)


def materialize_spec(config: RunConfig) -> MixtureSpec:
    """The mixture a configuration names, under the rules of
    ``new_mixture_spec``; ``production`` names a ``ProductionLaw`` builder."""
    law = getattr(ProductionLaw, config.production)()
    D = diffusivity_matrix_from_upper(config.d_upper, config.species)
    return new_mixture_spec(config.species, D, production=law)


def materialize(
    config: RunConfig,
) -> tuple[MixtureSpec, Grid1D, SchemeParams, np.ndarray]:
    """Build the runnable objects a validated configuration describes."""
    spec = materialize_spec(config)
    grid = Grid1D(length=config.length, cells=config.cells)
    for key in ("tau", "t_end"):
        if getattr(config, key) is None:
            raise ValidationError(key, "required to run a simulation")
    params = SchemeParams(**{key: getattr(config, key) for key in _SCHEME_KEYS})
    c0 = build_initial(grid, spec.n_reduced, config.initial)
    return spec, grid, params, c0
