"""Line-oriented configuration for batch runs.

A configuration document is UTF-8 text, one ``key=value`` per line, with
blank lines and ``#`` comments ignored.  Diffusivities are given as the
upper triangle of the symmetric matrix in row-major order, so ``species=3``
with ``D=1,2,3`` means D12=1, D13=2, D23=3.  Presets are merged below
explicit keys, and later occurrences of a key win, which gives the layering
defaults < preset < file < command line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .grid import Grid1D
from .mixture import (
    MixtureSpec,
    ProductionLaw,
    diffusivity_matrix_from_upper,
    new_mixture_spec,
)
from .scenarios import PRESETS, build_initial
from .stepper import SchemeParams


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for one simulation or certification run."""

    species: int
    d_upper: tuple[float, ...]
    production: str = "zero"
    length: float = 1.0
    cells: int = 128
    tau: float | None = None
    t_end: float | None = None
    eps: float = 1e-8
    picard_tol: float = 1e-10
    picard_max: int = 200
    eta_floor: float = 1e-8
    initial: str = "uniform"
    scenario: str | None = None
    output_dir: str = "msdiff_out"
    snapshot_every: int = 0
    record_every: int = 1
    audit: str = "enforce"
    seed: int = 0
    samples: int = 1000


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value, 10)
    except ValueError as exc:
        raise ValidationError(key, f"not an integer: {value!r}") from exc


def _parse_float(key: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError as exc:
        raise ValidationError(key, f"not a number: {value!r}") from exc
    if not np.isfinite(out):
        raise ValidationError(key, "must be finite")
    return out


def _parse_d(key: str, value: str) -> tuple[float, ...]:
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ValidationError(key, "empty diffusivity list")
    out = tuple(_parse_float(key, p) for p in parts)
    if any(v <= 0.0 for v in out):
        raise ValidationError(key, "diffusivities must be positive")
    return out


# key -> (converter, validator or None, reason shown on validation failure)
_KEYS = {
    "species": (_parse_int, lambda v: v >= 3, "needs at least 3 species"),
    "D": (_parse_d, None, ""),
    "production": (
        lambda k, v: v,
        lambda v: v in ("zero", "quaternary_reversible"),
        "must be 'zero' or 'quaternary_reversible'",
    ),
    "length": (_parse_float, lambda v: v > 0.0, "must be positive"),
    "cells": (_parse_int, lambda v: v >= 2, "needs at least 2 cells"),
    "tau": (_parse_float, lambda v: v > 0.0, "must be positive"),
    "t_end": (_parse_float, lambda v: v >= 0.0, "must be nonnegative"),
    "eps": (_parse_float, lambda v: v >= 0.0, "must be nonnegative"),
    "picard_tol": (_parse_float, lambda v: v > 0.0, "must be positive"),
    "picard_max": (_parse_int, lambda v: v >= 1, "must be at least 1"),
    "eta_floor": (_parse_float, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "initial": (lambda k, v: v, None, ""),
    "scenario": (lambda k, v: v, None, ""),
    "output_dir": (lambda k, v: v, None, ""),
    "snapshot_every": (_parse_int, lambda v: v >= 0, "must be nonnegative"),
    "record_every": (_parse_int, lambda v: v >= 1, "must be at least 1"),
    "audit": (
        lambda k, v: v,
        lambda v: v in ("enforce", "off"),
        "must be 'enforce' or 'off'",
    ),
    "seed": (_parse_int, lambda v: 0 <= v < 2**64, "must fit in 64 bits"),
    "samples": (_parse_int, lambda v: v >= 0, "must be nonnegative"),
}


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
    typed: dict[str, object] = {}
    for key, value in raw.items():
        convert, check, reason = _KEYS[key]
        parsed = convert(key, value)
        if check is not None and not check(parsed):
            raise ValidationError(key, reason)
        typed["d_upper" if key == "D" else key] = parsed
    for required in ("species", "d_upper"):
        if required not in typed:
            raise ValidationError(
                "D" if required == "d_upper" else required, "required key missing"
            )
    n1 = typed["species"]
    expected = n1 * (n1 - 1) // 2
    if len(typed["d_upper"]) != expected:
        raise ValidationError(
            "D",
            f"{n1} species need {expected} upper-triangle entries, "
            f"got {len(typed['d_upper'])}",
        )
    if typed.get("production") == "quaternary_reversible" and n1 != 5:
        raise ValidationError(
            "production", "the quaternary reversible law needs species=5"
        )
    return RunConfig(**typed)


def materialize_spec(config: RunConfig) -> MixtureSpec:
    """Build just the mixture description of a configuration."""
    if config.production == "quaternary_reversible":
        law = ProductionLaw.quaternary_reversible()
    else:
        law = ProductionLaw.zero()
    D = diffusivity_matrix_from_upper(config.d_upper, config.species)
    return new_mixture_spec(config.species, D, production=law)


def materialize(
    config: RunConfig,
) -> tuple[MixtureSpec, Grid1D, SchemeParams, np.ndarray]:
    """Build the runnable objects a validated configuration describes."""
    spec = materialize_spec(config)
    grid = Grid1D(length=config.length, cells=config.cells)
    if config.tau is None:
        raise ValidationError("tau", "required to run a simulation")
    if config.t_end is None:
        raise ValidationError("t_end", "required to run a simulation")
    if not config.eps > 0.0:
        raise ValidationError("eps", "must be positive to run a simulation")
    params = SchemeParams(
        tau=config.tau,
        t_end=config.t_end,
        eps=config.eps,
        picard_tol=config.picard_tol,
        picard_max=config.picard_max,
        eta_floor=config.eta_floor,
    )
    c0 = build_initial(grid, spec.n_reduced, config.initial)
    return spec, grid, params, c0
