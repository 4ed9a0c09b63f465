"""Initial-data builders and the bundled scenario presets.

Initial profiles are described by short strings so they can live in
configuration files: "uniform", "uniform:v1,...,vN", "cosine:A" and
"step:l1,...,lN;r1,...,rN".  Values always list the first N species; the
last fraction is implied.  Presets are plain key=value overlays in the
same vocabulary as configuration files, layered below any file or
command-line settings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import Grid1D


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    values: dict[str, str]


def _parse_values(text: str, n_reduced: int, what: str) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n_reduced:
        raise ValidationError(
            "initial", f"{what} must list {n_reduced} fractions, got {len(parts)}"
        )
    try:
        vals = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ValidationError("initial", f"{what}: {exc}") from exc
    if np.any(vals < 0.0) or vals.sum() > 1.0 + 1e-12:
        raise ValidationError(
            "initial", f"{what} must be nonnegative with sum at most 1"
        )
    return vals


def uniform_profile(grid: Grid1D, values: np.ndarray) -> np.ndarray:
    """Spatially constant composition."""
    return np.tile(np.asarray(values, dtype=float), (grid.cells, 1))


def cosine_profile(grid: Grid1D, n_reduced: int, amplitude: float) -> np.ndarray:
    """Equal mixture with a smooth single-mode exchange between species 1 and 2.

    The perturbation ``amplitude * cos(pi x / length)`` is added to the first
    species and subtracted from the second, so cell sums are untouched and
    the profile is compatible with zero-flux walls.
    """
    n1 = n_reduced + 1
    if not 0.0 <= amplitude < 1.0 / n1:
        raise ValidationError("initial", f"cosine amplitude must lie in [0, 1/{n1})")
    base = np.full((grid.cells, n_reduced), 1.0 / n1)
    mode = amplitude * np.cos(np.pi * grid.centers / grid.length)
    base[:, 0] += mode
    base[:, 1] -= mode
    return base


def step_profile(grid: Grid1D, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Two half-domains with different compositions, split at the midpoint."""
    c = np.empty((grid.cells, len(left)))
    lower = grid.centers < 0.5 * grid.length
    c[lower] = np.asarray(left, dtype=float)
    c[~lower] = np.asarray(right, dtype=float)
    return c


def build_initial(grid: Grid1D, n_reduced: int, text: str) -> np.ndarray:
    """Turn an initial-profile string into a concentration field."""
    tag, _, arg = text.partition(":")
    tag = tag.strip()
    if tag == "uniform":
        if arg:
            values = _parse_values(arg, n_reduced, "uniform profile")
        else:
            values = np.full(n_reduced, 1.0 / (n_reduced + 1))
        return uniform_profile(grid, values)
    if tag == "cosine":
        if not arg:
            raise ValidationError("initial", "cosine profile needs an amplitude")
        try:
            amplitude = float(arg)
        except ValueError as exc:
            raise ValidationError("initial", f"bad cosine amplitude: {arg!r}") from exc
        return cosine_profile(grid, n_reduced, amplitude)
    if tag == "step":
        halves = arg.split(";")
        if len(halves) != 2:
            raise ValidationError(
                "initial", "step profile needs two compositions separated by ';'"
            )
        left = _parse_values(halves[0], n_reduced, "step left half")
        right = _parse_values(halves[1], n_reduced, "step right half")
        return step_profile(grid, left, right)
    raise ValidationError("initial", f"unknown profile {tag!r}")


def heat_analytic(
    grid: Grid1D, n_reduced: int, amplitude: float, diffusivity: float, t: float
) -> np.ndarray:
    """Exact cosine-profile solution when every binary diffusivity is equal.

    With equal diffusivities the reduced flux relation collapses to Fick's
    law with the common coefficient, so each species solves an independent
    heat equation and the single cosine mode decays exponentially: the
    solution is the cosine profile of the decayed amplitude.
    """
    rate = diffusivity * (np.pi / grid.length) ** 2
    return cosine_profile(grid, n_reduced, amplitude * np.exp(-rate * t))


# All presets share the unit interval, 128 cells, tau = 1e-3 and eps = 1e-8.
PRESETS: dict[str, Preset] = {
    "heat_check": Preset(
        name="heat_check",
        description=(
            "three species, equal diffusivities, cosine perturbation; "
            "reduces to decoupled heat equations with a known solution"
        ),
        values={
            "species": "3",
            "D": "1,1,1",
            "production": "zero",
            "length": "1.0",
            "cells": "128",
            "tau": "1e-3",
            "t_end": "0.1",
            "eps": "1e-8",
            "initial": "cosine:0.2",
        },
    ),
    "ternary_uphill": Preset(
        name="ternary_uphill",
        description=(
            "three species with strongly unequal diffusivities and step "
            "initial data; exhibits transient uphill diffusion"
        ),
        values={
            "species": "3",
            "D": "0.0833,0.680,0.168",
            "production": "zero",
            "length": "1.0",
            "cells": "128",
            "tau": "1e-3",
            "t_end": "2.0",
            "eps": "1e-8",
            "initial": "step:0,0.5;0.5,0.5",
        },
    ),
    "quaternary_reaction": Preset(
        name="quaternary_reaction",
        description=(
            "five species with a reversible pair-exchange reaction driving "
            "a spatially uniform state to chemical equilibrium"
        ),
        values={
            "species": "5",
            "D": "1,2,1,1,1,2,1,1,1,1",
            "production": "quaternary_reversible",
            "length": "1.0",
            "cells": "128",
            "tau": "1e-3",
            "t_end": "1.0",
            "eps": "1e-8",
            "initial": "uniform:0.3,0.15,0.1,0.25",
        },
    ),
}
