"""Batch command-line front end.

Three subcommands: ``run`` executes one simulation and writes CSV/JSON
artifacts, ``certify`` samples random admissible states and certifies the
spectral and definiteness claims for a mixture, ``presets`` lists the
bundled scenarios.  All floating-point output uses shortest round-trip
formatting, so identical configurations produce byte-identical files.

Exit codes: 0 clean, 1 solver abort, 2 audit or certification failure,
64 configuration error (a ``ParseError`` or ``ValidationError``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import (
    RunConfig,
    config_from_pairs,
    materialize,
    materialize_spec,
    scan_config_lines,
)
from .diagnostics import fit_decay_rate, reconstruct_fluxes
from .errors import (
    AuditFailure,
    InsufficientData,
    NonPositiveEntropy,
    ParseError,
    SimulationAborted,
    ValidationError,
)
from .grid import Grid1D
from .mixture import (
    MixtureSpec,
    full_concentrations,
    _hessian_inverse,
    _mobility,
    _reduced_friction,
    _w_to_cf,
)
from .scenarios import PRESETS, heat_analytic
from .spectra import _band_test, _reduced_spectra, certify_friction_spectrum
from .stepper import SimulationResult, run_simulation


def _f(x) -> str:
    return repr(float(x))


def _write_json(path: Path, payload: dict) -> None:
    # numpy arrays and the numpy scalars that are not Python floats
    # (np.bool_, np.int64) serialize through ``tolist``
    text = json.dumps(
        payload, indent=2, sort_keys=True, default=lambda o: o.tolist()
    )
    path.write_text(text + "\n", encoding="utf-8")


class RunCollector:
    """Per-step hook gathering flux, uphill, and distance-bound telemetry.

    The call at step 0, with the regularized start, makes ``out_dir``;
    flux reconstruction happens on every accepted step after it; snapshots
    are written on the configured cadence.  The distance bound compares
    each species' L1 distance from ``record.reference`` against the square
    root of twice the domain length times the relative entropy.  Snapshots
    and those distances read the N+1 fractions the hook receives.
    """

    def __init__(
        self,
        spec: MixtureSpec,
        grid: Grid1D,
        out_dir: Path,
        snapshot_every: int,
    ):
        self.spec = spec
        self.grid = grid
        self.out_dir = out_dir
        self.snapshot_every = snapshot_every
        self.uphill_max = float("-inf")
        self.flux_residual_max = 0.0
        self.pinsker_ok = True
        self.pinsker_margin_min = float("inf")
        self.snapshots: list[str] = []
        self.last_snapshot_step = -1

    def write_snapshot(self, k: int, cf: np.ndarray, w: np.ndarray) -> None:
        n1 = self.spec.n_species
        n = self.spec.n_reduced
        header = (
            "x,"
            + ",".join(f"c_{i + 1}" for i in range(n1))
            + ","
            + ",".join(f"w_{i + 1}" for i in range(n))
        )
        lines = [header]
        for m, x in enumerate(self.grid.centers):
            parts = [_f(x)]
            parts += [_f(v) for v in cf[m]]
            parts += [_f(v) for v in w[m]]
            lines.append(",".join(parts))
        path = self.out_dir / f"snapshot_{k:04d}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.snapshots.append(path.name)
        self.last_snapshot_step = k

    def __call__(self, k, t, cf, w, record) -> None:
        if k == 0:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        else:
            c = cf[:, :-1]
            J, resid = reconstruct_fluxes(self.spec, self.grid, c)
            self.flux_residual_max = max(self.flux_residual_max, resid)
            g_red = (c[1:] - c[:-1]) / self.grid.h
            g_full = np.concatenate(
                [g_red, -g_red.sum(axis=-1, keepdims=True)], axis=-1
            )
            if g_full.size:
                self.uphill_max = max(
                    self.uphill_max, float(np.max(J[1:-1] * g_full))
                )
            l1 = self.grid.h * np.sum(np.abs(cf - record.reference), axis=0)
            bound = np.sqrt(2.0 * self.grid.length * max(record.relative_entropy, 0.0))
            margin = float(bound - np.max(l1))
            self.pinsker_margin_min = min(self.pinsker_margin_min, margin)
            if margin < -1e-12:
                self.pinsker_ok = False
        if self.snapshot_every > 0 and k % self.snapshot_every == 0:
            self.write_snapshot(k, cf, w)


def _write_timeseries(path: Path, records) -> None:
    n1 = records[0].masses.size
    header = (
        "time,entropy,relative_entropy,dissipation_raw,dissipation_sqrt,"
        + ",".join(f"mass_{i + 1}" for i in range(n1))
        + ",min_c,picard_iterations"
    )
    lines = [header]
    for r in records:
        parts = [
            _f(r.time),
            _f(r.entropy),
            _f(r.relative_entropy),
            _f(r.dissipation_raw),
            _f(r.dissipation_sqrt),
        ]
        parts += [_f(m) for m in r.masses]
        parts += [_f(r.min_c), str(r.picard_iterations)]
        lines.append(",".join(parts))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _analytic_l2_error(config: RunConfig, result: SimulationResult) -> float | None:
    """L2 distance to the exact solution, for equal-diffusivity cosine runs."""
    if not config.initial.startswith("cosine:") or config.production != "zero":
        return None
    spec, grid = result.spec, result.grid
    off = ~np.eye(spec.n_species, dtype=bool)
    if np.ptp(spec.D[off]) != 0.0 or result.c is None:
        return None
    amplitude = float(config.initial.partition(":")[2])
    amplitude *= 1.0 - spec.n_species * result.params.eta_floor
    exact = heat_analytic(
        grid, spec.n_reduced, amplitude, float(spec.D[0, 1]), result.t_final
    )
    diff = full_concentrations(result.c) - full_concentrations(exact)
    return float(np.sqrt(grid.h * np.sum(diff * diff)))


def _build_summary(
    config: RunConfig,
    result: SimulationResult,
    collector: RunCollector,
    exit_code: int,
    abort: str | None,
) -> dict:
    spec, grid, params = result.spec, result.grid, result.params
    summary: dict = {
        "scenario": config.scenario,
        "species": spec.n_species,
        "cells": grid.cells,
        "length": grid.length,
        "tau": params.tau,
        "eps": params.eps,
        "t_final": result.t_final,
        "steps": result.steps,
        "exit_status": exit_code,
        "abort": abort,
        "clamp_count": result.clamp_count,
        "tau_retries": result.tau_retries,
        "picard_iterations_total": result.picard_iterations_total,
    }
    try:
        lam, r2 = fit_decay_rate(result.records)
        summary["lambda_fit"] = lam
        summary["r_squared"] = r2
        summary["fit_error"] = None
    except (InsufficientData, NonPositiveEntropy) as exc:
        summary["lambda_fit"] = None
        summary["r_squared"] = None
        summary["fit_error"] = str(exc)
    final_masses = result.records[-1].masses
    drift = final_masses - result.initial_masses
    predicted = (
        -params.eps * result.w_time_integral + result.production_time_integral
    )
    summary["initial_masses"] = result.initial_masses
    summary["final_masses"] = final_masses
    summary["mass_drift"] = drift
    summary["predicted_mass_drift"] = np.concatenate(
        [predicted, [-predicted.sum()]]
    )
    summary["mass_identity_defect"] = float(
        np.max(np.abs(drift[:-1] - predicted))
    )
    if result.verdicts:
        summary["audit_margins"] = {
            "entropy_min": min(v.entropy_margin for v in result.verdicts),
            "mass_min": min(v.mass_margin for v in result.verdicts),
            "bounds_min": min(v.bounds_margin for v in result.verdicts),
            "dissipation_min": min(v.dissipation_margin for v in result.verdicts),
        }
        summary["audits_passed"] = all(v.passed for v in result.verdicts)
    else:
        summary["audit_margins"] = None
        summary["audits_passed"] = None
    has_uphill_data = collector.uphill_max != float("-inf")
    summary["uphill_event"] = bool(
        has_uphill_data and collector.uphill_max > 1e-12
    )
    summary["uphill_max_product"] = (
        collector.uphill_max if has_uphill_data else None
    )
    summary["max_flux_residual"] = collector.flux_residual_max
    summary["pinsker_ok"] = collector.pinsker_ok
    summary["pinsker_margin_min"] = (
        None
        if collector.pinsker_margin_min == float("inf")
        else collector.pinsker_margin_min
    )
    summary["l2_error_vs_analytic"] = _analytic_l2_error(config, result)
    summary["snapshots"] = collector.snapshots
    return summary


def run_scenario(config: RunConfig) -> int:
    """Execute one configured simulation, write its artifacts and return 0,
    1 or 2; a config it cannot run or a directory it cannot make raises first."""
    spec, grid, params, c0 = materialize(config)
    out = Path(config.output_dir)
    collector = RunCollector(spec, grid, out, config.snapshot_every)
    exit_code = 0
    abort = None
    try:
        result = run_simulation(
            spec,
            grid,
            params,
            c0,
            audit_mode=config.audit,
            hooks=[collector],
            record_every=config.record_every,
        )
    except (SimulationAborted, AuditFailure) as exc:
        result, abort = exc.partial, str(exc)
        exit_code = 2 if isinstance(exc, AuditFailure) else 1
    if config.snapshot_every > 0 and collector.last_snapshot_step != result.steps:
        collector.write_snapshot(result.steps, _w_to_cf(result.w), result.w)
    timeseries = out / "timeseries.csv"
    audit = out / "audit.json"
    summary_path = out / "run_summary.json"
    _write_timeseries(timeseries, result.records)
    _write_json(
        audit,
        {
            "audit_mode": config.audit,
            "verdicts": [dict(vars(v), passed=v.passed) for v in result.verdicts],
        },
    )
    summary = _build_summary(config, result, collector, exit_code, abort)
    _write_json(summary_path, summary)
    for p in (timeseries, audit, summary_path):
        print(f"wrote {p}")
    for name in collector.snapshots:
        print(f"wrote {out / name}")
    if abort:
        print(f"aborted: {abort}", file=sys.stderr)
    return exit_code


def certify(config: RunConfig) -> int:
    """Certify spectral bands and mobility definiteness on random states.

    Each sample tests the nonzero eigenvalues of -A(c) against the band
    ``[delta, Delta)`` and counts its zero eigenvalues (the zero is simple),
    tests every eigenvalue of A0(c) against the same band, and tests that
    the mobility B(c) is symmetric positive definite.  ``passed`` is
    the AND of ``friction_in_band``, a ``friction_zero_multiplicity`` of 1,
    ``reduced_in_band`` with no zero in the reduced spectrum, and
    ``mobility_spd``.  All samples come from one seeded Dirichlet draw, so a
    seed reproduces ``certify.json`` byte for byte.  Each state is checked
    once, by ``certify_friction_spectrum``, in sample order; the reduced
    spectra and mobilities of all states follow unchecked, from
    ``_reduced_spectra`` and ``_mobility`` on one stack of A0 matrices.
    It returns 0 or 2; a bad mixture or directory raises before any output.
    """
    spec = materialize_spec(config)
    rng = np.random.default_rng(config.seed)
    n1 = spec.n_species
    floor = 1e-12
    cf = rng.dirichlet(np.ones(n1), size=config.samples)
    states = (1.0 - n1 * floor) * cf[:, :-1] + floor
    results = []
    for i, c in enumerate(states):
        rep = certify_friction_spectrum(spec, c)
        results.append(
            {
                "sample": i,
                "c": c.tolist(),
                "friction_eigenvalues": rep.eigenvalues.tolist(),
                "friction_zero_multiplicity": rep.zero_multiplicity,
                "friction_in_band": rep.in_band,
            }
        )
    # built from states[:, None, :], each A0 takes the vector-matrix product
    # of a one-state call bit for bit; an (S, N) @ (N, N) product rounds otherwise
    A0 = _reduced_friction(spec, states[:, None, :])[:, 0]
    B = _mobility(spec, states, _hessian_inverse(states), A0)
    Bt = B.transpose(0, 2, 1)
    scale = np.maximum(1.0, np.abs(B).max(axis=(1, 2)))
    batch = zip(
        results,
        _reduced_spectra(spec, A0).tolist(),
        (np.abs(B - Bt).max(axis=(1, 2)) / scale).tolist(),
        np.linalg.eigvalsh(0.5 * (B + Bt))[:, 0].tolist(),
    )
    del A0, B, Bt  # the JSON encoding below sets the peak memory
    all_passed = True
    for entry, vals, sym_residual, min_eig in batch:
        reduced_zeros, reduced_in_band = _band_test(spec, vals)
        spd = sym_residual <= 1e-10 and min_eig > 0.0
        # a zero counted twice, or one in A0, hides an eigenvalue from its band
        simple_zero = entry["friction_zero_multiplicity"] == 1 and not reduced_zeros
        passed = entry["friction_in_band"] and simple_zero and reduced_in_band and spd
        all_passed = all_passed and passed
        entry.update(
            reduced_eigenvalues=vals,
            reduced_in_band=reduced_in_band,
            mobility_symmetry_residual=sym_residual,
            mobility_min_eigenvalue=min_eig,
            mobility_spd=spd,
            passed=passed,
        )
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "species": n1,
        "samples": config.samples,
        "seed": config.seed,
        "delta": spec.delta,
        "Delta": spec.Delta,
        "all_passed": all_passed,
        "results": results,
    }
    path = out / "certify.json"
    _write_json(path, payload)
    print(f"wrote {path}")
    return 0 if all_passed else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="msdiff",
        description=(
            "Multicomponent cross-diffusion simulator with entropy-stable "
            "implicit time stepping and self-auditing invariants."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key=value configuration file")
    common.add_argument("--preset", help="start from a named preset scenario")
    common.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )
    common.add_argument("--output-dir", help="directory for output artifacts")
    common.add_argument("--seed", type=int, help="seed for randomized sampling")
    sub.add_parser(
        "run", parents=[common], help="run one simulation and write artifacts"
    )
    sub.add_parser(
        "certify",
        parents=[common],
        help="certify spectral and definiteness claims on random states",
    )
    sub.add_parser("presets", help="list bundled scenario presets")
    return parser


def _collect_pairs(args) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8")
        pairs.extend(scan_config_lines(text))
    for item in args.override:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ValidationError("override", f"expected KEY=VALUE, got {item!r}")
        pairs.append((key.strip(), value.strip()))
    if args.preset:
        pairs.append(("scenario", args.preset))
    if args.output_dir:
        pairs.append(("output_dir", args.output_dir))
    if args.seed is not None:
        pairs.append(("seed", str(args.seed)))
    return pairs


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; the one place that maps a bad config, an unreadable
    or non-UTF-8 config file or an unmakeable output directory to exit 64."""
    args = _build_parser().parse_args(argv)
    if args.command == "presets":
        for name in sorted(PRESETS):
            print(f"{name}: {PRESETS[name].description}")
        return 0
    try:
        config = config_from_pairs(_collect_pairs(args))
        return (run_scenario if args.command == "run" else certify)(config)
    except (ParseError, ValidationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"cannot read/write: {args.config}: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"cannot read/write: {exc}", file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main())
