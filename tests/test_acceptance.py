"""Acceptance suite: every contract the package promises, at its stated tolerance.

One test per contract, each ending in a single printed PASS/FAIL line with the
measured quantities, so ``pytest -v -s tests/test_acceptance.py`` reads as a
checklist.  The three shipped presets are run once, fully audited, and shared
by the tests that inspect per-step invariants.
"""

import dataclasses
import time

import numpy as np
import pytest

from msdiff.config import config_from_pairs, materialize
from msdiff.diagnostics import fit_decay_rate, reconstruct_fluxes
from msdiff.grid import face_gradient, integrate
from msdiff.mixture import (
    full_concentrations,
    mobility_matrix,
    new_mixture_spec,
    reduced_friction_inverse_bound,
    reduced_friction_matrix,
)
from msdiff.scenarios import heat_analytic
from msdiff.spectra import certify_friction_spectrum, certify_reduced_spectrum
from msdiff.stepper import run_simulation

SEED = 20260816
PRESET_NAMES = ("heat_check", "ternary_uphill", "quaternary_reaction")


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_mixture(rng):
    """Random admissible mixture: 3 to 5 species, diffusivities in [0.1, 10]."""
    n1 = int(rng.integers(3, 6))
    diff = 10.0 ** rng.uniform(-1.0, 1.0, size=(n1, n1))
    upper = np.triu(diff, 1)
    return new_mixture_spec(n1, upper + upper.T), n1


def interior_state(rng, n1):
    c = rng.dirichlet(np.ones(n1))
    c = (1.0 - n1 * 1e-6) * c + 1e-6
    return c[:-1]


def boundary_state(rng, n1):
    """Strictly admissible state with one species pushed down to 1e-12."""
    c = rng.dirichlet(np.ones(n1)) + 1e-9
    idx = int(rng.integers(n1))
    small = 10.0 ** rng.uniform(-12.0, -6.0)
    c[idx] = 0.0
    c *= (1.0 - small) / c.sum()
    c[idx] = small
    return c[:-1]


class InvariantCollector:
    """Per-step probe, from the regularized start on: flux closure, uphill
    products, bounds, and the Pinsker margin against the run's reference."""

    def __init__(self, spec, grid):
        self.spec, self.grid = spec, grid
        self.flux_residual_max = 0.0
        self.uphill_max = -np.inf
        self.uphill_events = 0
        self.pinsker_margin_min = np.inf
        self.min_c = np.inf
        self.sum_gap_min = np.inf

    def __call__(self, k, t, cf, w, record):
        c = cf[:, :-1]
        self.min_c = min(self.min_c, float(cf.min()))
        self.sum_gap_min = min(self.sum_gap_min, float(1.0 - c.sum(axis=1).max()))
        J, resid = reconstruct_fluxes(self.spec, self.grid, c)
        self.flux_residual_max = max(self.flux_residual_max, resid)
        g = face_gradient(self.grid, cf)
        prod = J[1:-1] * g[1:-1]
        self.uphill_max = max(self.uphill_max, float(prod.max()))
        self.uphill_events += int(np.count_nonzero(prod > 1e-12))
        l1 = self.grid.h * np.abs(cf - record.reference).sum(axis=0)
        bound = np.sqrt(2.0 * self.grid.length * max(record.relative_entropy, 0.0))
        self.pinsker_margin_min = min(
            self.pinsker_margin_min, float(bound - l1.max())
        )


@dataclasses.dataclass
class PresetRun:
    spec: object
    grid: object
    params: object
    result: object
    collector: InvariantCollector
    elapsed: float


@pytest.fixture(scope="module")
def preset_runs():
    runs = {}
    for name in PRESET_NAMES:
        spec, grid, params, c0 = materialize(
            config_from_pairs([("scenario", name)])
        )
        collector = InvariantCollector(spec, grid)
        t0 = time.perf_counter()
        result = run_simulation(
            spec, grid, params, c0,
            audit_mode="enforce", hooks=[collector], record_every=1,
        )
        runs[name] = PresetRun(
            spec, grid, params, result, collector, time.perf_counter() - t0
        )
    return runs


def _lean_heat_run(cells, tau, d, eps):
    """Convergence-study runner: no audits, one stored record per run end."""
    config = config_from_pairs([
        ("scenario", "heat_check"),
        ("D", f"{d},{d},{d}"),
        ("cells", str(cells)),
        ("tau", repr(tau)),
        ("t_end", "0.1"),
        ("eps", repr(eps)),
    ])
    spec, grid, params, c0 = materialize(config)
    result = run_simulation(
        spec, grid, params, c0, audit_mode="off", record_every=10**9
    )
    exact = heat_analytic(grid, spec.n_reduced, 0.2, d, result.t_final)
    return float(np.sqrt(grid.h * np.sum((result.c - exact) ** 2)))


def test_01_friction_spectra_certified():
    """Zero is simple for -A; everything else sits in the proven band."""
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(1000):
        spec, n1 = random_mixture(rng)
        c = interior_state(rng, n1)
        full = certify_friction_spectrum(spec, c)
        reduced = certify_reduced_spectrum(spec, c)
        ok = (
            full.zero_multiplicity == 1
            and full.in_band
            and reduced.zero_multiplicity == 0
            and reduced.in_band
        )
        failures += not ok
    elapsed = time.perf_counter() - t0
    _report(
        "friction spectra certified",
        failures == 0 and elapsed <= 10.0,
        f"1000 mixtures, failures={failures}, {elapsed:.1f}s (budget 10s)",
    )


def test_02_mobility_spd_and_bounded_near_boundary():
    rng = np.random.default_rng(SEED + 1)
    failures = 0
    min_eig = np.inf
    worst_sym = 0.0
    for _ in range(1000):
        spec, n1 = random_mixture(rng)
        B = mobility_matrix(spec, interior_state(rng, n1))
        sym = float(np.max(np.abs(B - B.T))) / max(float(np.max(np.abs(B))), 1e-300)
        worst_sym = max(worst_sym, sym)
        eig = float(np.linalg.eigvalsh(0.5 * (B + B.T)).min())
        min_eig = min(min_eig, eig)
        failures += not (sym <= 1e-10 and eig > 0.0)

    # entries must stay finite as species vanish; the explicit inverse bound
    # times the entry scale of the entropy Hessian inverse (1/4) caps them
    boundary_failures = 0
    for _ in range(100):
        spec, n1 = random_mixture(rng)
        states = np.stack([boundary_state(rng, n1) for _ in range(100)])
        B = mobility_matrix(spec, states)
        cap = reduced_friction_inverse_bound(spec) * spec.n_reduced / 4.0
        ok = bool(np.all(np.isfinite(B)) and np.max(np.abs(B)) <= cap)
        boundary_failures += not ok
    _report(
        "mobility SPD and bounded",
        failures == 0 and boundary_failures == 0,
        f"1000 interior (worst symmetry {worst_sym:.1e}, min eig {min_eig:.1e}), "
        f"10000 near-boundary batches failing={boundary_failures}",
    )


def test_03_pointwise_dissipation_lower_bound():
    """Mobility quadratic form dominates (4/Delta) |grad sqrt(c)|^2 pointwise."""
    rng = np.random.default_rng(SEED + 2)
    margin_min = np.inf
    for _ in range(100):
        spec, n1 = random_mixture(rng)
        n = n1 - 1
        c_red = np.stack([interior_state(rng, n1) for _ in range(100)])
        g = rng.standard_normal((100, n))
        B = mobility_matrix(spec, c_red)
        c_imp = 1.0 - c_red.sum(axis=1)
        hess = (1.0 / c_imp)[:, None, None] + np.eye(n) / c_red[:, None, :]
        wg = np.einsum("sij,sj->si", hess, g)
        quad = np.einsum("si,sij,sj->s", wg, B, wg)
        g_full = np.concatenate([g, -g.sum(axis=1, keepdims=True)], axis=1)
        c_full = np.concatenate([c_red, c_imp[:, None]], axis=1)
        lower = np.sum(g_full * g_full / c_full, axis=1) / spec.Delta
        margin_min = min(margin_min, float(np.min(quad - lower)))
    _report(
        "pointwise dissipation bound",
        margin_min >= -1e-10,
        f"10000 samples, worst margin {margin_min:.3e} (allowed -1e-10)",
    )


def test_04_equal_diffusivity_convergence_orders():
    rng = np.random.default_rng(SEED + 3)
    t0 = time.perf_counter()
    inv_err = 0.0
    for d0 in (0.05, 1.0, 7.5):
        for n1 in (3, 4, 5):
            diff = np.full((n1, n1), d0)
            np.fill_diagonal(diff, 0.0)
            spec = new_mixture_spec(n1, diff)
            a0 = reduced_friction_matrix(spec, interior_state(rng, n1))
            err = float(np.max(np.abs(np.linalg.inv(a0) - d0 * np.eye(n1 - 1))))
            inv_err = max(inv_err, err)

    # Spatial ladder: the implicit step is first order in time, so its error
    # floor (about 0.36 D^2 pi^4 tau t / 2 on the mode amplitude) must sit
    # well below the finest-grid spatial error.  Slowing the mixture down to
    # D = 0.05 buys that with 5000 steps per rung instead of 80000.
    cells_ladder = (32, 64, 128, 256)
    spatial_errs = [_lean_heat_run(m, 2e-5, 0.05, 1e-9) for m in cells_ladder]
    spatial_order = -float(
        np.polyfit(np.log(cells_ladder), np.log(spatial_errs), 1)[0]
    )

    # Temporal ladder at the preset diffusivity: the time error dominates the
    # fine-grid spatial error by three orders of magnitude here.
    tau_ladder = (4e-3, 2e-3, 1e-3)
    temporal_errs = [_lean_heat_run(256, tau, 1.0, 1e-8) for tau in tau_ladder]
    temporal_order = float(
        np.polyfit(np.log(tau_ladder), np.log(temporal_errs), 1)[0]
    )
    elapsed = time.perf_counter() - t0
    _report(
        "equal-diffusivity convergence",
        inv_err <= 1e-12
        and 1.7 <= spatial_order <= 2.3
        and 0.8 <= temporal_order <= 1.2
        and elapsed <= 60.0,
        f"inverse exactness {inv_err:.1e}, spatial order {spatial_order:.2f}, "
        f"temporal order {temporal_order:.2f}, {elapsed:.1f}s (budget 60s)",
    )


def test_05_entropy_inequality_every_step(preset_runs):
    """Every accepted step pays its dissipation out of the entropy budget."""
    worst = {}
    ok = True
    for name, run in preset_runs.items():
        verdicts = run.result.verdicts
        ok = ok and len(verdicts) == run.result.steps
        ok = ok and all(v.passed for v in verdicts)
        worst[name] = min(v.entropy_margin for v in verdicts)
        ok = ok and worst[name] >= 0.0
    detail = ", ".join(f"{k} margin {v:.2e}" for k, v in worst.items())
    _report("entropy inequality each step", ok, detail)


def test_06_bounds_preserved_zero_clamps(preset_runs):
    ok = True
    details = []
    for name, run in preset_runs.items():
        col = run.collector
        clamps = run.result.clamp_count
        bounds_ok = all(v.bounds_ok for v in run.result.verdicts)
        ok = ok and col.min_c > 0.0 and col.sum_gap_min > 0.0
        ok = ok and clamps == 0 and bounds_ok
        details.append(f"{name} min_c {col.min_c:.1e} clamps {clamps}")
    _report("bounds preserved, zero clamps", ok, ", ".join(details))


def test_07_mass_drift_identity_and_epsilon_scaling():
    """Regularization drift obeys its accumulation identity and shrinks with eps."""
    drifts = []
    defect_max = 0.0
    for eps in (1e-6, 1e-7, 1e-8):
        config = config_from_pairs([
            ("scenario", "ternary_uphill"),
            ("eps", repr(eps)),
            ("t_end", "0.5"),
        ])
        spec, grid, params, c0 = materialize(config)
        result = run_simulation(
            spec, grid, params, c0, audit_mode="off", record_every=10**9
        )
        final = integrate(grid, full_concentrations(result.c))
        drift = final - result.initial_masses
        defect = drift[: spec.n_reduced] + eps * result.w_time_integral
        defect_max = max(defect_max, float(np.max(np.abs(defect))))
        drifts.append(float(np.max(np.abs(drift))))
    slope = float(np.polyfit(np.log([1e-6, 1e-7, 1e-8]), np.log(drifts), 1)[0])
    monotone = drifts[0] > drifts[1] > drifts[2]
    _report(
        "mass drift identity and scaling",
        defect_max <= 1e-10 and monotone and slope >= 0.4,
        f"identity defect {defect_max:.1e}, drifts "
        + "/".join(f"{d:.1e}" for d in drifts)
        + f", slope {slope:.2f}",
    )


def test_08_relative_entropy_exponential_decay(preset_runs):
    run = preset_runs["ternary_uphill"]
    t0 = time.perf_counter()
    hstar = np.array([r.relative_entropy for r in run.result.records])
    slack = 10.0 * run.params.picard_tol * run.spec.n_reduced * run.grid.cells
    decreasing = bool(np.all(np.diff(hstar) < slack))
    lam, r_squared = fit_decay_rate(run.result.records, window=(1.0, 2.0))
    pinsker = run.collector.pinsker_margin_min
    elapsed = run.elapsed + (time.perf_counter() - t0)
    _report(
        "relative entropy decays exponentially",
        decreasing and lam > 0.0 and r_squared >= 0.99
        and pinsker >= -1e-12 and elapsed <= 60.0,
        f"lambda {lam:.3f}, r^2 {r_squared:.4f}, Pinsker margin {pinsker:.2e}, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_09_flux_reconstruction_residual(preset_runs):
    """The inverted fluxes solve the original friction relations at every step."""
    worst = {
        name: run.collector.flux_residual_max for name, run in preset_runs.items()
    }
    ok = all(v <= 1e-8 for v in worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _report("flux reconstruction residual", ok, detail)


def test_10_uphill_diffusion_event(preset_runs):
    col = preset_runs["ternary_uphill"].collector
    _report(
        "uphill diffusion observed",
        col.uphill_events >= 1 and col.uphill_max > 1e-12,
        f"{col.uphill_events} face-time events, "
        f"largest flux-gradient product {col.uphill_max:.2e}",
    )
