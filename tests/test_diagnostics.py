"""Entropy functionals, dissipation forms, flux closure, and the step audit."""

import math

import numpy as np
import pytest

import msdiff.stepper
from msdiff import (
    AuditFailure,
    DiagnosticsRecord,
    Grid1D,
    InadmissibleState,
    InsufficientData,
    MixtureSpec,
    NonPositiveEntropy,
    ProductionLaw,
    SchemeParams,
    ValidationError,
    audit_step,
    c_to_w,
    config_from_pairs,
    face_gradient,
    fit_decay_rate,
    full_concentrations,
    integrate,
    materialize,
    mobility_matrix,
    production_rates,
    reconstruct_fluxes,
    run_simulation,
    solver_slack,
    w_to_c,
)
from msdiff.diagnostics import _dissipation, _entropy, _relative_entropy
from msdiff.mixture import _hessian_inverse, _w_to_cf
from test_grid import dense_laplacian
from test_mixture import equal_d_spec, ternary_123_spec


def entropy_of(grid, c):
    return _entropy(grid, full_concentrations(c))


def relative_entropy_of(grid, c, reference):
    return _relative_entropy(grid, full_concentrations(c), np.asarray(reference))


def dissipation_of(spec, grid, c, w):
    return _dissipation(grid, mobility_matrix(spec, c), full_concentrations(c), w)


def make_record(grid, spec, t, c, w, iterations=1):
    raw, sq = dissipation_of(spec, grid, c, w)
    cf = full_concentrations(c)
    return DiagnosticsRecord(
        time=t,
        entropy=entropy_of(grid, c),
        relative_entropy=0.0,
        dissipation_sqrt=sq,
        dissipation_raw=raw,
        masses=integrate(grid, cf),
        min_c=float(cf.min()),
        picard_iterations=iterations,
    )


def smooth_state(grid, n_reduced=2, scale=0.4, seed=0):
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=(3, n_reduced))
    x = grid.centers[:, None]
    w = scale * (
        coef[0] + coef[1] * np.cos(np.pi * x) + coef[2] * np.cos(2 * np.pi * x)
    )
    return w_to_c(w), w


class TestEntropyFunctional:
    def test_uniform_ternary(self):
        grid = Grid1D(1.0, 8)
        c = np.full((8, 2), 1 / 3)
        assert entropy_of(grid, c) == pytest.approx(-1 - math.log(3.0))

    def test_corner_state_scales_with_length(self):
        grid = Grid1D(2.5, 8)
        c = np.tile([1.0, 0.0], (8, 1))
        assert entropy_of(grid, c) == pytest.approx(-2.5, abs=1e-13)

    def test_two_cell_mixture(self):
        grid = Grid1D(1.0, 2)
        c = np.array([[0.5, 0.25], [1 / 3, 1 / 3]])
        expected = 0.5 * (-2.0397207708399179) + 0.5 * (-1 - math.log(3.0))
        assert entropy_of(grid, c) == pytest.approx(expected, abs=1e-13)
        assert expected == pytest.approx(-2.0691665297540137, abs=1e-12)


class TestRelativeEntropy:
    def test_zero_at_reference(self):
        grid = Grid1D(1.0, 6)
        c = np.tile([0.2, 0.3], (6, 1))
        assert relative_entropy_of(grid, c, [0.2, 0.3, 0.5]) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_zero_against_own_average(self):
        grid = Grid1D(1.0, 6)
        c = np.tile([0.15, 0.35], (6, 1))
        ref = np.array([0.15, 0.35, 0.5])
        assert relative_entropy_of(grid, c, ref) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_field_hand_value(self):
        # 1/2 log(3/2) + 1/4 log(3/4) + 1/4 log(3/4), constant in space
        grid = Grid1D(1.0, 2)
        c = np.tile([0.5, 0.25], (2, 1))
        expected = 0.5 * math.log(1.5) + 0.5 * math.log(0.75)
        got = relative_entropy_of(grid, c, np.full(3, 1 / 3))
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(0.05889151782819171, abs=1e-12)

    def test_nonnegative_on_random_fields(self):
        grid = Grid1D(1.0, 32)
        c, _ = smooth_state(grid, seed=3)
        assert relative_entropy_of(grid, c, np.full(3, 1 / 3)) >= 0.0


class TestSolverSlack:
    def test_arithmetic(self):
        assert solver_slack(1e-10, 2, 128) == pytest.approx(2.56e-7)


class TestDissipation:
    def test_constant_state_is_zero(self):
        grid = Grid1D(1.0, 8)
        spec = ternary_123_spec()
        w = np.tile([0.3, -0.1], (8, 1))
        raw, sq = dissipation_of(spec, grid, w_to_c(w), w)
        assert raw == 0.0 and sq == 0.0

    def test_lower_bound_holds_on_random_states(self):
        grid = Grid1D(1.0, 48)
        for seed in range(12):
            for spec in (ternary_123_spec(), equal_d_spec(3, d=2.0)):
                c, w = smooth_state(grid, seed=seed, scale=0.8)
                raw, sq = dissipation_of(spec, grid, c, w)
                assert raw >= 4.0 * sq / spec.Delta - 1e-9
                assert raw > 0.0 and sq > 0.0

    def test_equal_d_reduces_to_hessian_form(self):
        # B collapses to H^-1/d, so raw is the plain entropy metric up to d
        grid = Grid1D(1.0, 16)
        d = 2.5
        c, w = smooth_state(grid, seed=5, scale=0.3)
        raw_d, _ = dissipation_of(equal_d_spec(3, d=d), grid, c, w)
        raw_1, _ = dissipation_of(equal_d_spec(3, d=1.0), grid, c, w)
        assert raw_d == pytest.approx(raw_1 / d, rel=1e-12)

    def test_forced_contract_violation_raises(self):
        # a spec lying about its band width makes the proved bound fail;
        # the audit must flag it, and an enforcing run stop on it, rather
        # than pass quietly
        grid = Grid1D(1.0, 16)
        honest = ternary_123_spec()
        liar = MixtureSpec(
            n_species=honest.n_species,
            D=honest.D.copy(),
            d=honest.d.copy(),
            delta=honest.delta,
            Delta=honest.Delta * 1e-4,
            production=ProductionLaw.zero(),
        )
        c, w = smooth_state(grid, seed=9, scale=0.8)
        record = make_record(grid, liar, 0.0, c, w)
        assert record.dissipation_raw < 4.0 * record.dissipation_sqrt / liar.Delta
        slack = solver_slack(1e-10, 2, 16)
        verdict = audit_step(liar, grid, 1e-3, 1e-8, slack, record, record, w)
        assert not verdict.dissipation_ok and not verdict.passed
        assert verdict.dissipation_margin < 0.0
        honest_verdict = audit_step(
            honest, grid, 1e-3, 1e-8, slack, record, record, w
        )
        assert honest_verdict.dissipation_ok
        params = SchemeParams(tau=1e-3, t_end=3e-3)
        with pytest.raises(AuditFailure, match="step 1 violated: .*dissipation"):
            run_simulation(liar, grid, params, c)
        assert all(v.passed for v in run_simulation(honest, grid, params, c).verdicts)


class TestReconstructFluxes:
    def test_constant_field_zero_everything(self):
        grid = Grid1D(1.0, 8)
        spec = ternary_123_spec()
        J, resid = reconstruct_fluxes(spec, grid, np.tile([0.25, 0.4], (8, 1)))
        assert np.all(J == 0.0)
        assert resid == 0.0

    def test_walls_carry_no_flux_and_fluxes_balance(self):
        grid = Grid1D(1.0, 24)
        spec = ternary_123_spec()
        c, _ = smooth_state(grid, seed=11)
        J, resid = reconstruct_fluxes(spec, grid, c)
        assert np.all(J[0] == 0.0) and np.all(J[-1] == 0.0)
        assert np.max(np.abs(J.sum(axis=1))) <= 1e-15
        assert resid <= 1e-10

    def test_equal_diffusivities_fickian(self):
        grid = Grid1D(1.0, 24)
        d = 4.0  # friction; binary diffusivity is 1/d
        spec = equal_d_spec(3, d=d)
        c, _ = smooth_state(grid, seed=13)
        J, resid = reconstruct_fluxes(spec, grid, c)
        g_full = face_gradient(grid, full_concentrations(c))
        np.testing.assert_allclose(J[1:-1], -g_full[1:-1] / d, atol=1e-13)
        assert resid <= 1e-12

    def test_linear_profile_mixed_diffusivities(self):
        grid = Grid1D(1.0, 32)
        spec = ternary_123_spec()
        x = grid.centers[:, None]
        c = np.concatenate([0.2 + 0.1 * x, 0.45 - 0.2 * x], axis=1)
        _, resid = reconstruct_fluxes(spec, grid, c)
        assert resid <= 1e-10

    def test_vanished_implied_species_gives_finite_fluxes(self):
        # fluxes are defined on the closed simplex: A0 stays invertible and
        # nothing divides by a fraction
        grid = Grid1D(1.0, 16)
        spec = ternary_123_spec()
        c1 = 0.2 + 0.6 * grid.centers
        c = np.stack([c1, 1.0 - c1], axis=1)  # implied species identically 0
        J, resid = reconstruct_fluxes(spec, grid, c)
        assert np.isfinite(J).all() and np.any(J != 0.0)
        assert resid <= 1e-14

    def test_rejects_states_outside_simplex(self):
        grid = Grid1D(1.0, 4)
        spec = ternary_123_spec()
        with pytest.raises(InadmissibleState):
            reconstruct_fluxes(spec, grid, np.tile([0.7, 0.4], (4, 1)))
        with pytest.raises(InadmissibleState):
            reconstruct_fluxes(spec, grid, np.tile([-1e-9, 0.5], (4, 1)))

    def test_rejects_a_field_of_another_grid(self):
        spec, grid = ternary_123_spec(), Grid1D(1.0, 4)
        with pytest.raises(ValidationError) as info:
            reconstruct_fluxes(spec, grid, np.full((5, 2), 0.3))
        assert (info.value.key, info.value.reason) == (
            "c",
            "concentration field rows must match cells",
        )


def exponential_records(rate=2.0, n=40, t_end=2.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n + 1):
        t = t_end * k / n
        H = math.exp(-rate * t) * (1.0 + noise * rng.normal())
        out.append(
            DiagnosticsRecord(
                time=t,
                entropy=-1.0,
                relative_entropy=H,
                dissipation_sqrt=0.0,
                dissipation_raw=0.0,
                masses=np.array([0.5, 0.5]),
                min_c=0.1,
                picard_iterations=1,
            )
        )
    return out


class TestFitDecayRate:
    def test_exact_exponential(self):
        lam, r2 = fit_decay_rate(exponential_records(rate=2.0))
        assert lam == pytest.approx(2.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_records_zero_rate(self):
        lam, r2 = fit_decay_rate(exponential_records(rate=0.0))
        assert lam == pytest.approx(0.0, abs=1e-14)
        assert r2 == 1.0  # degenerate flat data counts as a perfect fit

    def test_default_window_is_second_half(self):
        # decay rate switches at t=1; the default fit must only see the tail
        recs = exponential_records(rate=5.0, n=20, t_end=1.0)
        tail = exponential_records(rate=1.0, n=20, t_end=1.0)
        shifted = []
        H1 = recs[-1].relative_entropy
        for r in tail[1:]:
            shifted.append(
                DiagnosticsRecord(
                    time=1.0 + r.time,
                    entropy=r.entropy,
                    relative_entropy=H1 * r.relative_entropy,
                    dissipation_sqrt=0.0,
                    dissipation_raw=0.0,
                    masses=r.masses,
                    min_c=r.min_c,
                    picard_iterations=1,
                )
            )
        lam, r2 = fit_decay_rate(recs + shifted)
        assert lam == pytest.approx(1.0, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-10)

    def test_explicit_window(self):
        recs = exponential_records(rate=3.0)
        lam, _ = fit_decay_rate(recs, window=(0.0, 2.0))
        assert lam == pytest.approx(3.0, abs=1e-12)

    def test_noisy_data_r_squared_drops(self):
        recs = exponential_records(rate=2.0, noise=0.05, seed=42)
        lam, r2 = fit_decay_rate(recs)
        assert lam == pytest.approx(2.0, abs=0.5)
        assert r2 < 1.0

    def test_too_few_records(self):
        with pytest.raises(InsufficientData):
            fit_decay_rate(exponential_records(n=8))
        with pytest.raises(InsufficientData):
            fit_decay_rate([])

    def test_nonpositive_entropy_rejected(self):
        recs = exponential_records(rate=2.0, n=20)
        bad = DiagnosticsRecord(
            time=1.9,
            entropy=-1.0,
            relative_entropy=0.0,
            dissipation_sqrt=0.0,
            dissipation_raw=0.0,
            masses=np.array([0.5, 0.5]),
            min_c=0.1,
            picard_iterations=1,
        )
        with pytest.raises(NonPositiveEntropy):
            fit_decay_rate(recs + [bad])


class TestAuditStep:
    def equilibrium_pair(self):
        grid = Grid1D(1.0, 8)
        spec = equal_d_spec(3, d=1.0)
        w = np.zeros((8, 2))
        c = w_to_c(w)
        prev = make_record(grid, spec, 0.0, c, w)
        new = make_record(grid, spec, 1e-3, c, w)
        return spec, grid, prev, new, c, w

    def test_equilibrium_passes_with_tolerance_margins(self):
        spec, grid, prev, new, c, w = self.equilibrium_pair()
        slack = solver_slack(1e-10, 2, 8)
        verdict = audit_step(spec, grid, 1e-3, 1e-8, slack, prev, new, w)
        assert verdict.passed
        # nothing moved, so each margin sits exactly at its granted slack
        assert verdict.entropy_margin == pytest.approx(slack, rel=1e-6)
        assert verdict.mass_margin == pytest.approx(1e-10, abs=1e-14)
        assert verdict.dissipation_margin == pytest.approx(1e-9, abs=1e-15)
        assert verdict.bounds_margin == pytest.approx(1 / 3, abs=1e-12)

    def test_corrupted_entropy_fails_audit(self):
        spec, grid, prev, new, c, w = self.equilibrium_pair()
        corrupted = DiagnosticsRecord(
            time=new.time,
            entropy=new.entropy + 1.0,
            relative_entropy=new.relative_entropy,
            dissipation_sqrt=new.dissipation_sqrt,
            dissipation_raw=new.dissipation_raw,
            masses=new.masses,
            min_c=new.min_c,
            picard_iterations=1,
        )
        slack = solver_slack(1e-10, 2, 8)
        verdict = audit_step(spec, grid, 1e-3, 1e-8, slack, prev, corrupted, w)
        assert not verdict.entropy_ok
        assert verdict.entropy_margin == pytest.approx(-1.0, abs=1e-4)
        assert not verdict.passed
        assert verdict.mass_ok and verdict.bounds_ok and verdict.dissipation_ok

    def test_corrupted_mass_fails_audit(self):
        spec, grid, prev, new, c, w = self.equilibrium_pair()
        shifted = DiagnosticsRecord(
            time=new.time,
            entropy=new.entropy,
            relative_entropy=new.relative_entropy,
            dissipation_sqrt=new.dissipation_sqrt,
            dissipation_raw=new.dissipation_raw,
            masses=new.masses + 1e-6,
            min_c=new.min_c,
            picard_iterations=1,
        )
        slack = solver_slack(1e-10, 2, 8)
        verdict = audit_step(spec, grid, 1e-3, 1e-8, slack, prev, shifted, w)
        assert not verdict.mass_ok and not verdict.passed

    def test_production_integral_enters_mass_balance(self):
        # a reacting step shifts masses by tau * integral(r); the audit only
        # balances when that production integral is supplied
        grid = Grid1D(1.0, 8)
        spec = equal_d_spec(3, d=1.0)
        tau = 1e-3
        w = np.zeros((8, 2))
        c = w_to_c(w)
        prev = make_record(grid, spec, 0.0, c, w)
        r_int = np.array([0.01, -0.02])
        shifted_masses = prev.masses.copy()
        shifted_masses[:2] += tau * r_int
        new = DiagnosticsRecord(
            time=tau,
            entropy=prev.entropy,
            relative_entropy=0.0,
            dissipation_sqrt=0.0,
            dissipation_raw=0.0,
            masses=shifted_masses,
            min_c=prev.min_c,
            picard_iterations=1,
        )
        slack = solver_slack(1e-10, 2, 8)
        with_r = audit_step(
            spec, grid, tau, 0.0, slack, prev, new, w, production_integral=r_int
        )
        without_r = audit_step(spec, grid, tau, 0.0, slack, prev, new, w)
        assert with_r.mass_ok
        assert not without_r.mass_ok

    def test_regularization_term_charged_to_entropy_budget(self):
        # same state twice, but a large eps makes the eps*tau*D_reg payment
        # exceed the slack whenever w is not identically zero
        grid = Grid1D(1.0, 8)
        spec = equal_d_spec(3, d=1.0)
        w = np.tile([2.0, -1.0], (8, 1))
        c = w_to_c(w)
        prev = make_record(grid, spec, 0.0, c, w)
        new = make_record(grid, spec, 1e-3, c, w)
        slack = solver_slack(1e-10, 2, 8)
        verdict = audit_step(spec, grid, 1e-3, 1.0, slack, prev, new, w)
        assert not verdict.entropy_ok

    def test_stencil_matches_dense_laplacian_reference(self):
        # a rough state and eps = 1 make the regularization payment dominate
        # the entropy margin, so the margin compares the two Laplacians
        grid = Grid1D(1.0, 16)
        spec = ternary_123_spec()
        rng = np.random.default_rng(5)
        w = rng.normal(size=(16, 2))
        c = w_to_c(w)
        prev = make_record(grid, spec, 0.0, c, w)
        new = make_record(grid, spec, 1e-3, c, w)
        tau, eps, slack = 1e-3, 1.0, solver_slack(1e-10, 2, 16)
        verdict = audit_step(spec, grid, tau, eps, slack, prev, new, w)
        L = dense_laplacian(grid)
        payment = eps * tau * float(
            integrate(grid, np.sum((L @ w) ** 2 + w**2, axis=-1))
        )
        expected = prev.entropy + slack - (
            new.entropy + (4.0 * tau / spec.Delta) * new.dissipation_sqrt + payment
        )
        assert payment > 1.0
        assert abs(verdict.entropy_margin - expected) <= 1e-12 * payment


class TestCarriedEvaluation:
    def test_run_records_match_public_diagnostics_bitwise(self, monkeypatch):
        # the solver's evaluation of each accepted state feeds the record;
        # its first N fractions agree to the last bit with the public
        # functions, and the record reads all N+1 through the private kernels
        steps = []
        advance = msdiff.stepper.advance_step

        def capture(*args, **kwargs):
            steps.append(advance(*args, **kwargs))
            return steps[-1]

        monkeypatch.setattr(msdiff.stepper, "advance_step", capture)
        config = config_from_pairs(
            [("scenario", "quaternary_reaction"), ("cells", "12"), ("t_end", "0.003")]
        )
        spec, grid, params, c0 = materialize(config)
        result = run_simulation(spec, grid, params, c0)
        assert result.steps == len(steps) == 3
        assert all(v.passed for v in result.verdicts)
        n = spec.n_reduced
        for step, record in zip(steps, result.records[1:]):
            state = step.state
            c = w_to_c(step.w)
            cf = _w_to_cf(step.w)
            assert state.w is step.w
            assert np.array_equal(state.c, c)
            assert np.array_equal(state.cf, cf)
            assert np.array_equal(state.hinv, _hessian_inverse(c))
            assert np.array_equal(state.B, mobility_matrix(spec, c))
            assert np.array_equal(
                state.r, production_rates(spec.production, cf)[:, :n]
            )
            raw, sqrt_form = _dissipation(grid, state.B, cf, step.w)
            assert record.dissipation_raw == raw
            assert record.dissipation_sqrt == sqrt_form
            assert record.entropy == _entropy(grid, cf)
            assert record.relative_entropy == _relative_entropy(
                grid, cf, record.reference
            )
            assert np.array_equal(record.masses, integrate(grid, cf))
            assert record.min_c == float(np.min(cf))
        assert result.w is steps[-1].w
        assert not result.w.flags.writeable
