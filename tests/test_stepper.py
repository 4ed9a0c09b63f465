"""Implicit stepper: the assembled system, the nonlinear solve, and full runs.

The nonlinear-solver oracle is a high-precision root find on the spatially
constant reduction of the step equation, where the diffusion terms drop and
the fixed point satisfies c(w) + eps*tau*w = c_prev cell-wise.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded, eigvals_banded
from scipy.optimize import fsolve

import msdiff.stepper
from msdiff import (
    AuditFailure,
    Grid1D,
    NonlinearDivergence,
    ProductionLaw,
    SchemeParams,
    SimulationAborted,
    SimulationResult,
    ValidationError,
    advance_step,
    c_to_w,
    diffusivity_matrix_from_upper,
    divergence,
    face_gradient,
    full_concentrations,
    integrate,
    laplacian_squared_lower_bands,
    mobility_matrix,
    new_mixture_spec,
    production_rates,
    regularize_initial,
    run_simulation,
    step_profile,
    w_to_c,
)
from msdiff.config import config_from_pairs, materialize
from msdiff.diagnostics import AuditVerdict
from msdiff.mixture import _hessian_inverse
from test_mixture import equal_d_spec, ternary_123_spec


def heat_setup(cells=16, tau=1e-3, **kw):
    spec = equal_d_spec(3, d=1.0)
    grid = Grid1D(1.0, cells)
    base = 1.0 / 3.0
    bump = 0.2 * np.cos(np.pi * grid.centers)
    c0 = np.stack([base + bump, base - bump], axis=1)
    params = SchemeParams(tau=tau, t_end=kw.pop("t_end", 0.02), **kw)
    return spec, grid, params, c0


def rough_setup(**kw):
    # sharp composition step; after the floor the entropy variables jump by
    # tens across one cell, the hard regime for the frozen-coefficient solve
    D = diffusivity_matrix_from_upper([0.0833, 0.680, 0.168], 3)
    spec = new_mixture_spec(3, D)
    grid = Grid1D(1.0, 64)
    c0 = step_profile(grid, np.array([0.0, 0.5]), np.array([0.5, 0.5]))
    params = SchemeParams(tau=kw.pop("tau", 1e-3), t_end=kw.pop("t_end", 1e-3), **kw)
    return spec, grid, params, c0


# Five species on 8 cells: every step's matvec residual sits near the
# rounding level of the (h/tau) c(w) term that cancels against c_prev.
FIVE_SPECIES = (
    ("species", "5"),
    ("D", "22.0383,0.0397462,0.0541697,0.131241,0.229354,"
          "11.836,10.5563,20.113,0.46683,0.0352782"),
    ("eps", "5.69e-07"),
    ("length", "6.286"),
    ("cells", "8"),
    ("tau", "0.000164"),
    ("t_end", "0.000820067"),
    ("initial", "cosine:0.000353"),
)


def random_spec(n_species, seed=0):
    rng = np.random.default_rng(seed)
    upper = rng.uniform(0.05, 2.0, size=n_species * (n_species - 1) // 2)
    D = diffusivity_matrix_from_upper(upper, n_species)
    law = ProductionLaw.quaternary_reversible() if n_species == 5 else None
    return new_mixture_spec(n_species, D, law)


def loop_assemble(spec, grid, tau, eps, w_bar, c_prev):
    """Banded frozen system built with explicit scatter loops.

    The reference for the vectorised ``_assemble_banded``: same arithmetic,
    from the mixture functions applied to the checked ``w_to_c(w_bar)``, one
    band slice at a time.
    """
    n = spec.n_reduced
    m = grid.cells
    h = grid.h
    ab = np.zeros((2 * n + 1, n * m))
    c_bar = w_to_c(w_bar)
    B = mobility_matrix(spec, c_bar)
    Bf = 0.5 * (B[:-1] + B[1:])
    Bf = 0.5 * (Bf + np.swapaxes(Bf, -1, -2))
    dblk = np.zeros((m, n, n))
    dblk[1:] += Bf
    dblk[:-1] += Bf
    dblk /= h
    b = (h / tau) * (c_prev - c_bar)
    b += h * production_rates(spec.production, full_concentrations(c_bar))[:, :n]
    hinv = _hessian_inverse(c_bar) * (h / tau)
    dblk += hinv
    b += np.einsum("mij,mj->mi", hinv, w_bar)
    for i in range(n):
        for j in range(i + 1):
            ab[i - j, j::n] += dblk[:, i, j]
    off = Bf / (-h)
    stop = (m - 1) * n
    for i in range(n):
        for j in range(n):
            ab[n + i - j, j : j + stop : n] += off[:, i, j]
    if eps != 0.0:
        l0, l1, l2 = laplacian_squared_lower_bands(grid)
        s = eps * h
        for i in range(n):
            ab[0, i::n] += s * (l0 + 1.0)
            ab[n, i : i + (m - 1) * n : n] += s * l1
            ab[2 * n, i : i + (m - 2) * n : n] += s * l2
    return ab, b.ravel()


class TestSchemeParams:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("tau", 0.0),
            ("tau", -1.0),
            ("t_end", -0.1),
            ("eps", -1e-9),
            ("picard_tol", 0.0),
            ("picard_max", 0),
            ("eta_floor", 0.0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        kw = dict(tau=1e-3, t_end=1.0)
        kw[field] = value
        with pytest.raises(ValidationError):
            SchemeParams(**kw)

    def test_zero_t_end_allowed(self):
        assert SchemeParams(tau=1e-3, t_end=0.0).t_end == 0.0


class TestRegularizeInitial:
    def test_interior_data_moves_at_most_n_eta(self):
        spec = ternary_123_spec()
        c0 = np.tile([0.3, 0.4], (5, 1))
        out = regularize_initial(spec, c0, 1e-3)
        assert np.max(np.abs(out - c0)) <= 3 * 1e-3

    def test_corner_state_floored(self):
        spec = equal_d_spec()
        out = regularize_initial(spec, np.array([[1.0, 0.0]]), 1e-3)
        np.testing.assert_allclose(out[0], [0.998, 1e-3], atol=1e-15)
        assert out.sum() <= 1.0 - 1e-3 + 1e-15

    def test_output_keeps_implied_species_positive(self):
        spec = equal_d_spec()
        rng = np.random.default_rng(1)
        c0 = rng.dirichlet(np.ones(3), size=20)[:, :2]
        out = regularize_initial(spec, c0, 1e-6)
        assert np.all(out >= 1e-6)
        assert np.all(1.0 - out.sum(axis=1) >= 1e-6 - 1e-15)

    def test_constant_fields_stay_constant(self):
        spec = equal_d_spec()
        out = regularize_initial(spec, np.tile([0.2, 0.2], (4, 1)), 1e-4)
        assert np.ptp(out, axis=0).max() == 0.0

    def test_excess_sum_rejected(self):
        spec = equal_d_spec()
        with pytest.raises(ValidationError) as info:
            regularize_initial(spec, np.array([[0.7, 0.5]]), 1e-3)
        assert (info.value.key, info.value.reason) == (
            "initial",
            "initial fractions exceed unit sum",
        )

    def test_negative_fraction_rejected(self):
        spec = equal_d_spec()
        with pytest.raises(ValidationError) as info:
            regularize_initial(spec, np.array([[-0.1, 0.5]]), 1e-3)
        assert (info.value.key, info.value.reason) == (
            "initial",
            "negative initial fraction",
        )

    def test_eta_below_strict_floor_rejected(self):
        # the blended vanished species would sit below EPS_ADMISSIBLE, where
        # no entropy variable maps to it
        spec = equal_d_spec()
        with pytest.raises(ValidationError) as info:
            regularize_initial(spec, np.array([[1.0, 0.0]]), 1e-16)
        assert (info.value.key, info.value.reason) == (
            "eta_floor",
            "1e-16 is too small: state touches the simplex boundary (floor 1e-14)",
        )

    def test_eta_out_of_range(self):
        spec = equal_d_spec()
        with pytest.raises(ValidationError) as info:
            regularize_initial(spec, np.array([[0.3, 0.3]]), 0.5)
        assert (info.value.key, info.value.reason) == (
            "eta_floor",
            "must lie in (0, 1/3)",
        )

    def test_shape_mismatch(self):
        spec = equal_d_spec()
        with pytest.raises(ValidationError) as info:
            regularize_initial(spec, np.ones((4, 3)) / 6, 1e-3)
        assert (info.value.key, info.value.reason) == (
            "initial",
            "initial data must be (cells, 2), got (4, 3)",
        )


def banded_system(spec, grid, tau, eps, w_bar, c_prev):
    """The banded system ``advance_step`` factors at the iterate ``w_bar``."""
    state = msdiff.stepper._evaluate(spec, np.array(w_bar, dtype=float))
    work = msdiff.stepper._Workspace(spec, grid, eps)
    ab = msdiff.stepper._assemble_banded(spec, grid, tau, state, work)
    return ab, msdiff.stepper._rhs(grid.h, tau, state, c_prev)


class TestAssembleLinearSystem:
    def test_small_instance_symmetric_positive_definite(self):
        spec = ternary_123_spec()
        grid = Grid1D(1.0, 3)
        rng = np.random.default_rng(9)
        w_bar = rng.normal(size=(3, 2))
        c_prev = w_to_c(w_bar + 0.1 * rng.normal(size=(3, 2)))
        ab, b = banded_system(spec, grid, 1e-3, 1e-8, w_bar, c_prev)
        # lower banded storage holds a symmetric matrix by construction
        assert ab.shape == (5, 6) and b.shape == (6,)
        cholesky_banded(ab, lower=True)  # raises if not positive definite
        assert eigvals_banded(ab, lower=True)[0] > 0.0

    def test_coercivity_bound_on_solution(self):
        # the eps*h*(L^2 + I) block bounds the smallest eigenvalue from
        # below by eps*h, so ||x|| <= ||b|| / (eps h) for any data
        spec = equal_d_spec()
        grid = Grid1D(1.0, 4)
        eps = 0.1
        rng = np.random.default_rng(14)
        w_bar = rng.normal(size=(4, 2))
        c_prev = w_to_c(rng.normal(size=(4, 2)))
        ab, b = banded_system(spec, grid, 1e-2, eps, w_bar, c_prev)
        x = cho_solve_banded((cholesky_banded(ab, lower=True), True), b)
        assert np.linalg.norm(x) <= np.linalg.norm(b) / (eps * grid.h)
        assert eigvals_banded(ab, lower=True)[0] >= eps * grid.h * (1 - 1e-12)


class TestBandAssembly:
    @pytest.mark.parametrize("n_species", [3, 4, 5])
    @pytest.mark.parametrize("cells", [2, 3, 7, 128])
    # "True" in the ids marks the augmented system and keeps the case names
    @pytest.mark.parametrize("eps", [0.0, 1e-3], ids=["0.0-True", "0.001-True"])
    def test_vectorised_scatter_matches_loops(self, n_species, cells, eps):
        spec = random_spec(n_species, seed=cells)
        grid = Grid1D(1.3, cells)
        rng = np.random.default_rng(n_species * 1000 + cells)
        w_bar = rng.normal(size=(cells, spec.n_reduced))
        c_prev = w_to_c(rng.normal(size=(cells, spec.n_reduced)))
        ab_ref, b_ref = loop_assemble(spec, grid, 0.01, eps, w_bar, c_prev)
        work = msdiff.stepper._Workspace(spec, grid, eps)
        state = msdiff.stepper._evaluate(spec, w_bar.copy())
        ab = msdiff.stepper._assemble_banded(spec, grid, 0.01, state, work)
        assert np.array_equal(ab, ab_ref)
        assert np.array_equal(msdiff.stepper._rhs(grid.h, 0.01, state, c_prev), b_ref)
        # the buffer is reused: a second assembly must not keep old entries
        ab = msdiff.stepper._assemble_banded(spec, grid, 0.01, state, work)
        assert np.array_equal(ab, ab_ref)

    @pytest.mark.parametrize("n_species", [3, 4, 5, 6])
    @pytest.mark.parametrize("cells", [2, 3, 7, 128])
    def test_band_product_matches_dense(self, n_species, cells):
        # at 2 cells the half-bandwidth 2N reaches the system size
        spec = random_spec(n_species, seed=cells)
        grid = Grid1D(1.3, cells)
        rng = np.random.default_rng(n_species * 100 + cells)
        w_bar = rng.normal(size=(cells, spec.n_reduced))
        c_prev = w_to_c(rng.normal(size=(cells, spec.n_reduced)))
        ab, _ = banded_system(spec, grid, 0.01, 1e-3, w_bar, c_prev)
        assert ab.flags.f_contiguous
        ab_ref, _ = loop_assemble(spec, grid, 0.01, 1e-3, w_bar, c_prev)
        assert np.array_equal(ab, ab_ref)
        size = ab.shape[1]
        S = np.zeros((size, size))
        for k in range(ab.shape[0]):
            idx = np.arange(size - k)
            S[idx + k, idx] = S[idx, idx + k] = ab[k, : size - k]
        x = rng.normal(size=size)
        y = msdiff.stepper._band_matvec(ab, x)
        scale = np.abs(S) @ np.abs(x)
        assert np.max(np.abs(y - S @ x)) <= 1e-14 * np.max(scale)

    def test_evaluation_arrays_are_read_only(self):
        spec = random_spec(5)
        w = np.zeros((4, 4))
        state = msdiff.stepper._evaluate(spec, w)
        for a in (state.w, state.c, state.cf, state.hinv, state.B, state.r):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_public_entry_leaves_caller_array_writable(self):
        spec, grid, params, c0 = heat_setup(cells=8)
        w0 = c_to_w(regularize_initial(spec, c0, params.eta_floor))
        advance_step(spec, grid, params, w0)
        w0[0, 0] = 0.0

    def test_carried_evaluation_must_be_of_w_prev(self):
        # the workspace is the only carry: an evaluation it holds is used
        # only when it is of w_prev; another state's gives a fresh step
        spec, grid, params, c0 = heat_setup(cells=8)
        w0 = c_to_w(regularize_initial(spec, c0, params.eta_floor))
        work = msdiff.stepper._Workspace(spec, grid, params.eps)
        step = advance_step(spec, grid, params, w0, work=work)
        assert work.held[0] is step.state
        nxt = advance_step(spec, grid, params, step.w, work=work)
        assert np.array_equal(nxt.w, advance_step(spec, grid, params, step.w).w)
        again = advance_step(spec, grid, params, w0, work=work)
        assert np.array_equal(again.w, step.w)
        assert again.iterations == step.iterations

    def test_workspace_must_be_built_for_params_eps(self):
        # a workspace holds the eps bands of the one eps it was built for;
        # one built for another eps is replaced, giving a fresh step
        spec, grid, params, c0 = heat_setup(cells=8)
        w0 = c_to_w(regularize_initial(spec, c0, params.eta_floor))
        work = msdiff.stepper._Workspace(spec, grid, params.eps)
        step = advance_step(spec, grid, params, w0, work=work)
        assert np.array_equal(step.w, advance_step(spec, grid, params, w0).w)
        eps2 = replace(params, eps=2 * params.eps)
        other = advance_step(spec, grid, eps2, w0, work=work)
        assert np.array_equal(other.w, advance_step(spec, grid, eps2, w0).w)


class TestAdvanceStep:
    @pytest.mark.parametrize("shape", [(15, 2), (16, 3), (32,)])
    def test_previous_state_of_another_shape_rejected(self, shape):
        # the assembly would fail on it with an untyped numpy error
        grid = Grid1D(1.0, 16)
        params = SchemeParams(tau=1e-3, t_end=1.0)
        with pytest.raises(ValidationError) as info:
            advance_step(ternary_123_spec(), grid, params, np.zeros(shape))
        assert info.value.key == "w_prev"

    def test_constant_state_matches_root_oracle(self):
        spec = ternary_123_spec()
        grid = Grid1D(1.0, 8)
        tau, eps = 0.1, 1e-3
        params = SchemeParams(tau=tau, t_end=1.0, eps=eps, picard_tol=1e-12)
        c_row = np.array([0.5, 0.25])
        w0 = c_to_w(np.tile(c_row, (8, 1)))
        step = advance_step(spec, grid, params, w0)
        # stays spatially constant
        assert np.max(np.abs(step.w - step.w.mean(axis=0))) <= 1e-12
        w_oracle = fsolve(
            lambda w: w_to_c(w) + eps * tau * w - c_row, c_to_w(c_row), xtol=1e-14
        )
        np.testing.assert_allclose(step.w[0], w_oracle, atol=1e-10)

    def test_constant_state_mass_shift_identity(self):
        spec = ternary_123_spec()
        grid = Grid1D(2.0, 8)
        tau, eps = 0.05, 1e-4
        params = SchemeParams(tau=tau, t_end=1.0, eps=eps, picard_tol=1e-13)
        c_prev = np.tile([0.4, 0.3], (8, 1))
        step = advance_step(spec, grid, params, c_to_w(c_prev))
        shift = integrate(grid, w_to_c(step.w)) - integrate(grid, c_prev)
        predicted = -eps * tau * integrate(grid, step.w)
        np.testing.assert_allclose(shift, predicted, atol=1e-13)
        assert np.max(np.abs(shift)) <= eps * tau * grid.length * np.max(
            np.abs(step.w)
        ) * (1 + 1e-12)

    def test_smooth_step_telemetry(self):
        spec, grid, params, c0 = heat_setup(cells=32)
        w0 = c_to_w(regularize_initial(spec, c0, params.eta_floor))
        step = advance_step(spec, grid, params, w0)
        assert step.restarts == 0
        assert 1 <= step.iterations <= 25

    def test_converged_state_solves_plain_system(self):
        # the solver iterates an augmented splitting; its fixed point must
        # satisfy the unmodified scheme, checked here cell by cell in strong
        # form from the public grid and mixture operators:
        #   (c(w) - c_prev)/tau - div(B_f grad w) + eps (L(L w) + w) - r = 0
        for spec, grid, params, c0 in (heat_setup(cells=16), rough_setup()):
            c_prev = regularize_initial(spec, c0, params.eta_floor)
            w = advance_step(spec, grid, params, c_to_w(c_prev)).w
            c = w_to_c(w)
            B = mobility_matrix(spec, c)
            Bf = np.zeros((grid.cells + 1,) + B.shape[1:])
            Bf[1:-1] = 0.5 * (B[:-1] + B[1:])
            Bf = 0.5 * (Bf + np.swapaxes(Bf, -1, -2))
            flux = np.einsum("fij,fj->fi", Bf, face_gradient(grid, w))

            def lap(f):
                return divergence(grid, face_gradient(grid, f))

            r = production_rates(spec.production, full_concentrations(c))
            terms = (
                (c - c_prev) / params.tau,
                -divergence(grid, flux),
                params.eps * (lap(lap(w)) + w),
                -r[:, : spec.n_reduced],
            )
            scale = max(float(np.max(np.abs(t))) for t in terms)
            assert np.max(np.abs(sum(terms))) <= 1e-9 * scale

    def test_step_ignores_picard_tol(self):
        # the residual floor is the only exit, so no tolerance can hold a
        # converged step open
        spec, grid, params, c0 = materialize(config_from_pairs(list(FIVE_SPECIES)))
        w0 = c_to_w(regularize_initial(spec, c0, params.eta_floor))
        step = advance_step(spec, grid, params, w0)
        tight = advance_step(spec, grid, replace(params, picard_tol=1e-300), w0)
        assert np.array_equal(tight.w, step.w)
        assert tight.iterations == step.iterations

    def test_rough_data_converges_with_backtracking_budget(self):
        spec, grid, params, c0 = rough_setup()
        w0 = c_to_w(regularize_initial(spec, c0, params.eta_floor))
        step = advance_step(spec, grid, params, w0)
        assert step.iterations <= params.picard_max
        assert np.all(np.isfinite(step.w))
        cf = full_concentrations(w_to_c(step.w))
        assert cf.min() > 0.0

    def test_unit_iteration_budget_diverges_on_rough_data(self):
        spec, grid, params, c0 = rough_setup(picard_max=1)
        w0 = c_to_w(regularize_initial(spec, c0, params.eta_floor))
        with pytest.raises(NonlinearDivergence):
            advance_step(spec, grid, params, w0)

    def test_failed_cholesky_is_a_failed_step_attempt(self):
        # a band matrix that is not positive definite fails the step
        # attempt, so run_simulation retries it with a halved step size
        ab = np.zeros((3, 4), order="F")
        ab[0] = [1.0, 1.0, -1.0, 1.0]
        with pytest.raises(NonlinearDivergence, match="banded Cholesky failed"):
            msdiff.stepper._solve_checked(ab, np.ones(4), 2.0)

    @staticmethod
    def uphill_start():
        spec, grid, params, c0 = materialize(
            config_from_pairs([("scenario", "ternary_uphill"), ("cells", "16")])
        )
        w0 = c_to_w(regularize_initial(spec, c0, params.eta_floor))
        return spec, grid, params, w0

    @pytest.mark.parametrize(
        "spoil,message",
        [
            (lambda x: np.full_like(x, np.nan), "linear solver produced non-finite"),
            # the true solution scaled by 1 + 1e-3 fails the 1e-12 backward error
            (lambda x: x * (1.0 + 1e-3), r"linear solve residual .* exceeds 1e-12"),
        ],
        ids=["non-finite", "backward-error"],
    )
    def test_spoiled_linear_solution_fails_the_step(self, spoil, message, monkeypatch):
        spec, grid, params, w0 = self.uphill_start()
        solve = msdiff.stepper.solveh_banded
        monkeypatch.setattr(
            msdiff.stepper, "solveh_banded", lambda *a, **k: spoil(solve(*a, **k))
        )
        with pytest.raises(NonlinearDivergence, match=message):
            advance_step(spec, grid, params, w0)

    def test_direction_without_descent_exhausts_the_restarts(self, monkeypatch):
        # a zero update leaves the residual where it is, so every
        # backtracking search fails and the third restart ends the step
        spec, grid, params, w0 = self.uphill_start()
        work = msdiff.stepper._Workspace(spec, grid, params.eps)
        # the matrix is always assembled at the iterate being updated
        monkeypatch.setattr(
            msdiff.stepper, "_solve_checked", lambda *args: work.held[0].w.ravel()
        )
        with pytest.raises(NonlinearDivergence, match="failed after 3 restarts"):
            advance_step(spec, grid, params, w0, work=work)

    def test_relaxation_restart_rescues_first_uphill_step(self):
        # the first step of ternary_uphill at eps = 1e-5 needs one restart at
        # the halved relaxation and converges at the full tau; without the
        # restart, halving tau five times does not rescue the run
        config = config_from_pairs(
            [("scenario", "ternary_uphill"), ("eps", "1e-5"), ("t_end", "5e-3")]
        )
        spec, grid, params, c0 = materialize(config)
        w0 = c_to_w(regularize_initial(spec, c0, params.eta_floor))
        step = advance_step(spec, grid, params, w0)
        assert step.restarts == 1
        assert step.iterations == 53
        result = run_simulation(spec, grid, params, c0)
        assert result.steps == 5 and result.tau_retries == 0
        assert len(result.verdicts) == 5
        assert all(v.passed for v in result.verdicts)

    def test_tiny_step_changes_state_little(self):
        # regression band: the floored composition step still moves by a few
        # 1e-5 in one tau = 1e-8 step because the initial gradients are huge
        spec, grid, params, c0 = rough_setup(tau=1e-8)
        c_reg = regularize_initial(spec, c0, params.eta_floor)
        step = advance_step(spec, grid, params, c_to_w(c_reg))
        dc = np.max(np.abs(w_to_c(step.w) - c_reg))
        assert 1e-7 <= dc <= 1e-4


def fail_from_call(monkeypatch, name, first, outcome):
    """Make ``msdiff.stepper.<name>`` raise ``outcome`` from its call number
    ``first`` on, or return it if it is not an exception."""
    original = getattr(msdiff.stepper, name)
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) < first:
            return original(*args, **kwargs)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(msdiff.stepper, name, wrapped)


def failing_verdict(t):
    return AuditVerdict(
        time=t,
        entropy_ok=False,
        entropy_margin=-1.0,
        mass_ok=True,
        mass_margin=0.0,
        bounds_ok=True,
        bounds_margin=0.1,
        dissipation_ok=True,
        dissipation_margin=0.0,
    )


class TestRunSimulation:
    def test_zero_t_end_yields_initial_record_only(self):
        spec, grid, params, c0 = heat_setup(t_end=0.0)
        result = run_simulation(spec, grid, params, c0)
        assert result.steps == 0
        assert result.t_final == 0.0
        assert len(result.records) == 1
        assert result.records[0].time == 0.0

    def test_heat_run_invariants(self):
        spec, grid, params, c0 = heat_setup(cells=32, t_end=0.02)
        result = run_simulation(spec, grid, params, c0)
        assert result.steps == 20
        assert result.t_final == pytest.approx(0.02)
        assert len(result.records) == 21
        assert len(result.verdicts) == 20
        assert all(v.passed for v in result.verdicts)
        assert result.clamp_count == 0
        entropies = [r.entropy for r in result.records]
        assert all(b < a for a, b in zip(entropies, entropies[1:]))
        assert min(r.min_c for r in result.records) > 0.0

    def test_mass_drift_matches_w_integral(self):
        spec, grid, params, c0 = heat_setup(cells=24, t_end=0.015)
        result = run_simulation(spec, grid, params, c0)
        drift = (
            integrate(grid, result.c) - result.initial_masses[: spec.n_reduced]
        )
        predicted = -params.eps * result.w_time_integral
        np.testing.assert_allclose(drift, predicted, atol=1e-12)

    def test_record_thinning_keeps_ends(self):
        spec, grid, params, c0 = heat_setup(t_end=0.02)
        result = run_simulation(spec, grid, params, c0, record_every=7)
        times = [r.time for r in result.records]
        np.testing.assert_allclose(times, [0.0, 0.007, 0.014, 0.02], atol=1e-12)

    def test_short_last_step_lands_on_t_end(self):
        spec, grid, params, c0 = heat_setup(t_end=0.0105)
        result = run_simulation(spec, grid, params, c0)
        assert result.steps == 11
        assert result.t_final == pytest.approx(0.0105, abs=1e-12)

    def test_hooks_see_every_step(self):
        spec, grid, params, c0 = heat_setup(t_end=0.005)
        c_reg = regularize_initial(spec, c0, params.eta_floor)
        seen = []

        def hook(k, t, cf, w, record):
            # read-only like w itself: at step 0 the regularized data's N+1
            # fractions, afterwards the solver's N+1 fractions of w
            assert cf.shape == (grid.cells, spec.n_species)
            assert w.shape == (grid.cells, spec.n_reduced)
            assert not cf.flags.writeable and not w.flags.writeable
            if k == 0:
                assert t == 0.0
                assert np.array_equal(cf, full_concentrations(c_reg))
                assert np.array_equal(w, c_to_w(c_reg))
            else:
                assert np.array_equal(cf[:, :-1], w_to_c(w))
            assert record.time == pytest.approx(t)
            seen.append(k)

        run_simulation(spec, grid, params, c0, hooks=[hook])
        assert seen == [0, 1, 2, 3, 4, 5]

    def test_every_record_holds_the_one_reference(self):
        spec, grid, params, c0 = heat_setup(t_end=0.005)
        held = []
        result = run_simulation(
            spec, grid, params, c0, hooks=[lambda *a: held.append(a[-1].reference)]
        )
        ref = result.records[0].reference
        assert not ref.flags.writeable
        assert all(r.reference is ref for r in result.records)
        assert all(r is ref for r in held) and len(held) == 6
        assert np.array_equal(ref, result.initial_masses / result.initial_masses.sum())
        assert not hasattr(result, "reference")

    def test_enforce_mode_aborts_on_audit_failure(self, monkeypatch):
        spec, grid, params, c0 = heat_setup(t_end=0.01)
        monkeypatch.setattr(
            msdiff.stepper, "audit_step", lambda *a, **kw: failing_verdict(a[5])
        )
        with pytest.raises(AuditFailure) as info:
            run_simulation(spec, grid, params, c0)
        partial = info.value.partial
        assert isinstance(partial, SimulationResult)
        assert partial.steps == 1
        assert len(partial.records) == 2  # initial plus offending step

    def test_audit_off_records_no_verdicts(self):
        spec, grid, params, c0 = heat_setup(t_end=0.003)
        result = run_simulation(spec, grid, params, c0, audit_mode="off")
        assert result.verdicts == []
        assert result.steps == 3

    def test_divergence_exhausts_step_halving_and_aborts(self):
        spec, grid, params, c0 = rough_setup(picard_max=1, t_end=1e-3)
        with pytest.raises(SimulationAborted) as info:
            run_simulation(spec, grid, params, c0)
        partial = info.value.partial
        assert partial.steps == 0
        assert partial.tau_retries == 5
        assert len(partial.records) == 1

    def test_rough_run_keeps_implied_fraction_positive(self):
        # after 9 step halvings step 2 holds a third fraction below 1e-16,
        # where 1 - sum(c) would round to 0.0; the record carries it from w
        spec, grid, params, c0 = rough_setup(picard_max=11, t_end=3.5e-3)
        result = run_simulation(spec, grid, params, c0)
        assert all(v.passed for v in result.verdicts)

    @pytest.mark.xfail(
        raises=AuditFailure,
        strict=True,
        reason="||S||_F of about 4.6e5 lifts the residual floor to 9.3e-8, so "
        "step 4 is accepted unconverged with mass identity defect 7.0e-9",
    )
    def test_stiff_short_domain_run_conserves_mass(self):
        config = config_from_pairs([
            ("species", "4"),
            ("D", "5.1368,14.013,0.068438,0.12226,0.049787,9.7265"),
            ("eps", "5.98e-05"),
            ("length", "0.107"),
            ("cells", "46"),
            ("tau", "0.0153"),
            ("t_end", "0.0763"),
            ("initial", "step:0.2755,0.3490,0.0521;0.0298,0.3009,0.0128"),
        ])
        result = run_simulation(*materialize(config))
        assert all(v.passed for v in result.verdicts)

    @pytest.mark.parametrize(
        "setup",
        [
            lambda: heat_setup(t_end=0.0105),
            # one natural step-size retry at picard_max=20, on top of the forced one
            lambda: rough_setup(picard_max=20, t_end=3.5e-3),
        ],
        ids=["heat", "rough"],
    )
    def test_carried_assembly_matches_fresh_assembly(self, setup, monkeypatch):
        # a step starting at its predecessor's accepted state reuses that
        # state's assembly; assembling afresh must give the same bits
        spec, grid, params, c0 = setup()
        original_step = msdiff.stepper.advance_step
        original_assemble = msdiff.stepper._assemble_banded

        def run(workspace):
            calls = {"steps": 0, "assemblies": 0}

            def flaky_step(*args, **kwargs):
                step = original_step(*args, **kwargs)
                calls["steps"] += 1
                if calls["steps"] == 3:  # discard a converged step: a tau retry
                    raise NonlinearDivergence("forced retry")
                return step

            def counted_assemble(*args, **kwargs):
                calls["assemblies"] += 1
                return original_assemble(*args, **kwargs)

            monkeypatch.setattr(msdiff.stepper, "_Workspace", workspace)
            monkeypatch.setattr(msdiff.stepper, "advance_step", flaky_step)
            monkeypatch.setattr(msdiff.stepper, "_assemble_banded", counted_assemble)
            return run_simulation(spec, grid, params, c0), calls["assemblies"]

        class FreshWorkspace(msdiff.stepper._Workspace):
            held = property(lambda self: None, lambda self, value: None)

        carried, carried_assemblies = run(msdiff.stepper._Workspace)
        fresh, fresh_assemblies = run(FreshWorkspace)
        assert carried.tau_retries >= 1
        assert carried.t_final == pytest.approx(params.t_end, abs=1e-12)
        assert carried_assemblies < fresh_assemblies
        assert [r.picard_iterations for r in carried.records] == [
            r.picard_iterations for r in fresh.records
        ]
        assert np.array_equal(carried.w, fresh.w)
        assert np.array_equal(carried.c, fresh.c)
        assert pickle.dumps(carried) == pickle.dumps(fresh)

    def test_validation_of_run_arguments(self):
        spec, grid, params, c0 = heat_setup()
        # "warn" was retired: a run either passes every audit or raises
        for mode in ("loud", "warn"):
            with pytest.raises(ValidationError):
                run_simulation(spec, grid, params, c0, audit_mode=mode)
        with pytest.raises(ValidationError):
            run_simulation(spec, grid, params, c0, record_every=0)

    @pytest.mark.parametrize("rows", [15, 17])
    def test_initial_data_of_another_row_count_rejected(self, rows):
        spec, grid, params, c0 = heat_setup()
        c0 = np.resize(c0, (rows, c0.shape[1]))
        with pytest.raises(ValidationError) as info:
            run_simulation(spec, grid, params, c0)
        assert info.value.key == "initial"
        assert str(grid.cells) in info.value.reason

    def test_zero_eps_rejected_at_run_time(self):
        with pytest.raises(ValidationError):
            spec, grid, params, c0 = heat_setup(eps=0.0)
            run_simulation(spec, grid, params, c0)

    @pytest.mark.parametrize(
        "outcome,error",
        [("return", None), ("audit", AuditFailure), ("abort", SimulationAborted)],
    )
    def test_every_exit_keeps_the_last_state(self, outcome, error, monkeypatch):
        # every run ends at step 15, and record_every=7 stores steps 7 and 14
        t_end = 0.015 if outcome == "return" else 0.05
        spec, grid, params, c0 = heat_setup(t_end=t_end)
        if outcome == "audit":
            fail_from_call(monkeypatch, "audit_step", 15, failing_verdict(0.015))
        elif outcome == "abort":
            forced = NonlinearDivergence("forced")
            fail_from_call(monkeypatch, "advance_step", 16, forced)
        if error is None:
            result = run_simulation(spec, grid, params, c0, record_every=7)
        else:
            with pytest.raises(error) as info:
                run_simulation(spec, grid, params, c0, record_every=7)
            result = info.value.partial
        times = [r.time for r in result.records]
        np.testing.assert_allclose(times, [0.0, 0.007, 0.014, 0.015], atol=1e-12)
        last = result.records[-1]
        assert result.steps == 15 and last.time == result.t_final
        # the last record describes result.w
        cf = msdiff.stepper._w_to_cf(result.w)
        assert np.array_equal(last.masses, integrate(grid, cf))
        drift = last.masses[:-1] - result.initial_masses[:-1]
        predicted = (
            -params.eps * result.w_time_integral + result.production_time_integral
        )
        assert np.max(np.abs(drift - predicted)) <= 1e-15
