"""Implicit time stepping in entropy variables.

One step of the scheme solves, for the new entropy-variable field w, the
cell-centered system

    (1/tau) (c(w) - c_prev, v)  +  (B(w) grad w, grad v)
        + eps ((L w, L v) + (w, v))  =  (r(c(w)), v)

for all test fields v, with zero-flux walls.  The nonlinearity is handled
by freezing the mobility, the production term and the concentration map at
the current iterate and solving the resulting symmetric positive definite
banded system.  That frozen map alone converges hopelessly slowly for small
eps, so the update adds the state-derivative mass term (h/tau) Hinv(w_bar)
(w - w_bar) to both sides: it vanishes at any fixed point, so the solved
states are the same, and the iteration gains Newton-like local convergence.
A step is accepted once the residual of an iterate falls to the rounding
level of the terms it sums; no increment or iteration-count test ends it.

Each iterate w is evaluated once: its fractions c(w) are checked once, and
the Hessian inverse, mobility and production rates built from them are kept,
read-only, in one private evaluation that the assembly, the step record,
the audit and the next step all read.  The public entry points
(``advance_step``, ``run_simulation``) keep their input checks.

Unknowns are ordered cell-major (all species of cell 0, then cell 1, ...),
which keeps the matrix banded with half-bandwidth 2N: couplings reach one
cell for the mobility stiffness and two cells for the bilaplacian
regularization.  The bands sit in one Fortran-ordered LAPACK lower-band
buffer for the banded Cholesky and the BLAS band product ``dsbmv``; a
workspace holds that buffer and the eps bands of the one eps it was built
for.  The matrix does not depend on c_prev, so a step starting at the state
its predecessor accepted reuses that assembly and rebuilds only the
right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solveh_banded
from scipy.linalg.blas import dsbmv

from .config import SchemeParams
from .diagnostics import (
    AuditVerdict,
    DiagnosticsRecord,
    audit_step,
    solver_slack,
    _dissipation,
    _entropy,
    _relative_entropy,
)
from .errors import (
    AuditFailure,
    InadmissibleState,
    NonlinearDivergence,
    SimulationAborted,
    ValidationError,
)
from .grid import Grid1D, integrate, laplacian_squared_lower_bands
from .mixture import (
    MixtureSpec,
    c_to_w,
    full_concentrations,
    mobility_matrix,
    production_rates,
    _hessian_inverse,
    _mobility,
    _require_admissible,
    _require_strict,
    _w_to_cf,
)

StepHook = Callable[[int, float, np.ndarray, np.ndarray, DiagnosticsRecord], None]


@dataclass(frozen=True)
class _State:
    """One fixed-point iterate ``w``, evaluated once.

    Holds all N+1 fractions ``cf`` of ``w``, the last one computed from
    ``w`` and not as ``1 - sum(c)``, their first N columns ``c = w_to_c(w)``,
    the entropy Hessian inverse, the mobility ``B`` and the production rates
    ``r`` of the first N species, every array read-only so no consumer can
    make them disagree.  The record, the audit and the hooks read these.
    """

    w: np.ndarray
    c: np.ndarray
    cf: np.ndarray
    hinv: np.ndarray
    B: np.ndarray
    r: np.ndarray


def _evaluate(spec: MixtureSpec, w: np.ndarray) -> _State:
    """Evaluate the iterate ``w``; its fractions are checked here, once."""
    cf = _w_to_cf(w)
    c = _require_admissible(cf[..., :-1])  # also rejects a NaN field
    hinv = _hessian_inverse(c)
    state = _State(
        w=w,
        c=c,
        cf=cf,
        hinv=hinv,
        B=_mobility(spec, c, hinv),
        r=production_rates(spec.production, cf)[:, : spec.n_reduced],
    )
    for a in (w, c, cf, hinv, state.B, state.r):
        a.setflags(write=False)
    return state


@dataclass(frozen=True)
class StepResult:
    """Converged state of one implicit step, its iterations and restarts.

    ``state`` is the evaluation of ``w`` that the solver built and checked
    while accepting it; ``run_simulation`` reads the step record from it,
    and the next ``advance_step`` finds it in the workspace instead of
    evaluating ``w`` again.  ``w`` and every array of ``state`` are
    read-only.
    """

    w: np.ndarray
    iterations: int
    restarts: int
    state: _State = field(repr=False, compare=False)


@dataclass
class SimulationResult:
    """Trajectory handle returned by ``run_simulation``.

    ``records`` is thinned by ``record_every`` but keeps the initial state
    and, for every outcome, the last state reached (``w`` at ``t_final``);
    each holds the run's reference, ``initial_masses`` over their sum.
    ``verdicts`` covers every accepted step, ``tau_retries`` the step-size
    retries made, at most five per step.  The running
    sums ``w_time_integral`` and ``production_time_integral`` accumulate
    tau * integral(w) and tau * integral(r) over all steps, which together
    predict the exact per-species mass drift.  ``picard_iterations_total``
    sums the inner iterations of the ``steps`` counted, a step whose audit
    failed included.  ``clamp_count`` exists so downstream reports can
    state it: the scheme never projects or clips a state, so it stays zero.
    """

    spec: MixtureSpec
    grid: Grid1D
    params: SchemeParams
    records: list[DiagnosticsRecord] = field(default_factory=list)
    verdicts: list[AuditVerdict] = field(default_factory=list)
    c: np.ndarray | None = None
    w: np.ndarray | None = None
    t_final: float = 0.0
    steps: int = 0
    initial_masses: np.ndarray | None = None
    w_time_integral: np.ndarray | None = None
    production_time_integral: np.ndarray | None = None
    clamp_count: int = 0
    tau_retries: int = 0
    picard_iterations_total: int = 0


def regularize_initial(spec: MixtureSpec, c0: np.ndarray, eta: float) -> np.ndarray:
    """Blend admissible initial data toward the uniform mixture.

    Returns (1 - (N+1) eta) c0 + eta, which keeps every fraction, the
    implied one included, at least eta away from zero while moving each
    value by at most (N+1) eta.  Constant fields stay constant.  Data with
    negative fractions or cell sums beyond one (past rounding, 1e-12) is
    rejected rather than repaired, as is an eta too small to lift every
    blended fraction to ``EPS_ADMISSIBLE``.
    """
    n1 = spec.n_species
    if not 0.0 < eta < 1.0 / n1:
        raise ValidationError("eta_floor", f"must lie in (0, 1/{n1})")
    c0 = np.asarray(c0, dtype=float)
    if c0.ndim != 2 or c0.shape[1] != spec.n_reduced:
        raise ValidationError(
            "initial",
            f"initial data must be (cells, {spec.n_reduced}), got {c0.shape}",
        )
    if np.any(c0 < 0.0):
        raise ValidationError("initial", "negative initial fraction")
    if np.any(c0.sum(axis=-1) > 1.0 + 1e-12):
        raise ValidationError("initial", "initial fractions exceed unit sum")
    try:
        return _require_strict((1.0 - n1 * eta) * c0 + eta)
    except InadmissibleState as exc:
        raise ValidationError("eta_floor", f"{eta:g} is too small: {exc}") from None


class _Workspace:
    """Preallocated buffers, scatter indices and eps bands reused across
    the assemblies of one run at one eps.

    ``ab`` is banded storage, ab[k, q] = S[q + k, q], in Fortran order, which
    ``dsbmv`` reads in place; ``block_at`` and ``coupling_at`` are flat
    column-major positions in it: one row per cell for the lower triangle of
    its diagonal block, in ``tril`` order, and one row per interior face for
    the full block coupling its right cell to its left.  ``eps_ab`` holds
    ``eps h (L^2 + I)`` in the same storage for the workspace's ``eps``.
    ``held`` is ``(state, tau, ||S||_F, S w)`` of the matrix in ``ab`` when
    ``advance_step`` assembled it, None after any other assembly; a step
    whose ``w_prev`` is ``held``'s ``state.w`` starts from that state.
    """

    def __init__(self, spec: MixtureSpec, grid: Grid1D, eps: float):
        n, m = spec.n_reduced, grid.cells
        rows = 2 * n + 1
        self.ab = np.empty((rows, n * m), order="F")
        self.eps = eps
        first = n * np.arange(m)[:, None]
        self.tril = np.tril_indices(n)
        i, j = self.tril
        self.block_at = (first + j) * rows + (i - j)
        i, j = np.divmod(np.arange(n * n), n)
        self.coupling_at = (first[:-1] + j) * rows + (n + i - j)
        l0, l1, l2 = laplacian_squared_lower_bands(grid)
        s = eps * grid.h
        self.eps_ab = np.zeros_like(self.ab)
        self.eps_ab[0] = np.repeat(s * (l0 + 1.0), n)
        self.eps_ab[n, : (m - 1) * n] = np.repeat(s * l1, n)
        self.eps_ab[2 * n, : (m - 2) * n] = np.repeat(s * l2, n)
        self.held: tuple | None = None


def _rhs(h: float, tau: float, state: _State, c_prev, hinv_scaled) -> np.ndarray:
    """The system's right-hand side, its only part that reads ``c_prev``."""
    b = (h / tau) * (c_prev - state.c)
    b += h * state.r
    b += np.einsum("mij,mj->mi", hinv_scaled, state.w)  # state.hinv * (h / tau)
    return b.ravel()


def _assemble_banded(
    spec: MixtureSpec,
    grid: Grid1D,
    tau: float,
    state: _State,
    c_prev: np.ndarray,
    work: _Workspace,
) -> tuple[np.ndarray, np.ndarray]:
    """Build the augmented frozen-coefficient system at ``state`` in
    lower-banded form.

    Storage follows the LAPACK convention ab[k, q] = S[q + k, q].  Face
    mobilities are averaged from the two neighboring cells and symmetrized
    so the assembled matrix is symmetric to the last bit.  ``ab`` starts as
    a copy of the workspace's eps-bilaplacian bands; the block and
    coupling entries occupy disjoint positions, so each entry receives one
    term added to its eps part, which equals adding the eps part last.
    """
    n = spec.n_reduced
    m = grid.cells
    h = grid.h
    ab = work.ab
    work.held = None
    np.copyto(ab, work.eps_ab)
    B = state.B
    Bf = 0.5 * (B[:-1] + B[1:])
    Bf = 0.5 * (Bf + np.swapaxes(Bf, -1, -2))
    dblk = np.zeros((m, n, n))
    dblk[1:] += Bf
    dblk[:-1] += Bf
    dblk /= h
    hinv = state.hinv * (h / tau)
    dblk += hinv
    flat = ab.ravel(order="F")
    i, j = work.tril
    flat[work.block_at] += dblk[:, i, j]
    flat[work.coupling_at] += (Bf / (-h)).reshape(m - 1, n * n)
    return ab, _rhs(h, tau, state, c_prev, hinv)


def _band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S x for the symmetric matrix in Fortran-ordered lower storage ``ab``."""
    return dsbmv(ab.shape[0] - 1, 1.0, ab, x, lower=1)


def _norm(v: np.ndarray) -> float:
    return math.sqrt(float(v @ v))


def _solve_checked(ab: np.ndarray, b: np.ndarray, norm_S: float) -> np.ndarray:
    """Solve the banded system by Cholesky and check the solution.

    A failed factorization, a non-finite solution or a backward-error
    residual ||S x - b|| / (||S||_F ||x|| + ||b||) above 1e-12 raises
    ``NonlinearDivergence``; ``norm_S`` is ||S||_F, and S x one ``dsbmv``
    call on the Fortran-ordered bands.
    """
    try:
        x = solveh_banded(ab, b, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NonlinearDivergence(f"banded Cholesky failed: {exc}") from exc
    if not np.isfinite(x).all():
        raise NonlinearDivergence("linear solver produced non-finite values")
    denom = max(norm_S * _norm(x) + _norm(b), 1e-300)
    resid = _norm(_band_matvec(ab, x) - b) / denom
    if resid > 1e-12:
        raise NonlinearDivergence(f"linear solve residual {resid:.3e} exceeds 1e-12")
    return x


def advance_step(
    spec: MixtureSpec,
    grid: Grid1D,
    params: SchemeParams,
    w_prev: np.ndarray,
    tau: float | None = None,
    work: _Workspace | None = None,
) -> StepResult:
    """Advance the state by one implicit step.

    Damped fixed-point iterations start from the previous state.  Each
    update direction comes from the augmented frozen system; the effective
    relaxation is chosen by backtracking until the nonlinear residual
    decreases, which keeps the iteration globally convergent even for
    near-vacuum states whose entropy variables jump by tens between
    neighboring cells.  The step is accepted at the first iterate whose
    residual ||S w - b|| reaches its floor

        1e-14 (||S||_F ||w|| + ||b|| + (h/tau) ||c(w)||),

    the rounding level of the terms the residual sums, the (h/tau) c(w)
    term included although it cancels against c_prev inside b.  That is
    the only exit: it certifies a fixed point to working precision, at the
    homogeneous steady state too.

    A failed backtracking search restarts the iteration from the previous
    state with the relaxation halved, within the same budget.  A fourth
    failed search, a spent budget or a failed banded solve raises
    ``NonlinearDivergence``, which ``run_simulation`` answers by halving
    tau.  The restart is not a duplicate of that step-size retry: the first
    step of ternary_uphill at eps = 1e-5 needs one restart and converges at
    the full tau, while without the restart halving tau five times does not
    rescue it, and at eps = 1e-6 four retries stand in for the one restart.

    Every iterate, trial points of the backtracking included, is evaluated
    once (fractions checked, mobility and production built) and assembled
    from that evaluation.  ``work`` is all a run carries between steps: it
    holds the accepted state's evaluation and assembly, so a next call with
    the same ``work`` and that state's ``w`` array (``StepResult.w``) as
    ``w_prev`` starts from that evaluation, and at the same tau also from
    that assembly: only the right-hand side is rebuilt.  Any other
    ``w_prev`` is evaluated afresh, and a ``work`` built for an eps other
    than ``params.eps`` is replaced by a fresh one.
    """
    tau = params.tau if tau is None else tau
    if work is None or work.eps != params.eps:
        work = _Workspace(spec, grid, params.eps)
    held = work.held
    if held is not None and held[0].w is w_prev:
        prev = held[0]
    else:
        w = np.array(w_prev, dtype=float)
        if w.shape != (grid.cells, spec.n_reduced):
            raise ValidationError(
                "w_prev", f"must be ({grid.cells}, {spec.n_reduced}), got {w.shape}"
            )
        prev = _evaluate(spec, w)
    c_prev = prev.c
    h_tau = grid.h / tau
    theta = 1.0
    restarts = iterations = 0

    def assemble_at(state: _State) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Assemble at a state; return system, rhs, its norm and the residual there."""
        held = work.held
        if held is not None and held[0] is state and held[1] == tau:
            b = _rhs(grid.h, tau, state, c_prev, state.hinv * h_tau)
            return work.ab, b, held[2], _norm(held[3] - b)
        ab, b = _assemble_banded(spec, grid, tau, state, c_prev, work)
        # ||S||_F: twice all squared bands (the unused corner is 0) less the diagonal's
        flat = ab.ravel(order="F")
        norm_S = math.sqrt(2.0 * float(flat @ flat) - float(ab[0] @ ab[0]))
        Sw = _band_matvec(ab, state.w.ravel())
        work.held = (state, tau, norm_S, Sw)
        return ab, b, norm_S, _norm(Sw - b)

    acc = prev
    ab, b, norm_S, f_acc = assemble_at(acc)
    while iterations < params.picard_max:
        x = _solve_checked(ab, b, norm_S)
        d = x.reshape(acc.w.shape) - acc.w
        s = 1.0
        for _ in range(11):
            trial = _evaluate(spec, acc.w + (theta * s) * d)
            ab, b, norm_S, f_try = assemble_at(trial)
            c_norm = _norm(trial.c.ravel())
            floor = 1e-14 * (
                norm_S * _norm(trial.w.ravel()) + _norm(b) + h_tau * c_norm
            )
            if f_try <= (1.0 - 1e-4 * theta * s) * f_acc or f_try <= floor:
                break
            s *= 0.5
        else:  # the backtracking failed: restart at half the relaxation
            restarts += 1
            if restarts > 3:
                raise NonlinearDivergence(
                    f"backtracking failed after {restarts - 1} restarts"
                )
            theta *= 0.5
            acc = prev
            ab, b, norm_S, f_acc = assemble_at(acc)
            continue
        iterations += 1
        acc = trial
        f_acc = f_try
        if f_acc <= floor:
            return StepResult(
                w=acc.w,
                iterations=iterations,
                restarts=restarts,
                state=acc,
            )
    raise NonlinearDivergence(
        f"residual above its floor after {params.picard_max} iterations"
    )


def _make_record(
    grid: Grid1D,
    t: float,
    B: np.ndarray,
    cf: np.ndarray,
    w: np.ndarray,
    reference: np.ndarray,
    iterations: int,
) -> DiagnosticsRecord:
    """Diagnostics of the state w from its mobilities and full fractions."""
    raw, sqrt_form = _dissipation(grid, B, cf, w)
    return DiagnosticsRecord(
        time=t,
        entropy=_entropy(grid, cf),
        relative_entropy=_relative_entropy(grid, cf, reference),
        dissipation_sqrt=sqrt_form,
        dissipation_raw=raw,
        masses=integrate(grid, cf),
        min_c=float(np.min(cf)),
        picard_iterations=iterations,
        reference=reference,
    )


def run_simulation(
    spec: MixtureSpec,
    grid: Grid1D,
    params: SchemeParams,
    c0: np.ndarray,
    audit_mode: str = "enforce",
    hooks: Sequence[StepHook] | None = None,
    record_every: int = 1,
) -> SimulationResult:
    """Run the scheme from regularized initial data to the final time.

    Every accepted step is audited against the proved invariants (entropy
    decrease with dissipation accounted, exact mass balance, strict
    positivity, dissipation lower bound).  ``audit_mode`` is "enforce"
    (the first violation aborts with ``AuditFailure`` carrying the partial
    result) or "off" (no audits run), so a run that returns has passed
    every audit it ran.  A step whose solve fails (``NonlinearDivergence``,
    a failed banded Cholesky included) is retried with the step size
    halved, up to five times, before the run aborts with
    ``SimulationAborted``; subsequent steps return to the nominal step size.

    ``hooks`` are called at step 0 with the regularized data, the run's one
    start, and after every accepted step as
    ``hook(step_index, t, cf, w, record)``, with ``cf`` all N+1 fractions
    of that data or those the solver computed from ``w``; ``cf`` and ``w``
    are read-only.  Every record holds the run's one ``reference``, the
    initial masses over their sum.
    ``record_every`` thins the stored records.  Each accepted state's
    evaluation from the solver supplies its record, its production integral
    and, through the run's one workspace, the start of the next step.

    A result returned, or carried as ``partial`` by either error, ends at
    the last state reached, the failed step's for ``AuditFailure``.
    """
    if audit_mode not in ("enforce", "off"):
        raise ValidationError("audit_mode", "must be 'enforce' or 'off'")
    if record_every < 1:
        raise ValidationError("record_every", "must be a positive integer")
    c = regularize_initial(spec, c0, params.eta_floor)
    if c.shape[0] != grid.cells:
        raise ValidationError("initial", f"need {grid.cells} rows, got {c.shape[0]}")
    w = c_to_w(c)
    cf = full_concentrations(c)
    masses0 = integrate(grid, cf)
    reference = masses0 / masses0.sum()
    for a in (c, w, cf):
        a.setflags(write=False)
    work = _Workspace(spec, grid, params.eps)
    slack = solver_slack(params.picard_tol, spec.n_reduced, grid.cells)
    # the initial record describes the regularized data c itself, which
    # differs from the evaluation's w_to_c(w) at rounding level
    record = _make_record(grid, 0.0, mobility_matrix(spec, c), cf, w, reference, 0)
    result = SimulationResult(
        spec=spec,
        grid=grid,
        params=params,
        initial_masses=masses0,
        w_time_integral=np.zeros(spec.n_reduced),
        production_time_integral=np.zeros(spec.n_reduced),
    )
    result.records.append(record)
    result.c, result.w = c, w
    for hook in hooks or ():
        hook(0, 0.0, cf, w, record)

    # audits need the previous record, hooks receive the current one; with
    # both absent the record is only built at the steps actually stored
    build_every = audit_mode != "off" or bool(hooks)
    t = 0.0
    try:
        while (remaining := params.t_end - t) > 1e-9 * params.tau:
            k = result.steps + 1
            tau_k = min(params.tau, remaining)
            for attempt in range(6):
                try:
                    step = advance_step(spec, grid, params, w, tau=tau_k, work=work)
                    break
                except NonlinearDivergence:
                    if attempt == 5:
                        raise SimulationAborted(
                            f"step {k} failed after halving the step size "
                            "five times", partial=result,
                        )
                    result.tau_retries += 1
                    tau_k *= 0.5
            t += tau_k
            state, w = step.state, step.w
            result.steps, result.t_final, result.c, result.w = k, t, state.c, w
            result.picard_iterations_total += step.iterations
            prev_record, record = record, None
            if build_every or k % record_every == 0:
                record = _make_record(
                    grid, t, state.B, state.cf, state.w, reference, step.iterations
                )
            r_int = integrate(grid, state.r)
            result.w_time_integral += tau_k * integrate(grid, state.w)
            result.production_time_integral += tau_k * r_int
            if audit_mode != "off":
                verdict = audit_step(
                    spec, grid, tau_k, params.eps, slack, prev_record, record,
                    state.w, production_integral=r_int,
                )
                result.verdicts.append(verdict)
                if not verdict.passed:
                    names = ("entropy", "mass", "bounds", "dissipation")
                    failed = [n for n in names if not getattr(verdict, f"{n}_ok")]
                    raise AuditFailure(
                        f"step {k} violated: {', '.join(failed)}", partial=result
                    )
            for hook in hooks or ():
                hook(k, t, state.cf, state.w, record)
            if k % record_every == 0:
                result.records.append(record)
    finally:
        # one epilogue for a return, an AuditFailure and a SimulationAborted:
        # store the last state reached unless the thinning just did
        if result.records[-1] is not record:
            if record is None:
                record = _make_record(
                    grid, t, state.B, state.cf, state.w, reference, step.iterations
                )
            result.records.append(record)
    return result
