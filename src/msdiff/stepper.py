"""Implicit time stepping in entropy variables.

One step of the scheme solves, for the new entropy-variable field w, the
cell-centered system

    (1/tau) (c(w) - c_prev, v)  +  (B(w) grad w, grad v)
        + eps ((L w, L v) + (w, v))  =  (r(c(w)), v)

for all test fields v, with zero-flux walls.  The nonlinearity is handled
by freezing the mobility, the production term and the concentration map at
the current iterate and solving the resulting symmetric positive definite
banded system.  Iterating that frozen map as written is hopelessly slow
when the regularization weight is small, because the only w-dependence left
on the diagonal is the eps block; the fixed-point update here therefore
adds the state-derivative mass term (h/tau) Hinv(w_bar) (w - w_bar) to both
sides.  The added term vanishes identically at any fixed point, so the
solved states are the same, but the iteration gains Newton-like local
convergence.  ``assemble_linear_system`` still exposes the plain frozen
system for inspection.

Each iterate w is evaluated once: its fractions c(w) are checked for
admissibility once, and the Hessian inverse, the mobility and the production
rates built from them are kept, read-only, in one private evaluation.  The
assembly at w reads them from there; the evaluation of an accepted state is
returned with its ``StepResult`` and carried into the step record, the
audit's production integral and the next step, so nothing is rebuilt at the
same w.  The public entry points (``advance_step``, ``picard_step``,
``assemble_linear_system``, ``run_simulation``) keep their input checks.

Unknowns are ordered cell-major (all species of cell 0, then cell 1, ...),
which keeps the matrix banded with half-bandwidth 2N: couplings reach one
cell for the mobility stiffness and two cells for the bilaplacian
regularization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solveh_banded

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
    DimensionMismatch,
    InadmissibleInitialData,
    InconsistentFields,
    LinearSolveFailure,
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
    w_to_c,
    _hessian_inverse,
    _mobility,
    _require_admissible,
)

# Final fixed-point increments must sit near rounding level for the
# telescoped mass identity to hold to 1e-10 over thousands of steps.
POLISH_INCREMENT = 1e-13

StepHook = Callable[[int, float, np.ndarray, np.ndarray, DiagnosticsRecord], None]


@dataclass(frozen=True)
class SchemeParams:
    """Knobs of the implicit scheme.

    tau            time step
    t_end          final time (the last step is shortened to land on it)
    eps            regularization weight; must be positive to run
    picard_tol     max-norm increment below which the inner solve stops
    picard_max     total inner-iteration budget per step, restarts included
    damping_theta  under-relaxation of the fixed-point update, in (0, 1]
    eta_floor      initial-data blending weight toward the uniform mixture
    final_polish   after convergence, push increments to rounding level so
                   the per-step mass identity telescopes exactly
    """

    tau: float
    t_end: float
    eps: float = 1e-8
    picard_tol: float = 1e-10
    picard_max: int = 200
    damping_theta: float = 1.0
    eta_floor: float = 1e-8
    final_polish: bool = True

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValidationError("tau", "must be positive")
        if self.t_end < 0.0:
            raise ValidationError("t_end", "must be nonnegative")
        if self.eps < 0.0:
            raise ValidationError("eps", "must be nonnegative")
        if not self.picard_tol > 0.0:
            raise ValidationError("picard_tol", "must be positive")
        if self.picard_max < 1:
            raise ValidationError("picard_max", "must be at least 1")
        if not 0.0 < self.damping_theta <= 1.0:
            raise ValidationError("damping_theta", "must lie in (0, 1]")
        if not self.eta_floor > 0.0:
            raise ValidationError("eta_floor", "must be positive")


@dataclass(frozen=True)
class _State:
    """One fixed-point iterate ``w``, evaluated once.

    Holds ``c = w_to_c(w)``, all N+1 fractions ``cf``, the entropy Hessian
    inverse, the mobility ``B`` and the production rates ``r`` of the first
    N species, every array read-only so no consumer can make them disagree.
    """

    w: np.ndarray
    c: np.ndarray
    cf: np.ndarray
    hinv: np.ndarray
    B: np.ndarray
    r: np.ndarray


def _evaluate(spec: MixtureSpec, w: np.ndarray) -> _State:
    """Evaluate the iterate ``w``; its fractions are checked here, once."""
    c = _require_admissible(w_to_c(w))
    cf = full_concentrations(c)
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
    """Converged state of one implicit step plus solver telemetry.

    ``state`` is the evaluation of ``w`` that the solver built and checked
    while accepting it; ``run_simulation`` hands it to the step record and
    to the next ``advance_step`` instead of evaluating ``w`` again.  ``w``
    and every array of ``state`` are read-only.
    """

    w: np.ndarray
    iterations: int
    final_increment: float
    linear_residual: float
    theta: float
    restarts: int
    state: _State = field(repr=False, compare=False)


@dataclass
class SimulationResult:
    """Trajectory handle returned by ``run_simulation``.

    ``records`` is thinned by ``record_every`` but always keeps the initial
    and final states; ``verdicts`` covers every accepted step.  The running
    sums ``w_time_integral`` and ``production_time_integral`` accumulate
    tau * integral(w) and tau * integral(r) over all steps, which together
    predict the exact per-species mass drift.  ``clamp_count`` exists so
    downstream reports can state it: the scheme never projects or clips a
    state, so it stays zero.
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
    reference: np.ndarray | None = None
    initial_masses: np.ndarray | None = None
    w_time_integral: np.ndarray | None = None
    production_time_integral: np.ndarray | None = None
    clamp_count: int = 0
    tau_retries: int = 0


def regularize_initial(spec: MixtureSpec, c0: np.ndarray, eta: float) -> np.ndarray:
    """Blend admissible initial data toward the uniform mixture.

    Returns (1 - (N+1) eta) c0 + eta, which keeps every fraction, the
    implied one included, at least eta away from zero while moving each
    value by at most (N+1) eta.  Constant fields stay constant.  Data with
    negative fractions or cell sums beyond one (past rounding, 1e-12) is
    rejected rather than repaired.
    """
    n1 = spec.n_species
    if not 0.0 < eta < 1.0 / n1:
        raise ValidationError("eta_floor", f"must lie in (0, 1/{n1})")
    c0 = np.asarray(c0, dtype=float)
    if c0.ndim != 2 or c0.shape[1] != spec.n_reduced:
        raise DimensionMismatch(
            f"initial data must be (cells, {spec.n_reduced}), got {c0.shape}"
        )
    if np.any(c0 < 0.0):
        raise InadmissibleInitialData("negative initial fraction")
    sums = c0.sum(axis=-1)
    if np.any(sums > 1.0 + 1e-12):
        raise InadmissibleInitialData("initial fractions exceed unit sum")
    return (1.0 - n1 * eta) * c0 + eta


class _Workspace:
    """Preallocated buffers and scatter indices reused across assemblies.

    ``block_at`` and ``coupling_at`` are flat positions in ``ab`` (banded
    storage, ab[k, q] = S[q + k, q]): one row per cell for the lower
    triangle of its diagonal block, taken in ``tril`` order, and one row per
    interior face for the full block coupling its right cell to its left.
    """

    def __init__(self, spec: MixtureSpec, grid: Grid1D):
        n = spec.n_reduced
        size = n * grid.cells
        self.ab = np.zeros((2 * n + 1, size))
        self.l2_bands = laplacian_squared_lower_bands(grid)
        first = n * np.arange(grid.cells)[:, None]
        self.tril = np.tril_indices(n)
        i, j = self.tril
        self.block_at = (i - j) * size + first + j
        i, j = np.divmod(np.arange(n * n), n)
        self.coupling_at = (n + i - j) * size + first[:-1] + j


def _assemble_banded(
    spec: MixtureSpec,
    grid: Grid1D,
    tau: float,
    eps: float,
    state: _State,
    c_prev: np.ndarray,
    augment: bool,
    work: _Workspace,
) -> tuple[np.ndarray, np.ndarray]:
    """Build the frozen-coefficient system at ``state`` in lower-banded form.

    Storage follows the LAPACK convention ab[k, q] = S[q + k, q].  Face
    mobilities are averaged from the two neighboring cells and symmetrized
    so the assembled matrix is symmetric to the last bit.  The block and
    coupling entries occupy disjoint positions of the zeroed ``ab``; the
    eps-bilaplacian bands are added after them.
    """
    n = spec.n_reduced
    m = grid.cells
    h = grid.h
    ab = work.ab
    ab[:] = 0.0
    B = state.B
    Bf = 0.5 * (B[:-1] + B[1:])
    Bf = 0.5 * (Bf + np.swapaxes(Bf, -1, -2))
    dblk = np.zeros((m, n, n))
    dblk[1:] += Bf
    dblk[:-1] += Bf
    dblk /= h
    b = (h / tau) * (c_prev - state.c)
    b += h * state.r
    if augment:
        hinv = state.hinv * (h / tau)
        dblk += hinv
        b += np.einsum("mij,mj->mi", hinv, state.w)
    flat = ab.reshape(-1)
    i, j = work.tril
    flat[work.block_at] += dblk[:, i, j]
    flat[work.coupling_at] += (Bf / (-h)).reshape(m - 1, n * n)
    if eps != 0.0:
        l0, l1, l2 = work.l2_bands
        s = eps * h
        ab[0] += np.repeat(s * (l0 + 1.0), n)
        ab[n, : (m - 1) * n] += np.repeat(s * l1, n)
        ab[2 * n, : (m - 2) * n] += np.repeat(s * l2, n)
    return ab, b.ravel()


def _band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = ab[0] * x
    size = x.size
    for k in range(1, ab.shape[0]):
        a = ab[k, : size - k]
        y[k:] += a * x[: size - k]
        y[: size - k] += a * x[k:]
    return y


def _band_norm(ab: np.ndarray) -> float:
    """Frobenius norm of the symmetric matrix stored in ``ab``."""
    return np.sqrt(float(np.sum(ab[0] ** 2)) + 2.0 * float(np.sum(ab[1:] ** 2)))


def _solve_checked(
    ab: np.ndarray, b: np.ndarray, norm_S: float
) -> tuple[np.ndarray, float]:
    """Solve the banded system by Cholesky and check the solution.

    Returns x and its backward-error residual ||S x - b|| / (||S||_F ||x||
    + ||b||), with ``norm_S`` = ||S||_F.  A failed factorization, a
    non-finite solution or a residual above 1e-12 raises
    ``LinearSolveFailure``.
    """
    try:
        x = solveh_banded(ab, b, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveFailure(f"banded Cholesky failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise LinearSolveFailure("linear solver produced non-finite values")
    denom = max(norm_S * float(np.linalg.norm(x)) + float(np.linalg.norm(b)), 1e-300)
    resid = float(np.linalg.norm(_band_matvec(ab, x) - b)) / denom
    if resid > 1e-12:
        raise LinearSolveFailure(f"linear solve residual {resid:.3e} exceeds 1e-12")
    return x, resid


def assemble_linear_system(
    spec: MixtureSpec,
    grid: Grid1D,
    params: SchemeParams,
    w_bar: np.ndarray,
    c_prev: np.ndarray,
    tau: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense frozen-coefficient system of one fixed-point iteration.

    This is the plain linearization: mobility, production and the previous
    state all frozen at ``w_bar``, nothing added.  Its solution set is the
    same as the augmented system the solver actually iterates, since the
    extra term vanishes at any fixed point.  The matrix is symmetric, and
    positive definite whenever eps is positive.
    """
    tau = params.tau if tau is None else tau
    state = _evaluate(spec, np.array(w_bar, dtype=float))
    work = _Workspace(spec, grid)
    ab, b = _assemble_banded(
        spec, grid, tau, params.eps, state, np.asarray(c_prev, dtype=float),
        augment=False, work=work,
    )
    size = b.size
    S = np.zeros((size, size))
    for k in range(ab.shape[0]):
        vals = ab[k, : size - k]
        idx = np.arange(size - k)
        S[idx + k, idx] = vals
        S[idx, idx + k] = vals
    return S, b


def picard_step(
    spec: MixtureSpec,
    grid: Grid1D,
    params: SchemeParams,
    w_bar: np.ndarray,
    c_prev: np.ndarray,
    tau: float | None = None,
    theta: float | None = None,
    augmented: bool = True,
    work: _Workspace | None = None,
) -> tuple[np.ndarray, float]:
    """One damped fixed-point update of the implicit step.

    Solves the (by default augmented) frozen system by banded Cholesky and
    returns the under-relaxed iterate together with the backward-error
    residual of the solve, ||S x - b|| / (||S||_F ||x|| + ||b||).  A
    residual above 1e-12, a failed factorization, or a non-finite solution
    raises ``LinearSolveFailure``.
    """
    tau = params.tau if tau is None else tau
    theta = params.damping_theta if theta is None else theta
    if work is None:
        work = _Workspace(spec, grid)
    state = _evaluate(spec, np.array(w_bar, dtype=float))
    ab, b = _assemble_banded(
        spec, grid, tau, params.eps, state, c_prev, augment=augmented, work=work
    )
    x, resid = _solve_checked(ab, b, _band_norm(ab))
    w_new = (1.0 - theta) * state.w + theta * x.reshape(state.w.shape)
    return w_new, resid


def advance_step(
    spec: MixtureSpec,
    grid: Grid1D,
    params: SchemeParams,
    w_prev: np.ndarray,
    tau: float | None = None,
    work: _Workspace | None = None,
    prev: _State | None = None,
) -> StepResult:
    """Advance the state by one implicit step.

    Damped fixed-point iterations start from the previous state.  Each
    update direction comes from the augmented frozen system; the effective
    relaxation is chosen by backtracking until the nonlinear residual
    decreases, which keeps the iteration globally convergent even for
    near-vacuum states whose entropy variables jump by tens between
    neighboring cells.  The step is accepted once the max-norm increment
    drops below ``picard_tol`` (pushed further to rounding level when
    polishing) or the residual reaches its floor: rough states leave the
    system too ill-conditioned in the vanished species' directions for the
    increment ever to reach the tolerance, while the residual floor
    certifies a fixed point to working precision.

    Increments growing three times in a row while the backtracking is
    already cutting steps triggers a restart with the base relaxation
    halved, as does a failed backtracking search; after three restarts or
    once the iteration budget is spent the step raises
    ``NonlinearDivergence``.

    Every iterate, trial points of the backtracking included, is evaluated
    once (fractions checked, mobility and production built) and assembled
    from that evaluation.  The accepted state's evaluation comes back as
    ``StepResult.state``; passing it as ``prev`` to the next call, with its
    ``w`` as ``w_prev``, spares evaluating the start state again.  A ``prev``
    whose ``w`` is not the ``w_prev`` array raises ``InconsistentFields``.
    """
    tau = params.tau if tau is None else tau
    if work is None:
        work = _Workspace(spec, grid)
    if prev is None:
        prev = _evaluate(spec, np.array(w_prev, dtype=float))
    elif prev.w is not w_prev:
        raise InconsistentFields("prev is not the evaluation of w_prev")
    c_prev = prev.c
    theta = params.damping_theta
    restarts = 0
    iterations = 0
    all_increments: list[float] = []
    lin_resid = 0.0

    def assemble_at(state: _State) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Assemble at a state; return system, rhs, its norm and the residual there."""
        ab, b = _assemble_banded(
            spec, grid, tau, params.eps, state, c_prev, augment=True, work=work
        )
        norm_S = _band_norm(ab)
        res = float(np.linalg.norm(_band_matvec(ab, state.w.ravel()) - b))
        return ab, b, norm_S, res

    while True:
        acc = prev
        ab, b, norm_S, f_acc = assemble_at(acc)
        increments: list[float] = []
        last_s = 1.0
        polishing = False
        polish_left = 8
        diverged = False
        while iterations < params.picard_max:
            x, lin_resid = _solve_checked(ab, b, norm_S)
            d = x.reshape(acc.w.shape) - acc.w
            s = 1.0
            accepted = False
            for _ in range(11):
                trial = _evaluate(spec, acc.w + (theta * s) * d)
                ab, b, norm_S, f_try = assemble_at(trial)
                floor = 1e-14 * (
                    norm_S * float(np.linalg.norm(trial.w)) + float(np.linalg.norm(b))
                )
                if f_try <= (1.0 - 1e-4 * theta * s) * f_acc or f_try <= floor:
                    accepted = True
                    break
                s *= 0.5
            if not accepted:
                diverged = True
                break
            iterations += 1
            inc = float(np.max(np.abs(trial.w - acc.w)))
            prev_inc = increments[-1] if increments else np.inf
            increments.append(inc)
            all_increments.append(inc)
            acc = trial
            f_acc = f_try
            at_floor = f_acc <= floor
            if inc <= params.picard_tol or at_floor:
                done = (
                    at_floor
                    or not params.final_polish
                    or inc <= POLISH_INCREMENT
                )
                if polishing:
                    polish_left -= 1
                    # rounding plateau: increments stop shrinking
                    done = done or polish_left <= 0 or (
                        inc >= prev_inc and inc < 1e-11
                    )
                if done:
                    return StepResult(
                        w=acc.w,
                        iterations=iterations,
                        final_increment=inc,
                        linear_residual=lin_resid,
                        theta=theta,
                        restarts=restarts,
                        state=acc,
                    )
                polishing = True
                continue
            if (
                len(increments) >= 3
                and increments[-1] > increments[-2] > increments[-3]
                and (s < 1.0 or last_s < 1.0)
            ):
                diverged = True
                break
            last_s = s
        if not diverged:
            raise NonlinearDivergence(
                f"no convergence within {params.picard_max} iterations",
                increments=all_increments,
            )
        restarts += 1
        if restarts > 3 or iterations >= params.picard_max:
            raise NonlinearDivergence(
                f"diverging increments after {restarts - 1} restarts",
                increments=all_increments,
            )
        theta *= 0.5


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
    (violations abort with ``AuditFailure`` carrying the partial result),
    "warn", or "off".  A step whose nonlinear solve diverges is retried
    with the step size halved, up to five times, before the run aborts
    with ``SimulationAborted``; subsequent steps return to the nominal
    step size.

    ``hooks`` are called after every accepted step as
    ``hook(step_index, t, c, w, record)``; ``c`` and ``w`` are read-only.
    ``record_every`` thins the stored records (the initial and final states
    are always kept).  Each accepted state's evaluation from the solver
    supplies its record, its production integral and the start of the next
    step.
    """
    if audit_mode not in ("enforce", "warn", "off"):
        raise ValidationError("audit_mode", "must be 'enforce', 'warn' or 'off'")
    if record_every < 1:
        raise ValidationError("record_every", "must be a positive integer")
    if not params.eps > 0.0:
        raise ValidationError("eps", "the implicit solver needs eps > 0")
    c = regularize_initial(spec, c0, params.eta_floor)
    w = c_to_w(c)
    cf = full_concentrations(c)
    masses0 = integrate(grid, cf)
    reference = masses0 / masses0.sum()
    work = _Workspace(spec, grid)
    slack = solver_slack(params.picard_tol, spec.n_reduced, grid.cells)
    result = SimulationResult(
        spec=spec,
        grid=grid,
        params=params,
        reference=reference,
        initial_masses=masses0,
        w_time_integral=np.zeros(spec.n_reduced),
        production_time_integral=np.zeros(spec.n_reduced),
    )
    # the initial record describes the regularized data c itself, which
    # differs from the evaluation's w_to_c(w) at rounding level
    record = _make_record(grid, 0.0, mobility_matrix(spec, c), cf, w, reference, 0)
    result.records.append(record)
    result.c, result.w = c, w
    state = _evaluate(spec, w)

    # audits need the previous record, hooks receive the current one; with
    # both absent the record is only built at the steps actually stored
    build_every = audit_mode != "off" or bool(hooks)
    t = 0.0
    k = 0
    last_stored = 0
    last_iterations = 0
    while True:
        remaining = params.t_end - t
        if remaining <= 1e-9 * params.tau:
            break
        tau_k = min(params.tau, remaining)
        step = None
        for attempt in range(6):
            try:
                step = advance_step(
                    spec, grid, params, w, tau=tau_k, work=work, prev=state
                )
                break
            except NonlinearDivergence:
                result.tau_retries += 1
                tau_k *= 0.5
                if attempt == 5:
                    raise SimulationAborted(
                        f"step {k + 1} failed after halving the step size "
                        "five times", partial=result,
                    )
        if step is None:
            raise SimulationAborted(f"step {k + 1} failed", partial=result)
        k += 1
        t += tau_k
        state = step.state
        c_new, w_new = state.c, state.w
        last_iterations = step.iterations
        store = k % record_every == 0
        if build_every or store:
            new_record = _make_record(
                grid, t, state.B, state.cf, w_new, reference, step.iterations
            )
        else:
            new_record = None
        r_int = integrate(grid, state.r)
        w_int = integrate(grid, w_new)
        result.w_time_integral += tau_k * w_int
        result.production_time_integral += tau_k * r_int
        if audit_mode != "off":
            verdict = audit_step(
                spec, grid, tau_k, params.eps, slack,
                record, new_record, c_new, w_new,
                production_integral=r_int,
            )
            result.verdicts.append(verdict)
            if not verdict.passed:
                failed = [
                    name
                    for name, ok in (
                        ("entropy", verdict.entropy_ok),
                        ("mass", verdict.mass_ok),
                        ("bounds", verdict.bounds_ok),
                        ("dissipation", verdict.dissipation_ok),
                    )
                    if not ok
                ]
                msg = f"step {k} violated: {', '.join(failed)}"
                if audit_mode == "enforce":
                    result.c, result.w = c_new, w_new
                    result.t_final, result.steps = t, k
                    result.records.append(new_record)
                    raise AuditFailure(msg, partial=result)
                warnings.warn(msg, RuntimeWarning, stacklevel=2)
        c, w, record = c_new, w_new, new_record
        result.c, result.w = c, w
        result.t_final, result.steps = t, k
        if hooks:
            for hook in hooks:
                hook(k, t, c, w, record)
        if store:
            result.records.append(record)
            last_stored = k
    if result.steps and last_stored != result.steps:
        if record is None:
            record = _make_record(
                grid, t, state.B, state.cf, w, reference, last_iterations
            )
        result.records.append(record)
    return result
