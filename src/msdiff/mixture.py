"""Pointwise state algebra for an isothermal, isobaric gas mixture.

Vocabulary used throughout the package:

- ``c``: reduced vector of molar fractions ``(c_1, ..., c_N)`` of the first
  N species; the final species is implied, ``c_last = 1 - sum(c)``.  State
  arrays may carry leading batch axes (one state per grid cell).
- ``cf``: all N+1 fractions.  Of a state ``w`` the last one is computed
  from ``w`` (``_w_to_cf``) and stays positive where ``1 - sum(c)``
  (``full_concentrations``) rounds to 0.0, below about 1e-16.
- ``w``: entropy variables ``w_i = log(c_i / c_last)``.  They are the
  gradient of the mixture entropy density, and parametrize the open
  composition simplex by all of R^N, which is what keeps the time stepper
  positivity-preserving without clamping.
- ``spec``: a :class:`MixtureSpec` holding the binary diffusivities ``D_ij``
  and the friction coefficients ``d_ij = 1 / D_ij`` derived from them.

All matrix-valued functions are vectorized over leading axes: a ``(M, N)``
batch of states yields ``(M, N, N)`` or ``(M, N+1, N+1)`` stacks.

For three species (N = 2) the inverse of the reduced friction matrix A0 and
the mobility ``B = A0^-1 H^-1`` are written out from the adjugate of A0,
whose determinant is linear in c and at least ``delta**2`` on the closed
simplex; a LAPACK call per 2x2 matrix costs far more.  More species use
LAPACK's batched inverse.

The per-state kernels that every solver iterate runs (``_w_to_cf``, the
admissibility checks and the ternary Hessian inverse) loop over the N
species columns ``x[..., i]`` instead of reducing or broadcasting along the
trailing axis: that axis is only N long, and numpy would run one tiny
inner loop per cell, while each column operation covers all cells at once.
The species sums are added left to right from 0.0, which is numpy's own
order for up to 7 terms, so the results are bitwise those of
``np.sum(axis=-1)`` there; from 8 terms on numpy sums pairwise, which moves
``w_to_c`` by up to 8 ulps, and the results are bitwise those of a sum in
the kernels' order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InadmissibleState, SingularA0, ValidationError

# Strict admissibility floor: states closer than this to the simplex boundary
# are treated as boundary states by operations that need interior points.
EPS_ADMISSIBLE = 1e-14


# ---------------------------------------------------------------------------
# production laws


@dataclass(frozen=True)
class ProductionLaw:
    """Species production rates r(c) entering the right-hand side.

    ``kind`` is ``"zero"`` or ``"quaternary_reversible"``.  Both laws meet
    the strong entropy sign condition ``sum_i r_i log c_i <= 0`` exactly,
    which is what the per-step entropy audit assumes, and both conserve
    total mass, ``sum_i r_i = 0``, exactly.
    """

    kind: str
    n_species: int = 0  # 0 means "any"

    @staticmethod
    def zero() -> "ProductionLaw":
        return ProductionLaw(kind="zero")

    @staticmethod
    def quaternary_reversible() -> "ProductionLaw":
        """Reversible pair reaction A1 + A3 <-> A2 + A4 in a 5-species mixture.

        Rates: r_1 = r_3 = c_2 c_4 - c_1 c_3, r_2 = r_4 = -(r_1), r_5 = 0.
        The associated entropy production is -(x - y)(log x - log y) <= 0
        with x = c_1 c_3 and y = c_2 c_4, so the strong sign condition holds.
        """
        return ProductionLaw(kind="quaternary_reversible", n_species=5)


def production_rates(law: ProductionLaw, c_full: np.ndarray) -> np.ndarray:
    """Evaluate production rates on full concentration vectors.

    ``c_full`` has the N+1 fractions on the trailing axis.  The returned
    rates sum to zero exactly.
    """
    c_full = np.asarray(c_full, dtype=float)
    n = c_full.shape[-1]
    if law.kind == "zero":
        return np.zeros_like(c_full)
    if law.kind == "quaternary_reversible":
        if n != 5:
            raise ValidationError(
                "production", f"quaternary_reversible law needs 5 species, got {n}"
            )
        q = c_full[..., 1] * c_full[..., 3] - c_full[..., 0] * c_full[..., 2]
        r = np.zeros_like(c_full)
        r[..., 0] = q
        r[..., 1] = -q
        r[..., 2] = q
        r[..., 3] = -q
        # r_5 stays zero; the first four cancel pairwise, so the sum is exact
        return r
    raise ValidationError("production", f"unknown production law kind {law.kind!r}")


# ---------------------------------------------------------------------------
# mixture specification


@dataclass(frozen=True)
class MixtureSpec:
    """Immutable bundle of species count, diffusivities and friction data.

    ``delta`` and ``Delta`` are the edges of the band that contains every
    nonzero eigenvalue of the friction matrices: ``delta`` is the smallest
    friction coefficient, ``Delta`` twice the sum of all of them (ordered
    pairs).  They are what the spectral certificates and the dissipation
    lower bound check against.
    """

    n_species: int
    D: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    delta: float = 0.0
    Delta: float = 0.0
    production: ProductionLaw = field(default_factory=ProductionLaw.zero)

    def __post_init__(self):
        self.D.setflags(write=False)
        self.d.setflags(write=False)

    @property
    def n_reduced(self) -> int:
        return self.n_species - 1


def diffusivity_matrix_from_upper(values, n_species: int) -> np.ndarray:
    """Build the symmetric diffusivity matrix from its upper triangle.

    ``values`` lists D_ij for i < j in row-major order; the diagonal is zero.
    """
    values = [float(v) for v in values]
    expect = n_species * (n_species - 1) // 2
    if len(values) != expect:
        raise ValidationError(
            "D",
            f"{n_species} species need {expect} upper-triangle diffusivities, "
            f"got {len(values)}"
        )
    D = np.zeros((n_species, n_species))
    k = 0
    for i in range(n_species):
        for j in range(i + 1, n_species):
            D[i, j] = values[k]
            D[j, i] = values[k]
            k += 1
    return D


def new_mixture_spec(
    n_species: int,
    D: np.ndarray,
    production: ProductionLaw | None = None,
) -> MixtureSpec:
    """Validate diffusivities and precompute friction data.

    Requires at least three species, a symmetric ``(n, n)`` matrix ``D`` and
    strictly positive off-diagonal entries whose friction data fit in a
    float.  The diagonal of ``D`` is ignored (stored as zero).
    """
    if n_species < 3:
        raise ValidationError("species", "at least 3 species are required")
    D = np.array(D, dtype=float)
    if D.shape != (n_species, n_species):
        raise ValidationError(
            "D",
            f"expected diffusivity shape {(n_species, n_species)}, got {D.shape}",
        )
    if not np.array_equal(D, D.T):
        raise ValidationError("D", "binary diffusivities must satisfy D_ij = D_ji")
    off = ~np.eye(n_species, dtype=bool)
    if np.any(D[off] <= 0.0):
        raise ValidationError("D", "all D_ij with i != j must be positive")
    D = D.copy()
    np.fill_diagonal(D, 0.0)
    d = np.zeros_like(D)
    with np.errstate(over="ignore"):
        d[off] = 1.0 / D[off]
        delta = float(np.min(d[off]))
        Delta = 2.0 * float(np.sum(d[off]))
    # the audit's 4/Delta bound and det A0 >= delta**N > 0 need both in range
    if not Delta < math.inf:
        raise ValidationError("D", "1/D_ij or Delta = 2 sum 1/D_ij overflows")
    if n_species == 3:
        # the closed-form det A0 is linear in c; at the corners of the
        # simplex it is d_12 d_13, d_12 d_23 or d_13 d_23
        with np.errstate(over="ignore"):
            top = max(d[0, 1] * d[0, 2], d[0, 1] * d[1, 2], d[0, 2] * d[1, 2])
        if not top < math.inf:
            raise ValidationError("D", "det A0 = d_ij d_ik at a corner overflows")
    n = n_species - 1
    if min(delta, 1.0) ** n == 0.0:
        raise ValidationError(
            "D", f"delta**{n} = {delta:g}**{n}, the lower bound of det A0, underflows"
        )
    if production is None:
        production = ProductionLaw.zero()
    if production.n_species and production.n_species != n_species:
        raise ValidationError(
            "production",
            f"production law expects {production.n_species} species, "
            f"mixture has {n_species}"
        )
    return MixtureSpec(
        n_species=n_species,
        D=D,
        d=d,
        delta=delta,
        Delta=Delta,
        production=production,
    )


# ---------------------------------------------------------------------------
# state helpers


def _species_sum(x: np.ndarray) -> np.ndarray:
    """``np.sum(x, axis=-1)`` added left to right from 0.0, one species
    column at a time: bitwise equal, signed zeros included, up to 7 terms."""
    total = 0.0 + x[..., 0]
    for i in range(1, x.shape[-1]):
        total = total + x[..., i]
    return total


def full_concentrations(c: np.ndarray) -> np.ndarray:
    """Append the implied final fraction ``1 - sum(c)`` on the trailing axis."""
    c = np.asarray(c, dtype=float)
    cf = np.empty(c.shape[:-1] + (c.shape[-1] + 1,))
    cf[..., :-1] = c
    cf[..., -1] = 1.0 - _species_sum(c)
    return cf


def _within(c: np.ndarray, low: float, high: float) -> bool:
    """Every fraction >= low and every species sum <= high.  ndarray min/max
    skip np.all's Python wrappers on this per-iterate check; NaN still fails."""
    return c.min(initial=np.inf) >= low and _species_sum(c).max(initial=-np.inf) <= high


def _require_admissible(c: np.ndarray) -> np.ndarray:
    """``c`` as floats if all fractions are >= -1e-12 and sum to <= 1 + 1e-12."""
    c = np.asarray(c, dtype=float)
    if not _within(c, -1e-12, 1.0 + 1e-12):
        raise InadmissibleState("concentrations outside the composition simplex")
    return c


def _require_strict(c: np.ndarray) -> np.ndarray:
    """``c`` as floats if every fraction, the implied last too, is
    >= ``EPS_ADMISSIBLE``."""
    c = np.asarray(c, dtype=float)
    if not _within(c, EPS_ADMISSIBLE, 1.0 - EPS_ADMISSIBLE):
        raise InadmissibleState(
            f"state touches the simplex boundary (floor {EPS_ADMISSIBLE:g})"
        )
    return c


# ---------------------------------------------------------------------------
# friction matrices


def friction_matrix(spec: MixtureSpec, c: np.ndarray) -> np.ndarray:
    """Full (N+1)x(N+1) matrix A(c) relating fluxes to concentration gradients.

    Off-diagonal entries are ``d_ij c_i``; each diagonal entry is the negated
    friction-weighted sum of the other fractions, so every full concentration
    vector spans the kernel: ``A(c) @ c_full = 0``.
    """
    c = _require_admissible(c)
    cf = full_concentrations(c)
    d = spec.d
    A = d * cf[..., :, None]
    diag = -(cf @ d)  # row sums of d_ij c_j, j != i (diagonal of d is 0)
    idx = np.arange(spec.n_species)
    A[..., idx, idx] = diag
    return A


def friction_matrix_symmetric(spec: MixtureSpec, c: np.ndarray) -> np.ndarray:
    """Symmetrized similarity transform of the friction matrix.

    Conjugating A(c) by the square-root concentration diagonal yields
    off-diagonal entries ``d_ij sqrt(c_i c_j)`` with the diagonal unchanged.
    Requires an interior state so the conjugation is well defined.  The
    result is symmetric to machine precision, which is what lets the
    spectrum of A be certified with a symmetric eigensolver.
    """
    c = _require_strict(c)
    cf = full_concentrations(c)
    s = np.sqrt(cf)
    A_s = spec.d * s[..., :, None] * s[..., None, :]
    diag = -(cf @ spec.d)
    idx = np.arange(spec.n_species)
    A_s[..., idx, idx] = diag
    return A_s


def reduced_friction_matrix(spec: MixtureSpec, c: np.ndarray) -> np.ndarray:
    """NxN matrix A0(c) governing the reduced (first N species) system.

    Entries: off-diagonal ``-(d_ij - d_il) c_i`` and diagonal
    ``sum_{j != i} (d_ij - d_il) c_j + d_il`` where ``l = N+1`` marks the
    final species.  Its spectrum is the nonzero part of the spectrum of -A,
    contained in ``[delta, Delta)``; in particular A0 is always invertible
    on the closed simplex.
    """
    return _reduced_friction(spec, _require_admissible(c))


def _reduced_friction(spec: MixtureSpec, c: np.ndarray) -> np.ndarray:
    """``reduced_friction_matrix`` of an admissible float state, unchecked."""
    n = spec.n_reduced
    d_red = spec.d[:n, :n]
    d_last = spec.d[:n, n]
    # mat[i, j] = d_ij - d_il for j != i; its diagonal (-d_il) makes the
    # batched outer-product expression below land the c_i d_il diagonal term
    mat = d_red - d_last[:, None]
    A0 = -mat * c[..., :, None]
    diag_extra = c @ mat.T + d_last
    idx = np.arange(n)
    A0[..., idx, idx] += diag_extra
    return A0


_SINGULAR_A0 = (
    "reduced friction matrix reported singular; A0 is provably "
    "invertible on the simplex, so the input state is corrupted"
)


def _inverse_friction(spec: MixtureSpec, c: np.ndarray, A0=None) -> np.ndarray:
    """Inverse of A0(c) at an admissible float state, unchecked.

    Three species (N = 2) use the closed form ``adj(A0) / det(A0)``; more
    species use LAPACK's LU factorization with partial pivoting of ``A0``,
    built from c unless given.  Both are safe on the closed simplex: the
    eigenvalues of A0 lie in ``[delta, Delta)``, so ``det(A0) >= delta**N > 0``.
    """
    if spec.n_reduced == 2:
        adj, det = _adjugate2(spec, c)
        return adj / det[..., None, None]
    try:
        return np.linalg.inv(_reduced_friction(spec, c) if A0 is None else A0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise SingularA0(_SINGULAR_A0) from exc


def _adjugate2(spec: MixtureSpec, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjugate and determinant of A0(c) for three species (N = 2).

    With ``p = d_12 - d_13`` and ``q = d_21 - d_23`` the reduced friction
    matrix is ``A0 = [[p c_2 + d_13, -p c_1], [-q c_2, q c_1 + d_23]]``.
    Its determinant ``d_13 d_23 + q d_13 c_1 + p d_23 c_2`` is linear in c
    and equals ``d_13 d_23``, ``d_12 d_13`` and ``d_12 d_23`` at the corners
    of the simplex, so it is at least ``delta**2`` on the closed simplex.
    Raises ``SingularA0`` unless every determinant is finite and positive.
    """
    d = spec.d
    p = d[0, 1] - d[0, 2]
    q = d[1, 0] - d[1, 2]
    c1, c2 = c[..., 0], c[..., 1]
    det = d[0, 2] * d[1, 2] + q * d[0, 2] * c1 + p * d[1, 2] * c2
    if not (det.min(initial=np.inf) > 0.0 and det.max(initial=0.0) < np.inf):
        raise SingularA0(_SINGULAR_A0)
    adj = np.empty(c.shape + (2,))
    adj[..., 0, 0] = q * c1 + d[1, 2]
    adj[..., 0, 1] = p * c1
    adj[..., 1, 0] = q * c2
    adj[..., 1, 1] = p * c2 + d[0, 2]
    return adj, det


def reduced_friction_inverse_bound(spec: MixtureSpec) -> float:
    """Uniform bound on the entries of A0(c)^-1 over the whole simplex.

    Evaluates ``(N-1)! * K**(N-1) / delta**N`` with K the largest row weight
    ``sum_{k != i} |d_ik - d_il| + d_il``.  Loose but state-independent; the
    mobility bound check is built on it.
    """
    n = spec.n_reduced
    d_red = spec.d[:n, :n]
    d_last = spec.d[:n, n]
    mat = np.abs(d_red - d_last[:, None])
    idx = np.arange(n)
    mat[idx, idx] = 0.0
    K = float(np.max(mat.sum(axis=1) + d_last))
    return math.factorial(n - 1) * K ** (n - 1) / spec.delta**n


# ---------------------------------------------------------------------------
# entropy structure


def _xlogx(x: np.ndarray) -> np.ndarray:
    """``x log x`` of fractions ``x >= 0``; ``0 log 0 = 0``, without a warning."""
    return x * np.log(np.where(x == 0.0, 1.0, x))


def _entropy_density(cf: np.ndarray) -> np.ndarray:
    """Mixture entropy density ``sum_i c_i (log c_i - 1)`` from all N+1
    fractions ``cf`` of admissible states, one scalar per state.

    Defined on the closed simplex with the convention ``0 log 0 = 0``.
    """
    return np.sum(_xlogx(cf), axis=-1) - 1.0


def _hessian_inverse(c: np.ndarray) -> np.ndarray:
    """Closed-form inverse ``diag(c) - c c^T`` of the entropy Hessian
    ``H_ij = 1/c_last + delta_ij / c_i`` in the reduced variables, for an
    admissible float state, unchecked.

    Unlike the Hessian itself this is a polynomial in c, so it extends
    continuously to the simplex boundary and is safe to assemble there.
    The diagonal is formed as ``c_i (1 - c_i)``: ``c_i - c_i**2`` cancels
    as c_i approaches 1.  Three species write the three distinct entries
    out; more species write the diagonal into the outer product through a
    strided view.
    """
    n = c.shape[-1]
    if n == 2:
        c1, c2 = c[..., 0], c[..., 1]
        Hinv = np.empty(c.shape + (2,))
        Hinv[..., 0, 0] = c1 * (1.0 - c1)
        Hinv[..., 0, 1] = Hinv[..., 1, 0] = -(c1 * c2)
        Hinv[..., 1, 1] = c2 * (1.0 - c2)
        return Hinv
    Hinv = -c[..., :, None] * c[..., None, :]
    Hinv.reshape(c.shape[:-1] + (n * n,))[..., :: n + 1] = c * (1.0 - c)
    return Hinv


def mobility_matrix(spec: MixtureSpec, c: np.ndarray) -> np.ndarray:
    """Mobility B(c) = A0(c)^-1 H(c)^-1 driving the entropy-variable flux.

    The inverse of A0 multiplies the closed-form Hessian inverse, so B is a
    sum of A0^-1 entries times concentration polynomials.  For three species
    (N = 2) the four entries of ``adj(A0) H^-1 / det(A0)`` are formed
    directly, with ``det(A0) >= delta**2 > 0`` on the closed simplex; more
    species multiply the LAPACK inverse of A0.  No division by individual
    fractions occurs, so boundary states are safe.  B is symmetric positive
    definite on interior states; on the boundary it degenerates by zeroing
    the columns of vanished species.
    """
    c = _require_admissible(c)
    return _mobility(spec, c, _hessian_inverse(c))


def _mobility(
    spec: MixtureSpec, c: np.ndarray, hinv: np.ndarray, A0=None
) -> np.ndarray:
    """``mobility_matrix`` of an admissible float state, unchecked, reusing
    its Hessian inverse ``hinv`` and, for N >= 3, its ``A0`` if given."""
    if spec.n_reduced != 2:
        return _inverse_friction(spec, c, A0) @ hinv
    adj, det = _adjugate2(spec, c)
    a00, a01 = adj[..., 0, 0], adj[..., 0, 1]
    a10, a11 = adj[..., 1, 0], adj[..., 1, 1]
    h00, h01, h11 = hinv[..., 0, 0], hinv[..., 0, 1], hinv[..., 1, 1]
    B = np.empty_like(adj)
    B[..., 0, 0] = (a00 * h00 + a01 * h01) / det
    B[..., 0, 1] = (a00 * h01 + a01 * h11) / det
    B[..., 1, 0] = (a10 * h00 + a11 * h01) / det
    B[..., 1, 1] = (a10 * h01 + a11 * h11) / det
    return B


# ---------------------------------------------------------------------------
# variable transforms


def w_to_c(w: np.ndarray) -> np.ndarray:
    """Map entropy variables to reduced fractions.

    ``c_i = exp(w_i) / (1 + sum_j exp(w_j))``, evaluated with the largest
    exponent shifted out so arbitrarily large ``w`` cannot overflow.  Every
    finite ``w`` maps into the simplex; components whose exponentials
    underflow saturate at 0/1 in floating point.
    """
    return _w_to_cf(np.asarray(w, dtype=float))[..., :-1]


def _w_to_cf(w: np.ndarray) -> np.ndarray:
    """All N+1 fractions of the float field ``w`` over one shared denominator.

    The first N columns are ``w_to_c(w)``; the last is ``1 / (1 + sum_j
    exp(w_j))`` itself, not ``1 - sum(c)``, so it stays positive where that
    difference rounds to 0.0 (below about 1e-16).
    """
    n = w.shape[-1]
    shift = np.maximum(w[..., 0], 0.0)
    for i in range(1, n):
        shift = np.maximum(shift, w[..., i])
    cf = np.empty(w.shape[:-1] + (n + 1,))
    for i in range(n):
        cf[..., i] = np.exp(w[..., i] - shift)
    cf[..., n] = np.exp(-shift)
    denom = cf[..., n] + _species_sum(cf[..., :n])
    for i in range(n + 1):
        cf[..., i] /= denom
    return cf


def c_to_w(c: np.ndarray) -> np.ndarray:
    """Map interior reduced fractions to entropy variables ``log(c_i/c_last)``."""
    c = _require_strict(c)
    last = 1.0 - np.sum(c, axis=-1, keepdims=True)
    return np.log(c) - np.log(last)
