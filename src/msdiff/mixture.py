"""Pointwise state algebra for an isothermal, isobaric gas mixture.

Vocabulary used throughout the package:

- ``c``: reduced vector of molar fractions ``(c_1, ..., c_N)`` of the first
  N species; the final species is implied, ``c_last = 1 - sum(c)``.  State
  arrays may carry leading batch axes (one state per grid cell).
- ``w``: entropy variables ``w_i = log(c_i / c_last)``.  They are the
  gradient of the mixture entropy density, and parametrize the open
  composition simplex by all of R^N, which is what keeps the time stepper
  positivity-preserving without clamping.
- ``spec``: a :class:`MixtureSpec` holding the binary diffusivities ``D_ij``
  and the friction coefficients ``d_ij = 1 / D_ij`` derived from them.

All matrix-valued functions are vectorized over leading axes: a ``(M, N)``
batch of states yields ``(M, N, N)`` or ``(M, N+1, N+1)`` stacks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import xlogy

from .errors import (
    DimensionMismatch,
    InadmissibleState,
    InvalidProductionLaw,
    NonPositiveOffDiagonal,
    NonSymmetricD,
    NotStrictlyAdmissible,
    SingularA0,
    WrongSpeciesCount,
)

# Strict admissibility floor: states closer than this to the simplex boundary
# are treated as boundary states by operations that need interior points.
EPS_ADMISSIBLE = 1e-14


# ---------------------------------------------------------------------------
# production laws


@dataclass(frozen=True)
class ProductionLaw:
    """Species production rates r(c) entering the right-hand side.

    ``kind`` is one of ``"zero"``, ``"quaternary_reversible"``, ``"custom"``.
    A custom law wraps a callable mapping a full concentration vector (all
    N+1 species, trailing axis) to N+1 rates.  Total mass conservation
    ``sum_i r_i = 0`` is enforced exactly at evaluation time by deriving the
    last rate from the others; the callable's own last component is checked
    against that convention by sampling at construction.

    ``entropy_sign_ok`` records whether the sampled law satisfied the strong
    sign condition ``sum_i r_i log c_i <= 0`` everywhere it was probed.  When
    it did not, ``entropy_bound`` holds the largest sampled value of that sum,
    which shifts the per-step entropy audit by ``entropy_bound * tau * L``.
    """

    kind: str
    n_species: int = 0  # 0 means "any"
    rate_fn: Callable[[np.ndarray], np.ndarray] | None = None
    entropy_sign_ok: bool = True
    entropy_bound: float = 0.0

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

    @staticmethod
    def custom(
        rate_fn: Callable[[np.ndarray], np.ndarray],
        n_species: int,
        seed: int = 0,
        samples: int = 10_000,
    ) -> "ProductionLaw":
        """Wrap a user rate function, validating it by Monte-Carlo sampling.

        Draws ``samples`` states uniformly from the composition simplex and
        checks that the rates sum to ~0 (hard error otherwise) and that the
        entropy sign condition holds (downgraded to a warning; the sampled
        bound is recorded and enters the entropy audit as extra slack).
        """
        if n_species < 3:
            raise WrongSpeciesCount("custom production law needs >= 3 species")
        rng = np.random.default_rng(seed)
        c_full = rng.dirichlet(np.ones(n_species), size=samples)
        r = np.asarray(rate_fn(c_full), dtype=float)
        if r.shape != c_full.shape:
            raise InvalidProductionLaw(
                f"rate function returned shape {r.shape}, expected {c_full.shape}"
            )
        totals = np.abs(r.sum(axis=-1))
        scale = max(1.0, float(np.max(np.abs(r))))
        if np.max(totals) > 1e-10 * scale:
            raise InvalidProductionLaw(
                f"rates do not sum to zero (max |sum r| = {np.max(totals):.3e})"
            )
        # entropy production of the sampled states; positive values mean the
        # law only satisfies the weaker bounded-production condition
        s = np.sum(r * np.log(c_full), axis=-1)
        bound = float(np.max(s))
        sign_ok = bound <= 1e-12 * scale
        if not sign_ok:
            warnings.warn(
                "custom production law violates the entropy sign condition "
                f"(max sampled entropy production {bound:.3e}); the per-step "
                "entropy audit will carry that bound as extra slack",
                stacklevel=2,
            )
        return ProductionLaw(
            kind="custom",
            n_species=n_species,
            rate_fn=rate_fn,
            entropy_sign_ok=sign_ok,
            entropy_bound=max(bound, 0.0) if not sign_ok else 0.0,
        )


def production_rates(law: ProductionLaw, c_full: np.ndarray) -> np.ndarray:
    """Evaluate production rates on full concentration vectors.

    ``c_full`` has the N+1 fractions on the trailing axis.  The returned
    rates sum to zero exactly: the last component is always derived as the
    negated sum of the first N.
    """
    c_full = np.asarray(c_full, dtype=float)
    n = c_full.shape[-1]
    if law.kind == "zero":
        return np.zeros_like(c_full)
    if law.kind == "quaternary_reversible":
        if n != 5:
            raise WrongSpeciesCount(
                f"quaternary_reversible law needs 5 species, got {n}"
            )
        q = c_full[..., 1] * c_full[..., 3] - c_full[..., 0] * c_full[..., 2]
        r = np.zeros_like(c_full)
        r[..., 0] = q
        r[..., 1] = -q
        r[..., 2] = q
        r[..., 3] = -q
        # r_5 stays zero; the first four cancel pairwise, so the sum is exact
        return r
    if law.kind == "custom":
        if law.n_species and n != law.n_species:
            raise WrongSpeciesCount(
                f"custom law declared {law.n_species} species, got {n}"
            )
        r = np.asarray(law.rate_fn(c_full), dtype=float).copy()
        r[..., -1] = -np.sum(r[..., :-1], axis=-1)
        return r
    raise InvalidProductionLaw(f"unknown production law kind {law.kind!r}")


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
        raise DimensionMismatch(
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
    strictly positive off-diagonal entries.  The diagonal of ``D`` is ignored
    (stored as zero).
    """
    if n_species < 3:
        raise WrongSpeciesCount("at least 3 species are required")
    D = np.array(D, dtype=float)
    if D.shape != (n_species, n_species):
        raise DimensionMismatch(
            f"expected diffusivity shape {(n_species, n_species)}, got {D.shape}"
        )
    if not np.array_equal(D, D.T):
        raise NonSymmetricD("binary diffusivities must satisfy D_ij = D_ji")
    off = ~np.eye(n_species, dtype=bool)
    if np.any(D[off] <= 0.0):
        raise NonPositiveOffDiagonal("all D_ij with i != j must be positive")
    D = D.copy()
    np.fill_diagonal(D, 0.0)
    d = np.zeros_like(D)
    d[off] = 1.0 / D[off]
    delta = float(np.min(d[off]))
    Delta = 2.0 * float(np.sum(d[off]))
    if production is None:
        production = ProductionLaw.zero()
    if production.n_species and production.n_species != n_species:
        raise WrongSpeciesCount(
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


def full_concentrations(c: np.ndarray) -> np.ndarray:
    """Append the implied final fraction ``1 - sum(c)`` on the trailing axis."""
    c = np.asarray(c, dtype=float)
    last = 1.0 - np.sum(c, axis=-1, keepdims=True)
    return np.concatenate([c, last], axis=-1)


def is_admissible(c: np.ndarray, tol: float = 0.0) -> bool:
    """True when all fractions are >= -tol and each state sums to <= 1 + tol."""
    c = np.asarray(c, dtype=float)
    return bool(np.all(c >= -tol) and np.all(np.sum(c, axis=-1) <= 1.0 + tol))


def is_strictly_admissible(c: np.ndarray, eps: float = EPS_ADMISSIBLE) -> bool:
    """True when every fraction, including the implied last, exceeds ``eps``."""
    c = np.asarray(c, dtype=float)
    return bool(np.all(c >= eps) and np.all(np.sum(c, axis=-1) <= 1.0 - eps))


def _require_admissible(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if not is_admissible(c, tol=1e-12):
        raise InadmissibleState("concentrations outside the composition simplex")
    return c

def _require_strict(c: np.ndarray, eps: float = EPS_ADMISSIBLE) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if not is_strictly_admissible(c, eps):
        raise NotStrictlyAdmissible(
            f"state touches the simplex boundary (floor {eps:g})"
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


def invert_reduced_friction(spec: MixtureSpec, c: np.ndarray) -> np.ndarray:
    """Inverse of A0(c) by LU factorization with partial pivoting."""
    return _inverse_friction(spec, _require_admissible(c))


def _inverse_friction(spec: MixtureSpec, c: np.ndarray) -> np.ndarray:
    """``invert_reduced_friction`` of an admissible float state, unchecked."""
    try:
        return np.linalg.inv(_reduced_friction(spec, c))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise SingularA0(
            "reduced friction matrix reported singular; A0 is provably "
            "invertible on the simplex, so the input state is corrupted"
        ) from exc


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


def entropy_density(c: np.ndarray) -> np.ndarray:
    """Mixture entropy density ``sum_i c_i (log c_i - 1)`` over all species.

    Defined on the closed simplex with the convention ``0 log 0 = 0``.
    Batched input yields one scalar per state.
    """
    return _entropy_density(full_concentrations(_require_admissible(c)))


def _entropy_density(cf: np.ndarray) -> np.ndarray:
    """``entropy_density`` from all N+1 fractions of admissible states."""
    return np.sum(xlogy(cf, cf), axis=-1) - 1.0


def entropy_hessian(c: np.ndarray) -> np.ndarray:
    """Hessian H(c) of the entropy density in the reduced variables.

    ``H_ij = 1/c_last + delta_ij / c_i``; requires an interior state.
    """
    c = _require_strict(c)
    last = 1.0 - np.sum(c, axis=-1)
    H = np.ones((c.shape[-1], c.shape[-1])) / last[..., None, None]
    idx = np.arange(c.shape[-1])
    H[..., idx, idx] += 1.0 / c
    return H


def entropy_hessian_inverse(c: np.ndarray) -> np.ndarray:
    """Closed-form inverse of the entropy Hessian: ``diag(c) - c c^T``.

    Unlike the Hessian itself this is a polynomial in c, so it extends
    continuously to the simplex boundary and is safe to assemble there.
    """
    return _hessian_inverse(_require_admissible(c))


def _hessian_inverse(c: np.ndarray) -> np.ndarray:
    """``entropy_hessian_inverse`` of an admissible float state, unchecked."""
    Hinv = -c[..., :, None] * c[..., None, :]
    idx = np.arange(c.shape[-1])
    Hinv[..., idx, idx] += c
    return Hinv


def mobility_matrix(spec: MixtureSpec, c: np.ndarray) -> np.ndarray:
    """Mobility B(c) = A0(c)^-1 H(c)^-1 driving the entropy-variable flux.

    Assembled as the product of the LU inverse of A0 with the closed-form
    Hessian inverse, i.e. sums of A0^-1 entries times concentration
    polynomials.  No division by individual fractions occurs, so boundary
    states are safe.  B is symmetric positive definite on interior states;
    on the boundary it degenerates by zeroing the columns of vanished
    species.
    """
    c = _require_admissible(c)
    return _mobility(spec, c, _hessian_inverse(c))


def _mobility(spec: MixtureSpec, c: np.ndarray, hinv: np.ndarray) -> np.ndarray:
    """``mobility_matrix`` of an admissible float state, unchecked, reusing
    its Hessian inverse ``hinv``."""
    return _inverse_friction(spec, c) @ hinv


# ---------------------------------------------------------------------------
# variable transforms


def w_to_c(w: np.ndarray) -> np.ndarray:
    """Map entropy variables to reduced fractions.

    ``c_i = exp(w_i) / (1 + sum_j exp(w_j))``, evaluated with the largest
    exponent shifted out so arbitrarily large ``w`` cannot overflow.  Every
    finite ``w`` maps into the simplex; components whose exponentials
    underflow saturate at 0/1 in floating point.
    """
    w = np.asarray(w, dtype=float)
    shift = np.maximum(np.max(w, axis=-1, keepdims=True), 0.0)
    e = np.exp(w - shift)
    denom = np.exp(-shift) + np.sum(e, axis=-1, keepdims=True)
    return e / denom


def c_to_w(c: np.ndarray) -> np.ndarray:
    """Map interior reduced fractions to entropy variables ``log(c_i/c_last)``."""
    c = _require_strict(c)
    last = 1.0 - np.sum(c, axis=-1, keepdims=True)
    return np.log(c) - np.log(last)
