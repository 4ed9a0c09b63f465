"""Friction matrices, entropy structure, and the w <-> c transform.

Matrix oracles below are hand-derived 3x3 / 2x2 evaluations, frozen as
literals; property tests sample the simplex interior with a fixed seed,
except the hypothesis tests that hold the closed-form ternary kernels to
the LAPACK inverse and the species-column state kernels to numpy's
trailing-axis reductions, down to near-vacuum states.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from msdiff import (
    EPS_ADMISSIBLE,
    InadmissibleState,
    ProductionLaw,
    SingularA0,
    ValidationError,
    c_to_w,
    diffusivity_matrix_from_upper,
    friction_matrix,
    friction_matrix_symmetric,
    full_concentrations,
    mobility_matrix,
    new_mixture_spec,
    production_rates,
    reduced_friction_inverse_bound,
    reduced_friction_matrix,
    w_to_c,
)
from msdiff.mixture import (
    _adjugate2,
    _entropy_density,
    _hessian_inverse,
    _inverse_friction,
    _mobility,
    _require_admissible,
    _require_strict,
    _w_to_cf,
    _xlogx,
)


def equal_d_spec(n_species=3, d=1.0):
    D = np.full((n_species, n_species), 1.0 / d)
    np.fill_diagonal(D, 0.0)
    return new_mixture_spec(n_species, D)


def ternary_123_spec():
    # D12=1, D13=2, D23=3 so d12=1, d13=1/2, d23=1/3
    D = diffusivity_matrix_from_upper([1.0, 2.0, 3.0], 3)
    return new_mixture_spec(3, D)


def entropy_density(c):
    """The private density kernel on reduced fractions ``c``."""
    return _entropy_density(full_concentrations(c))


def admits(check, c):
    """Whether the private admissibility check ``check`` lets ``c`` through."""
    try:
        check(c)
    except InadmissibleState:
        return False
    return True


def assert_rejected(info, key, reason):
    """The ``ValidationError`` caught in ``info`` names ``key`` and ``reason``."""
    assert (info.value.key, info.value.reason) == (key, reason)


def random_interior_state(rng, n_species):
    c_full = rng.dirichlet(np.ones(n_species))
    c_full = np.maximum(c_full, 1e-6)
    c_full /= c_full.sum()
    return c_full[:-1]


# ---------------------------------------------------------------------------
# spec construction


class TestNewMixtureSpec:
    def test_equal_unit_diffusivities_band(self):
        spec = equal_d_spec(3, d=1.0)
        assert spec.delta == pytest.approx(1.0)
        # Delta counts ordered pairs: 2 * (3 choose 2) * 1
        assert spec.Delta == pytest.approx(12.0)

    def test_mixed_diffusivity_band(self):
        spec = ternary_123_spec()
        assert spec.delta == pytest.approx(1.0 / 3.0)
        assert spec.Delta == pytest.approx(22.0 / 3.0)

    def test_negative_cross_diffusivity_rejected(self):
        D = np.array([[0.0, -1.0, 1.0], [-1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValidationError) as info:
            new_mixture_spec(3, D)
        assert_rejected(info, "D", "all D_ij with i != j must be positive")

    def test_asymmetric_matrix_rejected(self):
        D = np.array([[0.0, 1.0, 2.0], [1.5, 0.0, 1.0], [2.0, 1.0, 0.0]])
        with pytest.raises(ValidationError) as info:
            new_mixture_spec(3, D)
        assert_rejected(info, "D", "binary diffusivities must satisfy D_ij = D_ji")

    def test_two_species_rejected(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError) as info:
            new_mixture_spec(2, D)
        assert_rejected(info, "species", "at least 3 species are required")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError) as info:
            new_mixture_spec(4, np.ones((3, 3)))
        assert_rejected(info, "D", "expected diffusivity shape (4, 4), got (3, 3)")

    def test_production_law_species_mismatch_rejected(self):
        law = ProductionLaw.quaternary_reversible()
        with pytest.raises(ValidationError) as info:
            new_mixture_spec(4, diffusivity_matrix_from_upper([1.0] * 6, 4), law)
        assert_rejected(
            info, "production", "production law expects 5 species, mixture has 4"
        )

    @pytest.mark.filterwarnings("error")  # an overflow warning first fails too
    @pytest.mark.parametrize(
        "n_species,upper,message",
        [
            (3, [1e-320, 1.0, 1.0], "D: 1/D_ij or Delta"),  # 1/D_12 = inf
            (3, [1e-308, 1.0, 1.0], "D: 1/D_ij or Delta"),  # Delta = inf
            (3, [1e200] * 3, "D: delta**2 = 1e-200**2"),  # underflows to 0
            (6, [1e80] * 15, "D: delta**5 = 1e-80**5"),
            # the closed-form det A0 of three species reaches d_ij d_ik = inf
            (3, [1e-160] * 3, "D: det A0 = d_ij d_ik at a corner overflows"),
            (3, [1e-307, 1e-2, 1.0], "D: det A0 = d_ij d_ik at a corner overflows"),
            (3, [1e-300, 1e-9, 1.0], "D: det A0 = d_ij d_ik at a corner overflows"),
        ],
    )
    def test_friction_data_outside_the_floats_rejected(
        self, n_species, upper, message
    ):
        D = diffusivity_matrix_from_upper(upper, n_species)
        with pytest.raises(ValidationError) as info:
            new_mixture_spec(n_species, D)
        assert str(info.value).startswith(message)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "n_species,upper",
        [
            (3, [1e-307, 1.0, 1.0]),  # Delta = 4e307 and det A0 <= 1e307 fit
            (5, [1e80] * 10),  # delta**4 = 1e-320 is subnormal, not 0
            (3, [1e-150] * 3),  # det A0 <= 1e300
            (4, [1e-160] * 6),  # LAPACK inverts A0; no closed-form det A0
        ],
    )
    def test_extreme_friction_data_inside_the_floats_accepted(
        self, n_species, upper
    ):
        spec = new_mixture_spec(
            n_species, diffusivity_matrix_from_upper(upper, n_species)
        )
        assert 0.0 < min(spec.delta, 1.0) ** (n_species - 1)
        assert spec.Delta < math.inf
        # the vertices of the simplex, where det A0 is a product d_ij d_ik,
        # and its centre
        n = n_species - 1
        c = np.vstack([np.eye(n), np.zeros(n), np.full(n, 1.0 / n_species)])
        assert np.isfinite(mobility_matrix(spec, c)).all()

    def test_upper_triangle_fill(self):
        D = diffusivity_matrix_from_upper([1.0, 2.0, 3.0], 3)
        assert D[0, 1] == 1.0 and D[0, 2] == 2.0 and D[1, 2] == 3.0
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)

    def test_upper_triangle_wrong_count(self):
        with pytest.raises(ValidationError) as info:
            diffusivity_matrix_from_upper([1.0, 2.0], 3)
        assert_rejected(
            info, "D", "3 species need 3 upper-triangle diffusivities, got 2"
        )

    def test_spec_is_frozen(self):
        spec = equal_d_spec()
        with pytest.raises(ValueError):
            spec.d[0, 1] = 5.0


# ---------------------------------------------------------------------------
# friction matrices


class TestFrictionMatrix:
    def test_hand_computed_entries(self):
        # a_ij = d_ij * c_i off-diagonal, a_ii = -sum_{j!=i} d_ij c_j;
        # with all d_ij = 1 and c = (0.2, 0.3, 0.5) each row is
        # (c_i everywhere except the diagonal, which closes the column sum).
        spec = equal_d_spec()
        A = friction_matrix(spec, np.array([0.2, 0.3]))
        expected = np.array(
            [
                [-0.8, 0.2, 0.2],
                [0.3, -0.7, 0.3],
                [0.5, 0.5, -0.5],
            ]
        )
        np.testing.assert_allclose(A, expected, atol=1e-15)

    def test_kernel_property_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.integers(3, 6)
            D = rng.uniform(0.1, 10.0, size=(n, n))
            D = 0.5 * (D + D.T)
            np.fill_diagonal(D, 0.0)
            spec = new_mixture_spec(int(n), D)
            c = random_interior_state(rng, int(n))
            A = friction_matrix(spec, c)
            residual = A @ full_concentrations(c)
            assert np.max(np.abs(residual)) <= 1e-14

    def test_equal_d_rank_one_structure(self):
        # With unit diffusivities -A = I - c (x) 1, eigenvalues {0, 1, 1}.
        rng = np.random.default_rng(3)
        spec = equal_d_spec()
        c = random_interior_state(rng, 3)
        vals = np.sort(np.linalg.eigvals(-friction_matrix(spec, c)).real)
        np.testing.assert_allclose(vals, [0.0, 1.0, 1.0], atol=1e-12)

    def test_symmetrized_off_diagonal(self):
        spec = equal_d_spec()
        A_S = friction_matrix_symmetric(spec, np.array([0.25, 0.25]))
        assert A_S[0, 1] == pytest.approx(0.25, abs=1e-15)

    def test_symmetrized_is_symmetric(self):
        rng = np.random.default_rng(5)
        spec = ternary_123_spec()
        c = random_interior_state(rng, 3)
        A_S = friction_matrix_symmetric(spec, c)
        assert np.max(np.abs(A_S - A_S.T)) <= 1e-12

    def test_symmetrized_rejects_boundary(self):
        spec = equal_d_spec()
        with pytest.raises(InadmissibleState, match="touches the simplex boundary"):
            friction_matrix_symmetric(spec, np.array([0.0, 0.5]))

    def test_similarity_to_plain_friction(self):
        # A_S = X^-1 A X with X = diag(sqrt c): same spectrum.
        rng = np.random.default_rng(7)
        spec = ternary_123_spec()
        c = random_interior_state(rng, 3)
        vals_plain = np.sort(np.linalg.eigvals(friction_matrix(spec, c)).real)
        vals_sym = np.sort(np.linalg.eigvalsh(friction_matrix_symmetric(spec, c)))
        np.testing.assert_allclose(vals_plain, vals_sym, atol=1e-10)


class TestReducedFriction:
    def test_equal_d_collapses_to_scalar(self):
        spec = equal_d_spec(3, d=2.0)
        A0 = reduced_friction_matrix(spec, np.array([0.3, 0.3]))
        np.testing.assert_allclose(A0, 2.0 * np.eye(2), atol=1e-15)

    def test_hand_computed_instance(self):
        # d = (1, 1/2, 1/3) for pairs (12, 13, 23), c' = (0.2, 0.3):
        # row 1: diag 1/2 + (1 - 1/2)*0.3 = 0.65, off -(1 - 1/2)*0.2 = -0.1
        # row 2: off -(1 - 1/3)*0.3 = -0.2, diag 1/3 + (1 - 1/3)*0.2 = 7/15
        spec = ternary_123_spec()
        A0 = reduced_friction_matrix(spec, np.array([0.2, 0.3]))
        expected = np.array([[0.65, -0.1], [-0.2, 7.0 / 15.0]])
        np.testing.assert_allclose(A0, expected, atol=1e-15)
        # quadratic formula on trace 67/60, determinant 17/60
        vals = np.sort(np.linalg.eigvals(A0).real)
        np.testing.assert_allclose(vals, [0.38980210, 0.72686457], atol=1e-8)

    def test_pure_last_species_is_diagonal(self):
        spec = ternary_123_spec()
        A0 = reduced_friction_matrix(spec, np.zeros(2))
        np.testing.assert_allclose(A0, np.diag([0.5, 1.0 / 3.0]), atol=1e-15)

    def test_inverse_roundtrip(self):
        spec = ternary_123_spec()
        c = np.array([0.2, 0.3])
        A0 = reduced_friction_matrix(spec, c)
        inv = _inverse_friction(spec, c)
        np.testing.assert_allclose(inv @ A0, np.eye(2), atol=1e-12)

    def test_equal_d_inverse_is_scalar(self):
        spec = equal_d_spec(4, d=3.0)
        inv = _inverse_friction(spec, np.array([0.2, 0.2, 0.2]))
        np.testing.assert_allclose(inv, np.eye(3) / 3.0, atol=1e-14)

    def test_inverse_entries_within_uniform_bound(self):
        # Adjugate/determinant estimate: (N-1)! K^(N-1) / delta^N.  Sampling
        # includes boundary states, where the bound must still hold.
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(3, 6))
            D = rng.uniform(0.1, 10.0, size=(n, n))
            D = 0.5 * (D + D.T)
            np.fill_diagonal(D, 0.0)
            spec = new_mixture_spec(n, D)
            bound = reduced_friction_inverse_bound(spec)
            for _ in range(50):
                c_full = rng.dirichlet(np.ones(n) * rng.uniform(0.2, 2.0))
                inv = _inverse_friction(spec, c_full[:-1])
                assert np.max(np.abs(inv)) <= bound


# ---------------------------------------------------------------------------
# entropy structure


class TestEntropy:
    def test_uniform_ternary_density(self):
        h = entropy_density(np.array([1 / 3, 1 / 3]))
        assert h == pytest.approx(-1.0 - math.log(3.0), abs=1e-14)

    def test_corner_state_density(self):
        # x log x -> 0 at the simplex corner leaves only the -sum(c) term.
        h = entropy_density(np.array([1.0, 0.0]))
        assert h == pytest.approx(-1.0, abs=1e-15)

    def test_half_quarter_density(self):
        # 1/2(log 1/2 - 1) + 2 * 1/4(log 1/4 - 1), all three species counted
        expected = 0.5 * (math.log(0.5) - 1) + 0.5 * (math.log(0.25) - 1)
        h = entropy_density(np.array([0.5, 0.25]))
        assert h == pytest.approx(expected, abs=1e-14)
        assert h == pytest.approx(-2.0397207708399179, abs=1e-12)

    def test_xlogx_within_two_ulps_of_xlogy(self):
        # numpy's log and the C library's each round within an ulp; zeros
        # and subnormals included, and a RuntimeWarning fails the suite
        from scipy.special import xlogy

        x = np.concatenate(
            [[0.0, 5e-324, 1e-310, 1e-300, 1.0],
             np.random.default_rng(0).uniform(0.0, 1.0, 10000)]
        )
        got = _xlogx(x)
        assert got[0] == 0.0 and got[4] == 0.0
        np.testing.assert_array_max_ulp(got, xlogy(x, x), maxulp=2)

    def test_density_vectorized_over_cells(self):
        c = np.array([[1 / 3, 1 / 3], [0.5, 0.25]])
        h = entropy_density(c)
        assert h.shape == (2,)
        assert h[0] == pytest.approx(-1.0 - math.log(3.0))

    def test_hessian_inverse_hand_computed(self):
        Hinv = _hessian_inverse(np.array([1 / 3, 1 / 3]))
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 9.0
        np.testing.assert_allclose(Hinv, expected, atol=1e-15)

    def test_hessian_inverse_is_true_inverse(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            c = random_interior_state(rng, 4)
            # the entropy Hessian h_ij = 1/c_{N+1} + delta_ij / c_i
            H = 1.0 / (1.0 - c.sum()) + np.diag(1.0 / c)
            Hinv = _hessian_inverse(c)
            np.testing.assert_allclose(H @ Hinv, np.eye(3), atol=1e-10)

    @pytest.mark.parametrize(
        "c",
        [
            [1.0 - 1.8e-9, 1.8e-9],
            [1.0 - 1.8e-9 - 3e-10, 1.8e-9, 3e-10],
        ],
    )
    def test_hessian_inverse_exact_near_a_vertex(self, c):
        # diag(c) - c c^T in rational arithmetic from the same float state;
        # c_i - c_i**2 would cancel to a relative error of about 1e-9 here
        c = np.array(c)
        Hinv = _hessian_inverse(c)
        for i, ci in enumerate(c):
            for j, cj in enumerate(c):
                exact = (Fraction(ci) if i == j else 0) - Fraction(ci) * Fraction(cj)
                err = abs(Fraction(Hinv[i, j]) - exact) / abs(exact)
                assert err <= Fraction(1, 10**15)

    def test_hessian_inverse_vanishes_with_component(self):
        # diag(c) - c (x) c: row/column i scales with c_i, so a zeroed
        # component zeroes its row and column instead of blowing up.
        Hinv = _hessian_inverse(np.array([0.0, 0.5]))
        assert np.all(Hinv[0, :] == 0.0) and np.all(Hinv[:, 0] == 0.0)


class TestMobility:
    def test_equal_d_is_scaled_hessian_inverse(self):
        spec = equal_d_spec(3, d=2.0)
        c = np.array([1 / 3, 1 / 3])
        B = mobility_matrix(spec, c)
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 18.0
        np.testing.assert_allclose(B, expected, atol=1e-14)

    def test_symmetric_positive_definite(self):
        spec = ternary_123_spec()
        B = mobility_matrix(spec, np.array([0.2, 0.3]))
        assert np.max(np.abs(B - B.T)) <= 1e-10
        assert np.linalg.eigvalsh(0.5 * (B + B.T))[0] > 0.0

    def test_bounded_near_boundary(self):
        rng = np.random.default_rng(29)
        spec = ternary_123_spec()
        bound = reduced_friction_inverse_bound(spec) * 2 * 3  # |Hinv| <= 2, N+1 terms
        for _ in range(200):
            c_full = rng.dirichlet(np.ones(3))
            c_full = np.maximum(c_full, 1e-12)
            c_full /= c_full.sum()
            B = mobility_matrix(spec, c_full[:-1])
            assert np.all(np.isfinite(B))
            assert np.max(np.abs(B)) <= bound


def sampled_spec_and_states(n_species, seed, batch):
    """A mixture with diffusivity ratios up to 10^3 and Dirichlet states,
    near vacuum for small concentration parameters; ``batch=None`` gives a
    single ``(N,)`` state, otherwise ``(batch, N)``."""
    rng = np.random.default_rng(seed)
    upper = 10.0 ** rng.uniform(-1.5, 1.5, size=n_species * (n_species - 1) // 2)
    spec = new_mixture_spec(n_species, diffusivity_matrix_from_upper(upper, n_species))
    alpha = 10.0 ** rng.uniform(-2.0, 0.5)
    c_full = rng.dirichlet(np.full(n_species, alpha), size=batch)
    return spec, c_full[..., :-1]


def lapack_reference(spec, c):
    """A0^-1 and B = A0^-1 H^-1 by LAPACK inverse and matrix product."""
    inv = np.linalg.inv(reduced_friction_matrix(spec, c))
    return inv, inv @ _hessian_inverse(c)


class TestClosedFormTernary:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.one_of(st.none(), st.integers(1, 16)),
    )
    def test_matches_lapack_reference(self, seed, batch):
        spec, c = sampled_spec_and_states(3, seed, batch)
        inv_ref, B_ref = lapack_reference(spec, c)
        inv, B = _inverse_friction(spec, c), mobility_matrix(spec, c)
        assert inv.shape == inv_ref.shape and B.shape == B_ref.shape
        for got, ref in ((inv, inv_ref), (B, B_ref)):
            scale = np.max(np.abs(ref), axis=(-2, -1))
            err = np.max(np.abs(got - ref), axis=(-2, -1))
            assert np.all(err <= 1e-12 * scale)
        asym = np.max(np.abs(B - np.swapaxes(B, -1, -2)), axis=(-2, -1))
        assert np.all(asym <= 1e-12 * np.max(np.abs(B_ref), axis=(-2, -1)))

    @pytest.mark.parametrize("n_species", [4, 5])
    @pytest.mark.parametrize("batch", [None, 9])
    def test_more_species_keep_lapack_bitwise(self, n_species, batch):
        for seed in range(20):
            spec, c = sampled_spec_and_states(n_species, seed, batch)
            inv_ref, B_ref = lapack_reference(spec, c)
            assert np.array_equal(_inverse_friction(spec, c), inv_ref)
            assert np.array_equal(mobility_matrix(spec, c), B_ref)

    def test_corrupted_state_raises_singular(self):
        # the public names reject such states first; the kernels still refuse
        spec = ternary_123_spec()
        c = np.array([[0.2, 0.3], [np.nan, 0.3]])
        with pytest.raises(SingularA0):
            _inverse_friction(spec, c)
        with pytest.raises(SingularA0):
            _mobility(spec, c, _hessian_inverse(np.zeros((2, 2))))


# Reference state kernels: numpy reductions and broadcasts along the short
# species axis, the form the column-loop kernels must reproduce bitwise.
# Their species sums are numpy's own unless another ``total`` is passed.


def numpy_sum(x):
    return np.sum(x, axis=-1, keepdims=True)


def left_to_right_sum(x):
    """The species sum added left to right from 0.0, the kernels' order."""
    total = np.zeros(x.shape[:-1] + (1,))
    for i in range(x.shape[-1]):
        total = total + x[..., i : i + 1]
    return total


def ref_w_to_c(w, total=numpy_sum):
    shift = np.maximum(np.max(w, axis=-1, keepdims=True), 0.0)
    e = np.exp(w - shift)
    return e / (np.exp(-shift) + total(e))


def ref_w_to_cf(w, total=numpy_sum):
    shift = np.maximum(np.max(w, axis=-1, keepdims=True), 0.0)
    e = np.concatenate([np.exp(w - shift), np.exp(-shift)], axis=-1)
    return e / (np.exp(-shift) + total(e[..., :-1]))


def ref_full_concentrations(c, total=numpy_sum):
    return np.concatenate([c, 1.0 - total(c)], axis=-1)


def ref_is_admissible(c, tol=0.0, total=numpy_sum):
    return bool(np.all(c >= -tol) and np.all(total(c) <= 1.0 + tol))


def ref_is_strictly_admissible(c, eps=EPS_ADMISSIBLE):
    return bool(np.all(c >= eps) and np.all(np.sum(c, axis=-1) <= 1.0 - eps))


def ref_hessian_inverse(c):
    Hinv = -c[..., :, None] * c[..., None, :]
    idx = np.arange(c.shape[-1])
    Hinv[..., idx, idx] = c * (1.0 - c)
    return Hinv


def ref_mobility(spec, c):
    hinv = ref_hessian_inverse(c)
    if spec.n_reduced != 2:
        return np.linalg.inv(reduced_friction_matrix(spec, c)) @ hinv
    adj, det = _adjugate2(spec, c)
    a, h = adj, hinv
    B = np.empty_like(adj)
    B[..., 0, 0] = a[..., 0, 0] * h[..., 0, 0] + a[..., 0, 1] * h[..., 0, 1]
    B[..., 0, 1] = a[..., 0, 0] * h[..., 0, 1] + a[..., 0, 1] * h[..., 1, 1]
    B[..., 1, 0] = a[..., 1, 0] * h[..., 0, 0] + a[..., 1, 1] * h[..., 0, 1]
    B[..., 1, 1] = a[..., 1, 0] * h[..., 0, 1] + a[..., 1, 1] * h[..., 1, 1]
    B /= det[..., None, None]
    return B


def bitwise_equal(got, ref):
    """Same shape, same values and same signs of zero."""
    return (
        got.shape == ref.shape
        and np.array_equal(got, ref)
        and np.array_equal(np.signbit(got), np.signbit(ref))
    )


@st.composite
def entropy_fields(draw, min_species, max_species):
    """Entropy variables of one state, a field or a stack of two fields.

    Entries reach |w| = 700, where exp underflows for the minority
    species, so the mapped states include near-vacuum ones.
    """
    n = draw(st.integers(min_species, max_species)) - 1
    cells = draw(st.integers(1, 12))
    shape = draw(st.sampled_from([(n,), (cells, n), (2, cells, n)]))
    return draw(hnp.arrays(float, shape, elements=st.floats(-700.0, 700.0)))


class TestSpeciesColumnKernels:
    @settings(max_examples=200, deadline=None)
    @given(w=entropy_fields(3, 8), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_trailing_axis_reductions(self, w, seed):
        c = ref_w_to_c(w)
        assert bitwise_equal(w_to_c(w), c)
        assert bitwise_equal(_w_to_cf(w), ref_w_to_cf(w))
        assert bitwise_equal(full_concentrations(c), ref_full_concentrations(c))
        # nudged states straddle every admissibility threshold
        rng = np.random.default_rng(seed)
        nudged = c + rng.choice([0.0, 1e-13, -1e-13, 1e-15], size=c.shape)
        for x in (c, nudged):
            assert admits(_require_admissible, x) == ref_is_admissible(x, 1e-12)
            assert admits(_require_strict, x) == ref_is_strictly_admissible(x)
        assert bitwise_equal(_hessian_inverse(c), ref_hessian_inverse(c))
        n = c.shape[-1]
        upper = 10.0 ** rng.uniform(-1.5, 1.5, size=(n + 1) * n // 2)
        spec = new_mixture_spec(n + 1, diffusivity_matrix_from_upper(upper, n + 1))
        assert bitwise_equal(mobility_matrix(spec, c), ref_mobility(spec, c))

    @settings(max_examples=50, deadline=None)
    @given(w=entropy_fields(9, 10))
    @example(w=np.array([5.0] + [0.0] * 7))
    @example(w=np.array([4.0] + [-1.0] * 7))
    @example(w=np.array([12.875] + [0.0] * 7))
    def test_left_to_right_sums_past_seven_terms(self, w):
        # from 8 terms on numpy sums pairwise, which differs from the
        # kernels' left-to-right sums by a few ulps (5 to 6 on the pinned
        # draws); references summed in the kernels' order agree bitwise
        c = ref_w_to_c(w, left_to_right_sum)
        assert bitwise_equal(w_to_c(w), c)
        assert bitwise_equal(_w_to_cf(w), ref_w_to_cf(w, left_to_right_sum))
        assert bitwise_equal(
            full_concentrations(c), ref_full_concentrations(c, left_to_right_sum)
        )
        assert admits(_require_admissible, c) == ref_is_admissible(
            c, 1e-12, left_to_right_sum
        )
        assert bitwise_equal(_hessian_inverse(c), ref_hessian_inverse(c))


# ---------------------------------------------------------------------------
# transforms and admissibility


class TestTransforms:
    def test_zero_w_is_uniform(self):
        np.testing.assert_allclose(w_to_c(np.zeros(2)), [1 / 3, 1 / 3], atol=1e-15)

    def test_half_quarter_roundtrip(self):
        c = np.array([0.5, 0.25])
        w = c_to_w(c)
        np.testing.assert_allclose(w, [math.log(2.0), 0.0], atol=1e-15)
        np.testing.assert_allclose(w_to_c(w), c, atol=1e-15)

    def test_large_w_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            c = w_to_c(np.array([800.0, 0.0]))
        # exp(-800) underflows, so saturation to the vertex is exact here
        assert c[0] == pytest.approx(1.0, abs=1e-16)
        assert float(c.sum()) <= 1.0

    def test_roundtrip_random(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            c = random_interior_state(rng, 4)
            np.testing.assert_allclose(w_to_c(c_to_w(c)), c, atol=1e-14)

    def test_w_to_c_moderate_w_strictly_interior(self):
        rng = np.random.default_rng(37)
        w = rng.normal(scale=5.0, size=(64, 3))
        c = w_to_c(w)
        assert np.all(c > 0.0)
        assert np.all(c.sum(axis=1) < 1.0)

    def test_w_to_c_extreme_w_stays_in_closed_simplex(self):
        # beyond ~745 in w-gap the minority exponentials underflow and the
        # result saturates at a vertex; it must never leave [0, 1]
        rng = np.random.default_rng(39)
        w = rng.normal(scale=400.0, size=(256, 4))
        with np.errstate(over="raise", invalid="raise"):
            c = w_to_c(w)
        assert np.all(np.isfinite(c))
        assert np.all(c >= 0.0)
        assert np.all(c.sum(axis=1) <= 1.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_w_to_cf_carries_the_last_fraction_from_w(self, n):
        # at |w| of about 40 the last fraction 1 / (1 + sum exp(w)) is below
        # 1e-16: 1 - sum(c) rounds it to 0.0, the shared denominator keeps it
        rng = np.random.default_rng(43 + n)
        w = rng.normal(scale=3.0, size=(64, n))
        w[:32, 0] = 40.0 + rng.uniform(0.0, 5.0, size=32)
        w[:32, 1:] = -np.abs(w[:32, 1:])  # c_1 rounds to 1, the rest vanish
        cf = _w_to_cf(w)
        assert bitwise_equal(cf[:, :-1], w_to_c(w))
        assert bitwise_equal(cf[:, :-1], ref_w_to_c(w))
        lost = full_concentrations(w_to_c(w))[:, -1] == 0.0
        assert lost[:32].all()
        assert np.all(cf[:, -1] > 0.0)
        exact = np.exp(-np.logaddexp.reduce(np.c_[np.zeros(64), w], axis=-1))
        np.testing.assert_allclose(cf[:, -1], exact, rtol=1e-13)

    def test_c_to_w_rejects_boundary(self):
        with pytest.raises(InadmissibleState, match="touches the simplex boundary"):
            c_to_w(np.array([1.0, 0.0]))

    def test_field_shaped_transform(self):
        rng = np.random.default_rng(41)
        c = np.stack([random_interior_state(rng, 4) for _ in range(8)])
        w = c_to_w(c)
        assert w.shape == c.shape
        np.testing.assert_allclose(w_to_c(w), c, atol=1e-13)


class TestAdmissibility:
    def test_admissible_accepts_boundary(self):
        assert admits(_require_admissible, np.array([1.0, 0.0]))
        assert admits(_require_admissible, np.array([0.0, 0.0]))

    def test_admissible_rejects_excess_sum(self):
        assert not admits(_require_admissible, np.array([0.7, 0.4]))

    def test_admissible_rejects_negative(self):
        assert not admits(_require_admissible, np.array([-0.1, 0.5]))

    def test_strict_needs_margin(self):
        assert admits(_require_strict, np.array([0.3, 0.3]))
        assert not admits(_require_strict, np.array([EPS_ADMISSIBLE / 2, 0.3]))
        assert not admits(_require_strict, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("where", [(0, 0), (1, 1)])
    def test_nan_entry_rejected(self, where):
        # the checks reduce with min/max; a NaN anywhere must still fail them
        c = np.full((3, 2), 0.25)
        c[where] = np.nan
        assert not admits(_require_admissible, c)
        assert not admits(_require_strict, c)

    def test_empty_batch_admitted(self):
        empty = np.empty((0, 2))
        assert admits(_require_admissible, empty)
        assert admits(_require_strict, empty)

    def test_full_concentrations_closes_sum(self):
        cf = full_concentrations(np.array([0.2, 0.3]))
        np.testing.assert_allclose(cf, [0.2, 0.3, 0.5], atol=1e-15)
        assert cf.sum() == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# production laws


class TestProductionLaws:
    def test_zero_law(self):
        law = ProductionLaw.zero()
        r = production_rates(law, np.array([0.2, 0.3, 0.5]))
        assert np.all(r == 0.0)

    def test_quaternary_example_rates(self):
        # c2 c4 - c1 c3 = 0.2*0.2 - 0.1*0.3 = 0.01
        law = ProductionLaw.quaternary_reversible()
        r = production_rates(law, np.array([0.1, 0.2, 0.3, 0.2, 0.2]))
        np.testing.assert_allclose(r, [0.01, -0.01, 0.01, -0.01, 0.0], atol=1e-15)

    def test_quaternary_detailed_balance(self):
        law = ProductionLaw.quaternary_reversible()
        c = np.array([0.2, 0.1, 0.1, 0.2, 0.4])  # c1 c3 = c2 c4 = 0.02
        r = production_rates(law, c)
        assert np.max(np.abs(r)) <= 1e-15

    def test_quaternary_rates_sum_to_zero(self):
        rng = np.random.default_rng(43)
        law = ProductionLaw.quaternary_reversible()
        for _ in range(25):
            c = rng.dirichlet(np.ones(5))
            r = production_rates(law, c)
            assert abs(r.sum()) <= 1e-15

    def test_quaternary_wrong_species_count(self):
        law = ProductionLaw.quaternary_reversible()
        with pytest.raises(ValidationError) as info:
            production_rates(law, np.array([0.2, 0.3, 0.5]))
        assert_rejected(
            info, "production", "quaternary_reversible law needs 5 species, got 3"
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError) as info:
            production_rates(ProductionLaw(kind="fission"), np.array([0.2, 0.3, 0.5]))
        assert_rejected(info, "production", "unknown production law kind 'fission'")

    def test_field_evaluation(self):
        law = ProductionLaw.quaternary_reversible()
        c = np.tile(np.array([0.1, 0.2, 0.3, 0.2, 0.2]), (6, 1))
        r = production_rates(law, c)
        assert r.shape == (6, 5)
        np.testing.assert_allclose(r[3], [0.01, -0.01, 0.01, -0.01, 0.0], atol=1e-15)
