"""Finite-volume grid operators on the closed interval with no-flux walls."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import diags

import msdiff
from msdiff import (
    Grid1D,
    ValidationError,
    divergence,
    face_gradient,
    integrate,
    laplacian_squared_lower_bands,
)


def dense_laplacian(grid):
    """Dense Neumann Laplacian: the matrix of divergence(face_gradient(.))."""
    main = np.full(grid.cells, -2.0)
    main[0] = main[-1] = -1.0
    off = np.ones(grid.cells - 1)
    return (np.diag(main) + np.diag(off, 1) + np.diag(off, -1)) / grid.h**2


@pytest.fixture
def grid4():
    return Grid1D(length=1.0, cells=4)


class TestGrid1D:
    def test_spacing_and_centers(self, grid4):
        assert grid4.h == pytest.approx(0.25)
        np.testing.assert_allclose(grid4.centers, [0.125, 0.375, 0.625, 0.875])

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValidationError):
            Grid1D(length=0.0, cells=4)
        with pytest.raises(ValidationError):
            Grid1D(length=1.0, cells=0)

    @pytest.mark.parametrize(
        "length,cells,message",
        [
            (1.0, 2.5, "cells: not an integer: 2.5"),
            (1.0, 4.0, "cells: not an integer: 4.0"),
            (float("inf"), 4, "length: must be finite"),
            (float("nan"), 4, "length: must be finite"),
            ("1", 4, "length: not a number: '1'"),
        ],
    )
    def test_rejects_non_integer_cells_and_non_finite_length(
        self, length, cells, message
    ):
        # 2.5 cells would build 3 centers spaced 0.4 apart
        with pytest.raises(ValidationError) as info:
            Grid1D(length=length, cells=cells)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "length",
        [
            1e-200,  # h**2 underflows to 0
            4e-160,  # h**2 = 1e-320 is subnormal and 1/h**2 overflows
            1e200,  # h**2 overflows
        ],
    )
    def test_rejects_cell_widths_whose_square_leaves_the_floats(self, length):
        with pytest.raises(ValidationError) as info:
            Grid1D(length=length, cells=4)
        assert str(info.value).startswith("length: cell width ")

    @pytest.mark.parametrize("length", [1e-80, 1e80])
    def test_accepts_extreme_cell_widths_with_a_float_square(self, length):
        assert Grid1D(length=length, cells=4).h == length / 4

    def test_numpy_scalars_are_numbers(self):
        grid = Grid1D(length=np.float64(2.0), cells=np.int64(4))
        assert grid.h == 0.5 and grid.centers.size == 4


class TestFaceGradient:
    def test_constant_field_zero(self, grid4):
        g = face_gradient(grid4, np.ones((4, 2)))
        assert g.shape == (5, 2)
        assert np.all(g == 0.0)

    def test_linear_field_unit_slope(self, grid4):
        f = grid4.centers[:, None].copy()
        g = face_gradient(grid4, f)
        np.testing.assert_allclose(g[1:-1], 1.0, atol=1e-13)
        assert np.all(g[0] == 0.0) and np.all(g[-1] == 0.0)

    def test_spike_gives_two_opposite_faces(self, grid4):
        f = np.zeros((4, 1))
        f[2, 0] = 1.0
        g = face_gradient(grid4, f)[:, 0]
        np.testing.assert_allclose(g, [0.0, 0.0, 4.0, -4.0, 0.0], atol=1e-13)

    def test_shape_check(self, grid4):
        with pytest.raises(ValidationError) as info:
            face_gradient(grid4, np.ones((5, 2)))
        assert (info.value.key, info.value.reason) == (
            "f",
            "cell field must have 4 rows, got 5",
        )


class TestDivergence:
    def test_zero_flux(self, grid4):
        assert np.all(divergence(grid4, np.zeros((5, 3))) == 0.0)

    def test_telescoping_sum(self, grid4):
        rng = np.random.default_rng(2)
        flux = rng.normal(size=(5, 2))
        flux[0] = flux[-1] = 0.0
        div = divergence(grid4, flux)
        assert np.max(np.abs(div.sum(axis=0))) <= 1e-13

    def test_composition_is_laplacian(self):
        grid = Grid1D(length=2.0, cells=8)
        rng = np.random.default_rng(4)
        f = rng.normal(size=(8, 1))
        lhs = divergence(grid, face_gradient(grid, f))
        rhs = dense_laplacian(grid) @ f
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestNeumannLaplacian:
    def test_three_cell_stencil(self):
        grid = Grid1D(length=3.0, cells=3)  # h = 1
        L = dense_laplacian(grid)
        expected = np.array([[-1.0, 1, 0], [1, -2, 1], [0, 1, -1]])
        np.testing.assert_allclose(L, expected, atol=1e-15)

    def test_constant_in_kernel(self):
        grid = Grid1D(length=1.0, cells=17)
        L = dense_laplacian(grid)
        assert np.max(np.abs(L @ np.ones(17))) <= 1e-10

    def test_three_cell_spectrum(self):
        # char poly of -h^2 L: lambda(lambda - 1)(lambda - 3)
        grid = Grid1D(length=3.0, cells=3)
        vals = np.sort(np.linalg.eigvalsh(-dense_laplacian(grid)))
        np.testing.assert_allclose(vals, [0.0, 1.0, 3.0], atol=1e-12)

    def test_symmetric_negative_semidefinite(self):
        grid = Grid1D(length=1.5, cells=12)
        L = dense_laplacian(grid)
        assert np.max(np.abs(L - L.T)) == 0.0
        assert np.linalg.eigvalsh(L)[-1] <= 1e-12

    def test_summation_by_parts(self):
        # h * u . (L v) == -h * sum of face_gradient(u) * face_gradient(v):
        # discrete Green identity with both boundary terms killed by no-flux
        grid = Grid1D(length=1.0, cells=9)
        rng = np.random.default_rng(8)
        u = rng.normal(size=(9, 1))
        v = rng.normal(size=(9, 1))
        L = dense_laplacian(grid)
        lhs = grid.h * float(u[:, 0] @ (L @ v[:, 0]))
        gu = face_gradient(grid, u)[:, 0]
        gv = face_gradient(grid, v)[:, 0]
        rhs = -grid.h * float(gu @ gv)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestLaplacianSquaredBands:
    def test_matches_dense_square(self):
        grid = Grid1D(length=1.0, cells=7)
        L = dense_laplacian(grid)
        L2 = L @ L
        d0, d1, d2 = laplacian_squared_lower_bands(grid)
        np.testing.assert_allclose(d0, np.diag(L2), rtol=1e-13)
        np.testing.assert_allclose(d1, np.diag(L2, -1), rtol=1e-13)
        np.testing.assert_allclose(d2, np.diag(L2, -2), rtol=1e-13)

    @pytest.mark.parametrize(
        "length,cells",
        [(1.0, 2), (1.0, 3), (0.1, 17), (3.7, 128), (6.286, 129), (0.125, 1000),
         (10.0, 4096), (1.0, 8192)],
    )
    def test_bitwise_equal_to_sparse_product(self, length, cells):
        grid = Grid1D(length=length, cells=cells)
        main = np.full(cells, -2.0)
        main[0] = main[-1] = -1.0
        off = np.ones(cells - 1)
        L = diags([off, main, off], [-1, 0, 1]) / grid.h**2
        L2 = (L @ L).todia()
        expected = (L2.diagonal(0), L2.diagonal(-1), L2.diagonal(-2))
        for band, ref in zip(laplacian_squared_lower_bands(grid), expected):
            assert band.dtype == ref.dtype
            assert np.array_equal(band, ref)
        if cells <= 1000:
            assert np.array_equal(dense_laplacian(grid), L.toarray())

    def test_positive_semidefinite_quadratic_form(self):
        grid = Grid1D(length=1.0, cells=7)
        L = dense_laplacian(grid)
        rng = np.random.default_rng(16)
        x = rng.normal(size=7)
        assert float(x @ (L @ L) @ x) >= 0.0


class TestIntegrate:
    def test_constant_on_scaled_interval(self):
        grid = Grid1D(length=2.0, cells=10)
        assert integrate(grid, np.full(10, 3.0)) == pytest.approx(6.0)

    def test_midpoint_rule_arithmetic(self, grid4):
        assert integrate(grid4, np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(2.5)

    def test_midpoint_exact_for_linear(self):
        # midpoint rule integrates polynomials of degree <= 1 exactly
        grid = Grid1D(length=1.0, cells=13)
        assert integrate(grid, grid.centers) == pytest.approx(0.5, abs=1e-14)

    def test_per_species_columns(self, grid4):
        f = np.stack([np.ones(4), 2 * np.ones(4)], axis=1)
        np.testing.assert_allclose(integrate(grid4, f), [1.0, 2.0])


def test_import_loads_no_sparse_module():
    # the child imports the same msdiff as this process
    src = str(Path(msdiff.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import msdiff; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
