"""Spectral certificates for the friction operators.

The eigenvalue band [delta, Delta) is a proved property of the continuous
operators; these tests pin the reporting logic on hand-solvable matrices and
then hammer the certificates with random mixtures.
"""

import numpy as np
import pytest

from msdiff import (
    NotSymmetric,
    SpectrumReport,
    ValidationError,
    certify_friction_spectrum,
    certify_reduced_spectrum,
    friction_matrix,
    new_mixture_spec,
    symmetric_spectrum,
)
from msdiff.spectra import _band_report, _reduced_spectra
from test_mixture import equal_d_spec, random_interior_state, ternary_123_spec


class TestSymmetricSpectrum:
    def test_identity(self):
        np.testing.assert_allclose(symmetric_spectrum(np.eye(3)), [1, 1, 1])

    def test_diagonal_sorted(self):
        np.testing.assert_allclose(symmetric_spectrum(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_two_by_two_hand_solved(self):
        # [[6,3],[3,6]]: trace 12, det 27, eigenvalues 3 and 9
        M = np.array([[6.0, 3.0], [3.0, 6.0]])
        np.testing.assert_allclose(symmetric_spectrum(M), [3.0, 9.0], atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            symmetric_spectrum(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_reduced_spectrum_rejects_complex_eigenvalues(self):
        # the reduced friction spectrum is provably real; a rotation's is +-i
        with pytest.raises(NotSymmetric, match="imaginary parts up to 1.000e"):
            _reduced_spectra(equal_d_spec(3), np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_rejects_rectangular(self):
        with pytest.raises(ValidationError) as info:
            symmetric_spectrum(np.ones((2, 3)))
        assert (info.value.key, info.value.reason) == (
            "M",
            "expected a square matrix, got shape (2, 3)",
        )

    def test_tiny_asymmetry_averaged(self):
        M = np.array([[2.0, 1.0 + 1e-12], [1.0, 2.0]])
        vals = symmetric_spectrum(M)
        np.testing.assert_allclose(vals, [1.0, 3.0], atol=1e-9)


class TestFrictionCertificate:
    def test_equal_d_reports_rank_one_spectrum(self):
        rng = np.random.default_rng(6)
        spec = equal_d_spec(3, d=1.0)
        report = certify_friction_spectrum(spec, random_interior_state(rng, 3))
        assert report.zero_multiplicity == 1
        assert report.in_band
        np.testing.assert_allclose(report.eigenvalues, [0.0, 1.0, 1.0], atol=1e-10)

    def test_mixed_d_instance(self):
        report = certify_friction_spectrum(ternary_123_spec(), np.array([0.2, 0.3]))
        assert report.zero_multiplicity == 1
        assert report.in_band
        assert report.delta == pytest.approx(1.0 / 3.0)
        assert report.Delta == pytest.approx(22.0 / 3.0)

    def test_report_is_frozen_view(self):
        report = certify_friction_spectrum(ternary_123_spec(), np.array([0.2, 0.3]))
        assert isinstance(report, SpectrumReport)
        with pytest.raises(ValueError):
            report.eigenvalues[0] = 99.0


class TestReducedCertificate:
    def test_equal_d_all_eigenvalues_at_d(self):
        spec = equal_d_spec(4, d=2.0)  # friction d = 2 for every pair
        report = certify_reduced_spectrum(spec, np.array([0.2, 0.2, 0.2]))
        np.testing.assert_allclose(report.eigenvalues, [2.0, 2.0, 2.0], atol=1e-12)
        assert report.in_band and report.zero_multiplicity == 0

    def test_mixed_d_instance(self):
        report = certify_reduced_spectrum(ternary_123_spec(), np.array([0.2, 0.3]))
        np.testing.assert_allclose(
            report.eigenvalues, [0.38980210, 0.72686457], atol=1e-8
        )
        assert report.in_band

    def test_boundary_state_diagonal(self):
        # pure last species: A0 = diag(d_i,N+1), spectrum inside the band
        report = certify_reduced_spectrum(ternary_123_spec(), np.zeros(2))
        np.testing.assert_allclose(report.eigenvalues, [1.0 / 3.0, 0.5], atol=1e-14)
        assert report.in_band


class TestBandEdges:
    """The band test on hand-placed spectra: zeros within tol are counted,
    the lower edge is widened by tol, the upper edge is strict, and a NaN
    is neither a zero nor inside the band."""

    spec = ternary_123_spec()  # delta 1/3, Delta 22/3

    @pytest.mark.parametrize(
        "extra, zeros, in_band",
        [
            ([], 1, True),
            ([1e-10], 2, True),
            ([spec.delta - 1e-9 * spec.Delta], 1, True),
            ([0.3], 1, False),
            ([spec.Delta], 1, False),
            ([np.nan], 1, False),
        ],
    )
    def test_edges(self, extra, zeros, in_band):
        report = _band_report(self.spec, np.array([0.0, 1.0, 7.0] + extra))
        assert report.zero_multiplicity == zeros
        assert report.in_band is in_band


class TestRandomCertification:
    def test_thousand_random_mixtures(self):
        rng = np.random.default_rng(20260816)
        for _ in range(250):
            n = int(rng.integers(3, 6))
            logd = rng.uniform(np.log(0.1), np.log(10.0), size=(n, n))
            D = np.exp(0.5 * (logd + logd.T))
            np.fill_diagonal(D, 0.0)
            spec = new_mixture_spec(n, D)
            c = random_interior_state(rng, n)
            full = certify_friction_spectrum(spec, c)
            red = certify_reduced_spectrum(spec, c)
            assert full.zero_multiplicity == 1 and full.in_band
            assert red.zero_multiplicity == 0 and red.in_band


class TestStructureFlags:
    def test_interior_friction_matrix(self):
        # every off-diagonal entry d_ij c_i is strictly positive on interior
        # states, so A(c) is quasi-positive and irreducible: the hypotheses
        # of the Perron-Frobenius argument for its simple zero eigenvalue
        rng = np.random.default_rng(32)
        for spec in (ternary_123_spec(), equal_d_spec(5, d=2.0)):
            n = spec.n_species
            c = np.stack([random_interior_state(rng, n) for _ in range(20)])
            A = friction_matrix(spec, c)
            assert np.all(A[:, ~np.eye(n, dtype=bool)] > 0.0)
