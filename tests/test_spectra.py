"""Spectral certificates for the friction operators.

The eigenvalue band [delta, Delta) is a proved property of the continuous
operators; these tests pin the reporting logic on hand-solvable matrices and
then hammer the certificates with random mixtures.
"""

import numpy as np
import pytest

from msdiff import (
    DimensionMismatch,
    NotSymmetric,
    SpectrumReport,
    certify_friction_spectrum,
    certify_reduced_spectrum,
    friction_matrix,
    new_mixture_spec,
    symmetric_spectrum,
)
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

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionMismatch):
            symmetric_spectrum(np.ones((2, 3)))

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
