"""Initial-profile builders and the bundled presets."""

import numpy as np
import pytest

from msdiff import (
    PRESETS,
    Grid1D,
    ValidationError,
    build_initial,
    cosine_profile,
    heat_analytic,
    step_profile,
    uniform_profile,
)


@pytest.fixture
def grid():
    return Grid1D(1.0, 16)


class TestProfiles:
    def test_uniform(self, grid):
        c = uniform_profile(grid, np.array([0.2, 0.5]))
        assert c.shape == (16, 2)
        assert np.all(c == [0.2, 0.5])

    def test_cosine_preserves_cell_sums(self, grid):
        c = cosine_profile(grid, 2, 0.2)
        np.testing.assert_allclose(c.sum(axis=1), 2 / 3, atol=1e-15)
        # antisymmetric about the midpoint, peak amplitude near the wall
        assert c[0, 0] > c[-1, 0]
        assert abs(c[0, 0] - (1 / 3 + 0.2 * np.cos(np.pi * grid.centers[0]))) < 1e-15

    def test_cosine_amplitude_range(self, grid):
        with pytest.raises(ValidationError):
            cosine_profile(grid, 2, 1 / 3)
        with pytest.raises(ValidationError):
            cosine_profile(grid, 2, -0.1)

    def test_step_splits_at_midpoint(self, grid):
        c = step_profile(grid, np.array([0.0, 0.5]), np.array([0.5, 0.5]))
        assert np.all(c[:8] == [0.0, 0.5])
        assert np.all(c[8:] == [0.5, 0.5])


class TestBuildInitial:
    def test_uniform_default_is_equal_mixture(self, grid):
        c = build_initial(grid, 2, "uniform")
        np.testing.assert_allclose(c, 1 / 3, atol=1e-15)

    def test_uniform_with_values(self, grid):
        c = build_initial(grid, 3, "uniform:0.3,0.15,0.1")
        assert np.all(c == [0.3, 0.15, 0.1])

    def test_cosine_dispatch(self, grid):
        np.testing.assert_allclose(
            build_initial(grid, 2, "cosine:0.1"), cosine_profile(grid, 2, 0.1)
        )

    def test_step_dispatch(self, grid):
        c = build_initial(grid, 2, "step:0,0.5;0.5,0.5")
        assert np.all(c[0] == [0.0, 0.5]) and np.all(c[-1] == [0.5, 0.5])

    @pytest.mark.parametrize(
        "text",
        [
            "swirl:1",  # unknown tag
            "cosine",  # missing amplitude
            "cosine:lots",  # not a number
            "step:0,0.5",  # only one half
            "uniform:0.5",  # wrong fraction count for 2 reduced species
            "uniform:0.7,0.7",  # sums past one
            "uniform:-0.1,0.5",  # negative
            "uniform:a,b",  # not numbers
        ],
    )
    def test_malformed_profiles_rejected(self, grid, text):
        with pytest.raises(ValidationError) as info:
            build_initial(grid, 2, text)
        assert info.value.key == "initial"


class TestHeatAnalytic:
    def test_initial_time_matches_cosine_profile(self, grid):
        np.testing.assert_allclose(
            heat_analytic(grid, 2, 0.2, 1.0, 0.0),
            cosine_profile(grid, 2, 0.2),
            atol=1e-15,
        )

    def test_mode_decays_at_fourier_rate(self, grid):
        t = 0.07
        c = heat_analytic(grid, 2, 0.2, 2.0, t)
        drop = np.exp(-2.0 * np.pi**2 * t)
        expected = 1 / 3 + 0.2 * drop * np.cos(np.pi * grid.centers)
        np.testing.assert_allclose(c[:, 0], expected, atol=1e-14)

    def test_long_time_limit_uniform(self, grid):
        c = heat_analytic(grid, 2, 0.2, 1.0, 50.0)
        np.testing.assert_allclose(c, 1 / 3, atol=1e-12)


class TestPresets:
    def test_catalog_names(self):
        assert set(PRESETS) == {"heat_check", "ternary_uphill", "quaternary_reaction"}

    def test_presets_carry_complete_run_settings(self):
        for preset in PRESETS.values():
            for key in ("species", "D", "tau", "t_end", "cells", "initial"):
                assert key in preset.values, (preset.name, key)
            assert preset.description

    def test_quaternary_preset_uses_reaction_law(self):
        values = PRESETS["quaternary_reaction"].values
        assert values["species"] == "5"
        assert values["production"] == "quaternary_reversible"
