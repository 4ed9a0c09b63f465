"""Configuration parsing: key=value documents, presets, and materialization."""

from dataclasses import MISSING, fields

import numpy as np
import pytest

from msdiff import (
    Grid1D,
    ParseError,
    RunConfig,
    SchemeParams,
    ValidationError,
    config_from_pairs,
    materialize,
    materialize_spec,
    scan_config_lines,
)
from msdiff.config import _KEYS, _SCHEME_KEYS

MINIMAL = "species=3\nD=1,2,3\ncells=64\ntau=1e-3\nt_end=1.0"


def parse(text):
    """A configuration document as ``msdiff run`` reads it."""
    return config_from_pairs(scan_config_lines(text))


class TestScanLines:
    def test_basic_pairs(self):
        assert scan_config_lines("a=1\nb = two ") == [("a", "1"), ("b", "two")]

    def test_comments_and_blanks_skipped(self):
        text = "# leading comment\n\n  \nspecies=3\n   # indented comment\n"
        assert scan_config_lines(text) == [("species", "3")]

    def test_value_may_contain_equals(self):
        assert scan_config_lines("x=a=b") == [("x", "a=b")]

    def test_missing_equals_reports_line(self):
        with pytest.raises(ParseError) as info:
            scan_config_lines("species=3\njust words\n")
        assert info.value.line_no == 2

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError):
            scan_config_lines("=5\n")


class TestParseConfig:
    def test_minimal_document(self):
        config = parse(MINIMAL)
        assert config.species == 3
        assert config.d_upper == (1.0, 2.0, 3.0)
        assert config.cells == 64
        assert config.tau == 1e-3
        assert config.t_end == 1.0
        # untouched keys keep their defaults
        assert config.eps == 1e-8 and config.audit == "enforce"

    def test_missing_species_rejected(self):
        with pytest.raises(ValidationError) as info:
            parse("D=1,2,3\ntau=1e-3")
        assert info.value.key == "species"

    def test_missing_d_rejected(self):
        with pytest.raises(ValidationError) as info:
            parse("species=3\ntau=1e-3")
        assert info.value.key == "D"

    def test_negative_tau_rejected(self):
        with pytest.raises(ValidationError) as info:
            parse(MINIMAL + "\ntau=-1")
        assert info.value.key == "tau"
        assert "positive" in info.value.reason

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError) as info:
            parse(MINIMAL + "\nspeed=11")
        assert info.value.key == "speed"

    def test_wrong_d_count_rejected(self):
        with pytest.raises(ValidationError) as info:
            parse("species=4\nD=1,2,3")
        assert info.value.key == "D"
        assert "6" in info.value.reason

    def test_last_value_wins(self):
        config = parse(MINIMAL + "\ncells=32\ncells=16")
        assert config.cells == 16

    @pytest.mark.parametrize(
        "line,key",
        [
            ("cells=one", "cells"),
            ("cells=1", "cells"),
            ("eps=nan", "eps"),
            ("D=1,-2,3", "D"),
            ("D=", "D"),
            ("audit=quiet", "audit"),
            # retired: a run either passes every audit or raises
            ("audit=warn", "audit"),
            # a retired key, rejected as unknown whatever its value
            ("damping_theta=0", "damping_theta"),
            ("damping_theta=2", "damping_theta"),
            ("production=fission", "production"),
            ("emit_audit_json=yes", "emit_audit_json"),
            # retired switches: run always writes both files
            ("emit_timeseries=false", "emit_timeseries"),
            ("emit_audit_json=false", "emit_audit_json"),
            ("seed=-1", "seed"),
            ("t_end=-2", "t_end"),
        ],
    )
    def test_per_key_validation(self, line, key):
        with pytest.raises(ValidationError) as info:
            parse(MINIMAL + "\n" + line)
        assert info.value.key == key

    def test_every_key_names_a_field(self):
        # parsed values go straight into RunConfig; D fills d_upper
        names = {"d_upper" if key == "D" else key for key in _KEYS}
        assert names == {f.name for f in fields(RunConfig)}

    def test_quaternary_law_needs_five_species(self):
        with pytest.raises(ValidationError) as info:
            parse("species=3\nD=1,2,3\nproduction=quaternary_reversible")
        assert info.value.key == "production"


class TestScenarioLayering:
    def test_preset_fills_everything(self):
        config = config_from_pairs([("scenario", "heat_check")])
        assert config.species == 3
        assert config.d_upper == (1.0, 1.0, 1.0)
        assert config.t_end == 0.1
        assert config.initial == "cosine:0.2"

    def test_explicit_keys_shadow_preset(self):
        config = config_from_pairs(
            [("scenario", "heat_check"), ("cells", "32"), ("t_end", "0.01")]
        )
        assert config.cells == 32
        assert config.t_end == 0.01
        assert config.species == 3  # still from the preset

    def test_order_of_pairs_does_not_matter_for_layering(self):
        # preset values always sit underneath explicit pairs
        config = config_from_pairs([("cells", "32"), ("scenario", "heat_check")])
        assert config.cells == 32

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValidationError) as info:
            config_from_pairs([("scenario", "warp_drive")])
        assert info.value.key == "scenario"
        assert "heat_check" in info.value.reason


class TestMaterialize:
    def test_spec_matches_document(self):
        spec = materialize_spec(parse(MINIMAL))
        assert spec.n_species == 3
        assert spec.D[0, 1] == 1.0 and spec.D[0, 2] == 2.0 and spec.D[1, 2] == 3.0
        assert spec.delta == pytest.approx(1.0 / 3.0)
        assert spec.production.kind == "zero"

    def test_full_materialization(self):
        spec, grid, params, c0 = materialize(parse(MINIMAL))
        assert isinstance(grid, Grid1D) and grid.cells == 64
        assert isinstance(params, SchemeParams) and params.tau == 1e-3
        assert c0.shape == (64, 2)
        np.testing.assert_allclose(c0, 1 / 3)

    def test_simulation_needs_time_keys(self):
        config = parse("species=3\nD=1,2,3")
        with pytest.raises(ValidationError) as info:
            materialize(config)
        assert info.value.key == "tau"

    def test_quaternary_preset_production_law(self):
        config = config_from_pairs([("scenario", "quaternary_reaction")])
        spec = materialize_spec(config)
        assert spec.production.kind == "quaternary_reversible"
        assert spec.n_species == 5

    @pytest.mark.parametrize(
        "key,value",
        [
            ("tau", 0.0),
            ("t_end", -0.1),
            ("eps", -1e-9),
            ("picard_tol", 0.0),
            ("picard_max", 0),
            ("eta_floor", 1.0),
        ],
    )
    def test_scheme_params_share_the_key_ranges(self, key, value):
        with pytest.raises(ValidationError) as from_config:
            parse(f"{MINIMAL}\n{key}={value}")
        with pytest.raises(ValidationError) as from_params:
            SchemeParams(**{"tau": 1e-3, "t_end": 1.0, key: value})
        assert str(from_params.value) == str(from_config.value)

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("tau", None, "tau: not a number: None"),
            ("tau", "1e-3", "tau: not a number: '1e-3'"),
            ("t_end", float("inf"), "t_end: must be finite"),
            ("eps", float("nan"), "eps: must be finite"),
            ("picard_max", 2.5, "picard_max: not an integer: 2.5"),
            ("picard_max", 200.0, "picard_max: not an integer: 200.0"),
        ],
    )
    def test_scheme_params_share_the_key_types(self, key, value, message):
        # an infinite t_end would run forever, a fractional budget is no count
        with pytest.raises(ValidationError) as info:
            SchemeParams(**{"tau": 1e-3, "t_end": 1.0, key: value})
        assert str(info.value) == message
        if message.endswith("must be finite"):
            with pytest.raises(ValidationError) as from_config:
                parse(f"{MINIMAL}\n{key}={value}")
            assert str(from_config.value) == message

    def test_scheme_defaults_have_one_source(self):
        # a config without the key runs with the library's default
        run = {f.name: f.default for f in fields(RunConfig)}
        scheme = {f.name: f.default for f in fields(SchemeParams)}
        defaulted = [key for key in _SCHEME_KEYS if scheme[key] is not MISSING]
        assert defaulted == ["eps", "picard_tol", "picard_max", "eta_floor"]
        for key in defaulted:
            assert run[key] == scheme[key], key

    def test_zero_eps_parses_but_cannot_run(self):
        assert parse(MINIMAL + "\neps=0").eps == 0.0
        with pytest.raises(ValidationError) as info:
            SchemeParams(tau=1e-3, t_end=1.0, eps=0.0)
        assert str(info.value) == "eps: must be positive to run a simulation"

    def test_config_is_frozen(self):
        config = parse(MINIMAL)
        assert isinstance(config, RunConfig)
        with pytest.raises(AttributeError):
            config.cells = 31
