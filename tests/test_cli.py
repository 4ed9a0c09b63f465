"""Command-line front end: exit codes, artifact formats, determinism."""

import contextlib
import dataclasses
import filecmp
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msdiff.cli
import msdiff.stepper
from msdiff import (
    AuditFailure,
    NonlinearDivergence,
    SimulationAborted,
    c_to_w,
    certify_friction_spectrum,
    certify_reduced_spectrum,
    full_concentrations,
    mobility_matrix,
    regularize_initial,
)
from msdiff.cli import main, run_scenario
from msdiff.config import config_from_pairs, materialize, materialize_spec
from test_stepper import FIVE_SPECIES, fail_from_call

TS_HEADER_3 = (
    "time,entropy,relative_entropy,dissipation_raw,dissipation_sqrt,"
    "mass_1,mass_2,mass_3,min_c,picard_iterations"
)


def run_args(tmp_path, *extra):
    return [
        "run",
        "--preset",
        "heat_check",
        "--override",
        "cells=32",
        "--override",
        "t_end=0.01",
        "--output-dir",
        str(tmp_path),
        *extra,
    ]


class TestPresetsCommand:
    def test_lists_all_presets(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        names = [line.split(":")[0] for line in out]
        assert names == ["heat_check", "quaternary_reaction", "ternary_uphill"]
        assert all(": " in line for line in out)


class TestRunCommand:
    def test_clean_run_artifacts(self, tmp_path, capsys):
        assert main(run_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert f"wrote {tmp_path}/timeseries.csv" in out

        lines = (tmp_path / "timeseries.csv").read_text().splitlines()
        assert lines[0] == TS_HEADER_3
        assert len(lines) == 12  # header + initial + 10 steps
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert int(first[-1]) == 0

        audit = json.loads((tmp_path / "audit.json").read_text())
        assert audit["audit_mode"] == "enforce"
        assert len(audit["verdicts"]) == 10
        assert all(v["passed"] for v in audit["verdicts"])

        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["exit_status"] == 0
        assert summary["abort"] is None
        assert summary["steps"] == 10
        assert summary["clamp_count"] == 0
        assert summary["audits_passed"] is True
        assert summary["l2_error_vs_analytic"] < 2e-3
        assert summary["mass_identity_defect"] < 1e-12
        assert summary["snapshots"] == []

    def test_snapshot_cadence(self, tmp_path):
        assert main(run_args(tmp_path, "--override", "snapshot_every=4")) == 0
        names = sorted(p.name for p in tmp_path.glob("snapshot_*.csv"))
        assert names == [
            "snapshot_0000.csv",
            "snapshot_0004.csv",
            "snapshot_0008.csv",
            "snapshot_0010.csv",  # final state is always captured
        ]
        lines = (tmp_path / "snapshot_0000.csv").read_text().splitlines()
        assert lines[0] == "x,c_1,c_2,c_3,w_1,w_2"
        assert len(lines) == 33
        row = [float(v) for v in lines[1].split(",")]
        assert row[0] == pytest.approx(1 / 64)  # first cell center
        assert sum(row[1:4]) == pytest.approx(1.0, abs=1e-12)
        # snapshot 0 is the regularized start that run_simulation hands its
        # hooks, written with round-trip floats
        config = config_from_pairs(
            [("scenario", "heat_check"), ("cells", "32"), ("t_end", "0.01")]
        )
        spec, grid, params, c0 = materialize(config)
        c_reg = regularize_initial(spec, c0, params.eta_floor)
        table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(table[:, 1:4], full_concentrations(c_reg))
        assert np.array_equal(table[:, 4:], c_to_w(c_reg))

    def test_byte_identical_reruns(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(run_args(dir_a, "--override", "snapshot_every=5")) == 0
        assert main(run_args(dir_b, "--override", "snapshot_every=5")) == 0
        files = sorted(p.name for p in dir_a.iterdir())
        assert files == sorted(p.name for p in dir_b.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, files, shallow=False)
        assert mismatch == [] and errors == []
        assert set(match) == set(files)

    def test_override_beats_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "species=3\nD=1,1,1\ncells=64\ntau=1e-3\nt_end=0.005\ninitial=cosine:0.2\n"
        )
        code = main(
            [
                "run",
                "--config",
                str(cfg),
                "--override",
                "cells=16",
                "--output-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
        assert summary["cells"] == 16

    def test_five_species_run_ending_steps_on_the_residual_floor(self, tmp_path):
        # the residual floor counts the (h/tau) c(w) scale that cancels
        # against c_prev, so each step ends on it within two iterations
        cfg = tmp_path / "five.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in FIVE_SPECIES))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out)]) == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["audits_passed"] is True
        assert summary["steps"] == 6
        audit = json.loads((out / "audit.json").read_text())
        assert len(audit["verdicts"]) == 6
        ts = np.loadtxt(out / "timeseries.csv", delimiter=",", skiprows=1)
        assert np.all(ts[1:, -1] <= 2)
        assert all(v["passed"] for v in audit["verdicts"])

    def test_summary_uses_shortest_roundtrip_floats(self, tmp_path):
        assert main(run_args(tmp_path)) == 0
        text = (tmp_path / "timeseries.csv").read_text()
        value = text.splitlines()[1].split(",")[1]
        assert repr(float(value)) == value


def log_uniform(low, high):
    """Floats spread evenly in log10 between ``low`` and ``high``."""
    return st.floats(np.log10(low), np.log10(high)).map(lambda e: 10.0**e)


@st.composite
def homogeneous_configs(draw):
    """Key-value pairs of a five-step run from spatially constant data."""
    n1 = draw(st.integers(3, 6))
    pairs = n1 * (n1 - 1) // 2
    d = draw(st.lists(log_uniform(10**-1.5, 10**1.5), min_size=pairs, max_size=pairs))
    tau = draw(log_uniform(1e-4, 1e-1))
    initial = "uniform"
    if draw(st.booleans()):
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n1, max_size=n1))
        initial += ":" + ",".join(repr(v / sum(weights)) for v in weights[:-1])
    return [
        ("species", str(n1)),
        ("D", ",".join(map(repr, d))),
        ("eps", repr(draw(log_uniform(1e-10, 1e-4)))),
        ("length", repr(draw(log_uniform(0.1, 10.0)))),
        ("cells", str(draw(st.integers(2, 64)))),
        ("tau", repr(tau)),
        ("t_end", repr(5 * tau)),
        ("initial", initial),
    ]


class TestHomogeneousData:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(pairs=homogeneous_configs())
    def test_runs_from_constant_data_pass_every_audit(self, pairs):
        # the paper's steady state, and any constant start, must be steppable:
        # there the residual floor has to count the (h/tau) c(w) scale
        with tempfile.TemporaryDirectory() as out:
            config = config_from_pairs(pairs + [("output_dir", out)])
            assert run_scenario(config) == 0
            summary = json.loads((Path(out) / "run_summary.json").read_text())
        assert summary["steps"] == 5
        assert summary["audits_passed"] is True

    @pytest.mark.xfail(
        strict=True,
        reason="uniform data with a zero weight fails the mass audit at step 1 "
        "at 128 cells (it passes at 16); ROADMAP item 1",
    )
    def test_uniform_data_with_a_zero_weight_passes_every_audit(self, tmp_path):
        overrides = [
            "species=4", "D=7.6,2.4,1,1,19.3,1", "tau=0.01", "t_end=0.03",
            "initial=uniform:0.39,0.48,0",
        ]
        args = ["run", "--output-dir", str(tmp_path)]
        for item in overrides:
            args += ["--override", item]
        assert main(args) == 0


def fractions(draw, n1):
    """The first N of N+1 nonnegative fractions summing to one, zeros allowed."""
    weights = draw(
        st.lists(st.floats(0.0, 1.0), min_size=n1, max_size=n1).filter(
            lambda v: sum(v) > 0.0
        )
    )
    return ",".join(repr(v / sum(weights)) for v in weights[:-1])


@st.composite
def run_argvs(draw):
    """``msdiff run`` overrides of a three-step run from step or cosine data."""
    n1 = draw(st.integers(3, 6))
    pairs = n1 * (n1 - 1) // 2
    d = draw(st.lists(log_uniform(10**-1.5, 10**1.5), min_size=pairs, max_size=pairs))
    tau = draw(log_uniform(1e-4, 1e-1))
    if draw(st.booleans()):
        initial = f"step:{fractions(draw, n1)};{fractions(draw, n1)}"
    else:
        amplitude = draw(st.floats(0.0, 1.0 / n1, exclude_max=True))
        initial = f"cosine:{amplitude!r}"
    overrides = {
        "species": str(n1),
        "D": ",".join(map(repr, d)),
        "eps": repr(draw(log_uniform(1e-10, 1e-4))),
        "length": repr(draw(log_uniform(0.1, 10.0))),
        "cells": str(draw(st.integers(2, 64))),
        "tau": repr(tau),
        "t_end": repr(3 * tau),
        "initial": initial,
    }
    argv = ["run"]
    for key, value in overrides.items():
        argv += ["--override", f"{key}={value}"]
    return argv


class TestTypedOutcomes:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(argv=run_argvs())
    def test_every_drawn_run_ends_in_a_typed_exit(self, argv):
        # every config the keys accept either passes every audit or stops
        # with exit 1 or 2 and says why; an exception fails this test
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, "--output-dir", out])
            summary = json.loads((Path(out) / "run_summary.json").read_text())
        assert code in (0, 1, 2)
        assert summary["exit_status"] == code
        if code == 0:
            assert summary["audits_passed"] is True
        else:
            assert "aborted: " in err.getvalue()


class TestErrorExits:
    def test_unknown_preset(self, tmp_path, capsys):
        assert main(["run", "--preset", "nope", "--output-dir", str(tmp_path)]) == 64
        assert "configuration error" in capsys.readouterr().err

    def test_malformed_override(self, tmp_path, capsys):
        assert main(run_args(tmp_path, "--override", "cells")) == 64
        assert "override" in capsys.readouterr().err

    def test_no_mixture_given(self, capsys):
        assert main(["run"]) == 64
        assert "required key missing" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        assert main(["run", "--config", str(missing)]) == 64
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("species=3\nno equals sign here\n")
        assert main(["run", "--config", str(bad)]) == 64
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_negative_tau_in_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("species=3\nD=1,2,3\ntau=-1\nt_end=1\n")
        assert main(["run", "--config", str(bad)]) == 64
        assert "tau" in capsys.readouterr().err

    def test_zero_eps_exits_64_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(run_args(out, "--override", "eps=0")) == 64
        assert "configuration error: eps: " in capsys.readouterr().err
        assert not out.exists()

    def test_retired_snapshot_switch_exits_64_before_writing(self, tmp_path, capsys):
        # snapshot_every=0 is the one way to turn snapshots off
        out = tmp_path / "out"
        assert main(run_args(out, "--override", "emit_snapshots=false")) == 64
        err = capsys.readouterr().err
        assert "configuration error: emit_snapshots: unknown key" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override,message",
        [
            ("audit=warn", "audit: must be 'enforce' or 'off'"),
            ("emit_timeseries=false", "emit_timeseries: unknown key"),
            ("emit_audit_json=false", "emit_audit_json: unknown key"),
        ],
    )
    def test_retired_run_switches_exit_64_before_writing(
        self, tmp_path, capsys, override, message
    ):
        # a run passes every audit or stops, and always writes every file
        out = tmp_path / "out"
        assert main(run_args(out, "--override", override)) == 64
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eta", ["1e-16", "5e-15"])
    def test_tiny_eta_floor_exits_64_before_writing(self, tmp_path, capsys, eta):
        # the blended initial data would touch the simplex boundary
        out = tmp_path / "out"
        override = f"eta_floor={eta}"
        args = ["run", "--preset", "ternary_uphill", "--override", override]
        assert main([*args, "--output-dir", str(out)]) == 64
        err = capsys.readouterr().err
        assert f"configuration error: eta_floor: {eta} is too small: " in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,overrides,message",
        [
            ("run", ["length=1e-200"], "length: "),  # h**2 underflows
            ("run", ["length=1e200"], "length: "),  # h**2 overflows
            *(
                (command, overrides, "D: ")
                for command in ("run", "certify")
                for overrides in (
                    ["species=3", "D=1e-320,1,1"],  # 1/D overflows
                    ["species=3", "D=1e-308,1,1"],  # Delta overflows
                    ["D=1e200,1e200,1e200"],  # delta**2 underflows
                )
            ),
        ],
    )
    def test_data_out_of_float_range_exits_64_before_writing(
        self, tmp_path, capsys, command, overrides, message
    ):
        out = tmp_path / "out"
        args = [command, "--preset", "heat_check", "--override", "t_end=0.002"]
        for item in overrides:
            args += ["--override", item]
        assert main([*args, "--output-dir", str(out)]) == 64
        err = capsys.readouterr().err
        assert f"configuration error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["run", "certify"])
    @pytest.mark.parametrize(
        "preset,D",
        [
            ("heat_check", "1e-160,1e-160,1e-160"),  # d_ij d_ik = 1e320
            ("ternary_uphill", "1e-307,1e-2,1"),  # d_12 d_13 = 1e309
            ("ternary_uphill", "1e-300,1e-9,1"),  # d_12 d_13 = 1e309
        ],
    )
    def test_overflowing_det_a0_exits_64_before_writing(
        self, tmp_path, capsys, command, preset, D
    ):
        # three species form det A0 in closed form; at a corner of the
        # simplex it is a product d_ij d_ik, which these mixtures overflow
        out = tmp_path / "out"
        short = "t_end=0.002" if command == "run" else "samples=20"
        args = [command, "--preset", preset, "--override", short]
        args += ["--override", f"D={D}", "--output-dir", str(out)]
        assert main(args) == 64
        err = capsys.readouterr().err
        assert "configuration error: D: " in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not out.exists()

    def test_output_dir_that_is_a_file_exits_64(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert main(run_args(afile)) == 64
        err = capsys.readouterr().err
        assert "cannot read/write: " in err and str(afile) in err
        assert "Traceback" not in err
        assert afile.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    def test_config_that_is_not_utf8_exits_64(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"scenario=heat_check\n\xff\n")
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--output-dir", str(out)]) == 64
        err = capsys.readouterr().err
        assert f"cannot read/write: {cfg}: " in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_flag_exits_64(self):
        with pytest.raises(SystemExit) as info:
            main(["run", "--frobnicate"])
        assert info.value.code == 64

    def test_missing_subcommand_exits_64(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 64


class TestFailureExitPaths:
    def heat_config(self, tmp_path):
        return config_from_pairs(
            [
                ("scenario", "heat_check"),
                ("cells", "16"),
                ("t_end", "0.003"),
                ("output_dir", str(tmp_path)),
            ]
        )

    def test_solver_abort_exit_one(self, tmp_path, monkeypatch):
        config = self.heat_config(tmp_path)
        real = msdiff.cli.run_simulation

        def exploding(*args, **kwargs):
            result = real(*args, **kwargs)
            raise SimulationAborted("step 4 failed", partial=result)

        monkeypatch.setattr(msdiff.cli, "run_simulation", exploding)
        assert run_scenario(config) == 1
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["exit_status"] == 1
        assert "step 4 failed" in summary["abort"]
        assert (tmp_path / "timeseries.csv").exists()

    def test_abort_at_step_one_reports_no_step_telemetry(self, tmp_path):
        # the collector's call at step 0 makes the directory and snapshot 0;
        # flux, uphill and distance-bound telemetry start at step 1
        out = tmp_path / "out"
        args = ["run", "--preset", "ternary_uphill", "--override", "picard_max=1"]
        args += ["--override", "t_end=1e-3", "--override", "snapshot_every=1"]
        assert main([*args, "--output-dir", str(out)]) == 1
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["steps"] == 0 and summary["snapshots"] == ["snapshot_0000.csv"]
        assert summary["max_flux_residual"] == 0.0
        assert summary["uphill_max_product"] is None
        assert summary["pinsker_margin_min"] is None

    def test_audit_failure_exit_two(self, tmp_path, monkeypatch):
        config = self.heat_config(tmp_path)
        real = msdiff.cli.run_simulation

        def rejecting(*args, **kwargs):
            result = real(*args, **kwargs)
            raise AuditFailure("step 2 violated: entropy", partial=result)

        monkeypatch.setattr(msdiff.cli, "run_simulation", rejecting)
        assert run_scenario(config) == 2
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["exit_status"] == 2

    def test_thinned_abort_ends_at_its_last_state(self, tmp_path, monkeypatch):
        # step 16 fails at every step size; the thinning stored step 14
        forced = NonlinearDivergence("forced")
        fail_from_call(monkeypatch, "advance_step", 16, forced)
        args = run_args(tmp_path, "--override", "t_end=0.05")
        assert main([*args, "--override", "record_every=7"]) == 1
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        rows = (tmp_path / "timeseries.csv").read_text().splitlines()
        assert float(rows[-1].split(",")[0]) == summary["t_final"]
        assert summary["steps"] == 15 and summary["tau_retries"] == 5

    def test_failed_cholesky_ends_typed(self, tmp_path, capsys):
        # on this short domain a banded Cholesky of the first step breaks
        # down; the step is retried at a halved tau like any failed solve,
        # so the run ends with a typed outcome and writes its artifacts
        overrides = (
            "species=4",
            "D=5.323e+04,1.395e+04,0.0002558,1393,297.6,8.371",
            "cells=32",
            "tau=5.15",
            "t_end=15.5",
            "eps=0.000411",
            "length=0.00186",
            "initial=step:0.2124,0.3181,0.3224;0.0013,0.0535,0.9452",
        )
        args = ["run", "--output-dir", str(tmp_path)]
        for item in overrides:
            args += ["--override", item]
        assert main(args) in (1, 2)
        assert "aborted: " in capsys.readouterr().err
        for name in ("timeseries.csv", "audit.json", "run_summary.json"):
            assert (tmp_path / name).exists()

    def test_iteration_total_counts_the_failing_step(self, tmp_path, monkeypatch):
        config = self.heat_config(tmp_path)
        assert config.record_every == 1
        real = msdiff.stepper.audit_step
        verdicts = []

        def mass_fails_at_step_2(*args, **kwargs):
            verdict = real(*args, **kwargs)
            verdicts.append(verdict)
            if len(verdicts) == 2:
                verdict = dataclasses.replace(verdict, mass_ok=False)
            return verdict

        monkeypatch.setattr(msdiff.stepper, "audit_step", mass_fails_at_step_2)
        assert run_scenario(config) == 2
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["steps"] == 2
        assert summary["abort"] == "step 2 violated: mass"
        rows = (tmp_path / "timeseries.csv").read_text().splitlines()[1:]
        iterations = [int(row.rpartition(",")[2]) for row in rows]
        assert len(iterations) == 3 and iterations[2] > 0
        assert summary["picard_iterations_total"] == sum(iterations)


class TestCertifyCommand:
    def test_small_sample_batch(self, tmp_path, capsys):
        code = main(
            [
                "certify",
                "--preset",
                "ternary_uphill",
                "--override",
                "samples=25",
                "--seed",
                "7",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "certify.json").read_text())
        assert payload["samples"] == 25
        assert payload["seed"] == 7
        assert payload["all_passed"] is True
        assert len(payload["results"]) == 25
        sample = payload["results"][0]
        assert sample["friction_zero_multiplicity"] == 1
        assert sample["mobility_spd"] is True
        assert sample["mobility_min_eigenvalue"] > 0.0

    def test_zero_samples_empty_report(self, tmp_path):
        code = main(
            [
                "certify",
                "--preset",
                "heat_check",
                "--override",
                "samples=0",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "certify.json").read_text())
        assert payload["results"] == []
        assert payload["all_passed"] is True

    def test_zero_eps_still_certifies(self, tmp_path):
        # certify takes no step, so it accepts eps=0
        args = ["certify", "--preset", "heat_check", "--override", "eps=0",
                "--override", "samples=3", "--output-dir", str(tmp_path)]
        assert main(args) == 0
        assert json.loads((tmp_path / "certify.json").read_text())["all_passed"]

    def test_zero_counted_twice_fails_its_entry(self, tmp_path):
        # at D_12 = 1e-307 the zero tolerance 1e-9 Delta, about 4e298, also
        # takes the eigenvalue of -A near 1, which then escapes both bands
        args = ["certify", "--preset", "heat_check", "--override", "samples=20",
                "--override", "D=1e-307,1,1", "--output-dir", str(tmp_path)]
        assert main(args) == 2
        results = json.loads((tmp_path / "certify.json").read_text())["results"]
        assert {entry["friction_zero_multiplicity"] for entry in results} == {2}
        assert not any(entry["passed"] for entry in results)

    @pytest.mark.parametrize("preset", ["heat_check", "quaternary_reaction"])
    def test_certify_deterministic_for_seed(self, tmp_path, preset):
        args = lambda d: [
            "certify",
            "--preset",
            preset,
            "--override",
            "samples=10",
            "--seed",
            "3",
            "--output-dir",
            str(d),
        ]
        assert main(args(tmp_path / "a")) == 0
        assert main(args(tmp_path / "b")) == 0
        assert (tmp_path / "a" / "certify.json").read_bytes() == (
            tmp_path / "b" / "certify.json"
        ).read_bytes()

    # N = 3 and N = 6 with unequal D are where A0 batched as one
    # (S, N) @ (N, N) product rounds otherwise than the one-state product
    @pytest.mark.parametrize(
        "mixture, samples",
        [
            ([("scenario", "heat_check")], 40),
            ([("scenario", "ternary_uphill")], 40),
            ([("scenario", "quaternary_reaction")], 40),
            ([("species", "4"), ("D", "0.5,1.25,2,0.8,3.5,1.1")], 40),
            ([("species", "7"),
              ("D", ",".join(str(0.5 + 0.37 * k) for k in range(21)))], 40),
            ([("scenario", "quaternary_reaction")], 1),
        ],
        ids=["heat_check", "ternary_uphill", "quaternary_reaction",
             "species_4", "species_7", "samples_1"],
    )
    def test_entries_equal_per_sample_checked_loop(
        self, tmp_path, monkeypatch, mixture, samples
    ):
        config = config_from_pairs(
            mixture + [("samples", str(samples)), ("seed", "5"),
                       ("output_dir", str(tmp_path))]
        )
        checked = []
        real = msdiff.cli.certify_friction_spectrum

        def recording(spec, c):
            checked.append(c.tolist())
            return real(spec, c)

        monkeypatch.setattr(msdiff.cli, "certify_friction_spectrum", recording)
        assert msdiff.cli.certify(config) == 0
        results = json.loads((tmp_path / "certify.json").read_text())["results"]

        # one draw and one set of public checked calls per sample
        spec = materialize_spec(config)
        rng = np.random.default_rng(5)
        n1 = spec.n_species
        expected = []
        for i in range(samples):
            cf = rng.dirichlet(np.ones(n1))
            c = (1.0 - n1 * 1e-12) * cf[:-1] + 1e-12
            rep_f = certify_friction_spectrum(spec, c)
            rep_r = certify_reduced_spectrum(spec, c)
            B = mobility_matrix(spec, c)
            scale = max(1.0, float(np.max(np.abs(B))))
            sym_residual = float(np.max(np.abs(B - B.T))) / scale
            min_eig = float(np.linalg.eigvalsh(0.5 * (B + B.T))[0])
            spd = sym_residual <= 1e-10 and min_eig > 0.0
            expected.append(
                {
                    "sample": i,
                    "c": list(c),
                    "friction_eigenvalues": list(rep_f.eigenvalues),
                    "friction_zero_multiplicity": rep_f.zero_multiplicity,
                    "friction_in_band": rep_f.in_band,
                    "reduced_eigenvalues": list(rep_r.eigenvalues),
                    "reduced_in_band": rep_r.in_band,
                    "mobility_symmetry_residual": sym_residual,
                    "mobility_min_eigenvalue": min_eig,
                    "mobility_spd": spd,
                    "passed": rep_f.in_band and rep_f.zero_multiplicity == 1
                    and rep_r.in_band and rep_r.zero_multiplicity == 0 and spd,
                }
            )
        assert results == expected
        # the state check runs once per sample, in sample order
        assert checked == [entry["c"] for entry in results]


def run_module(*args):
    """``python -m msdiff.cli *args`` in a child process.

    The child imports the same msdiff as this process, whatever PYTHONPATH
    the suite was started with.
    """
    src = str(Path(msdiff.cli.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, inherited] if inherited else [src]),
    )
    return subprocess.run(
        [sys.executable, "-m", "msdiff.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        proc = run_module("presets")
        assert proc.returncode == 0
        assert "heat_check" in proc.stdout

    def test_rough_run_passes_bounds_audit_and_flux_hook(self, tmp_path):
        # nine step halvings leave step 2 with a third fraction of 7e-20: the
        # bounds audit reads it from w, and the flux hook accepts the state
        proc = run_module(
            "run", "--preset", "ternary_uphill",
            "--override", "cells=64",
            "--override", "picard_max=11",
            "--override", "t_end=3.5e-3",
            "--override", "snapshot_every=1",
            "--output-dir", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["audits_passed"] is True
        assert summary["audit_margins"]["bounds_min"] > 0.0
        # snapshots write the solver's fractions, so the vanishing third
        # fraction stays positive there too instead of rounding to 0.0
        assert len(summary["snapshots"]) == summary["steps"] + 1
        for name in summary["snapshots"]:
            rows = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
            assert np.all(rows[:, 1:4] > 0.0), name
