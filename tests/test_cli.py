"""Command-line front end: exit codes, artifact formats, determinism."""

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msdiff.cli
from msdiff import AuditFailure, SimulationAborted
from msdiff.cli import main, run_scenario
from msdiff.config import config_from_pairs
from test_stepper import failing_verdict

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

    def test_five_species_run_ending_steps_on_the_increment(self, tmp_path):
        # every step of this run reaches an increment below 1e-14 while its
        # residual stays about twice the floor: only the increment exit ends it
        cfg = tmp_path / "five.cfg"
        cfg.write_text(
            "species=5\n"
            "D=22.0383,0.0397462,0.0541697,0.131241,0.229354,"
            "11.836,10.5563,20.113,0.46683,0.0352782\n"
            "eps=5.69e-07\nlength=6.286\ncells=8\ntau=0.000164\n"
            "t_end=0.000820067\ninitial=cosine:0.000353\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out)]) == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["audits_passed"] is True
        assert summary["steps"] == 6
        audit = json.loads((out / "audit.json").read_text())
        assert len(audit["verdicts"]) == 6
        assert all(v["passed"] for v in audit["verdicts"])

    def test_summary_uses_shortest_roundtrip_floats(self, tmp_path):
        assert main(run_args(tmp_path)) == 0
        text = (tmp_path / "timeseries.csv").read_text()
        value = text.splitlines()[1].split(",")[1]
        assert repr(float(value)) == value


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

    @pytest.mark.parametrize("eta", ["1e-16", "5e-15"])
    def test_tiny_eta_floor_exits_64_before_writing(self, tmp_path, capsys, eta):
        # the blended initial data would touch the simplex boundary
        out = tmp_path / "out"
        override = f"eta_floor={eta}"
        args = ["run", "--preset", "ternary_uphill", "--override", override]
        assert main([*args, "--output-dir", str(out)]) == 64
        err = capsys.readouterr().err
        assert f"configuration error: eta_floor {eta}: " in err
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

    def test_warn_mode_failures_exit_two(self, tmp_path, monkeypatch):
        config = self.heat_config(tmp_path)
        real = msdiff.cli.run_simulation

        def tainted(*args, **kwargs):
            result = real(*args, **kwargs)
            result.verdicts.append(failing_verdict(result.t_final))
            return result

        monkeypatch.setattr(msdiff.cli, "run_simulation", tainted)
        assert run_scenario(config) == 2
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["audits_passed"] is False


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

    def test_certify_deterministic_for_seed(self, tmp_path):
        args = lambda d: [
            "certify",
            "--preset",
            "heat_check",
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
            "--output-dir", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["audits_passed"] is True
        assert summary["audit_margins"]["bounds_min"] > 0.0
