"""msdiff benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload presets_128 --seed 1 --seconds 25 --trace 0

Run from the repository root; msdiff is imported from ``src/`` of the same
checkout.  ``--trace 0`` measures the end-to-end metrics with only a step
clock installed.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead.  Both modes check
every case's physics fields against ``reference.json``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
``--record-reference`` rewrites the reference entries of one workload.
Workloads, metrics and baseline numbers are described in ``README.md``.
"""

import os

# BLAS threads are pinned in the benchmark's own environment, before numpy
# is first imported here or in a child process.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# Without huge pages the resident size of a large array depends only on the
# pages the program touches, so peak_rss_mb repeats from run to run.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("presets_128", "cell_sweep", "heat_ladder", "certify_batch")

# Every run makes at least this many timed passes, whatever --seconds says,
# so every step has a median of repeats.
MIN_PASSES = 3
# msdiff is imported this many times in fresh processes for setup_s.
IMPORT_REPEATS = 3

def time_imports() -> list[float]:
    """Seconds from starting a fresh interpreter to ``import msdiff`` done."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import time, msdiff; print(repr(time.time()))"
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.time()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": int(BLAS_THREADS),
            "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"]}


def compare(fields: dict, expected: dict, tolerances: dict) -> list[str]:
    """Mismatches of the physics fields against their reference values."""
    import numpy as np

    bad = []
    for key, want in expected.items():
        got = fields.get(key)
        tol = tolerances.get(key)
        if (tol is None or want is None or got is None
                or np.shape(got) != np.shape(want)):
            ok = got == want
        else:
            a, b = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
            # one-sided: only an increase counts, as for a defect
            diff = a - b if tol.get("one_sided") else np.abs(a - b)
            limit = tol.get("abs", 0.0) + tol.get("rel", 0.0) * np.abs(b)
            ok = bool(np.all(diff <= limit))
        if not ok:
            bad.append(f"{key}: got {got!r}, reference {want!r}")
    return bad


@dataclass
class CaseTiming:
    wall: float
    setup: float
    steps: list
    bytes_written: int


@dataclass
class Pass:
    cases: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.cases.values())


class Runner:
    """Runs cases, checks their outputs and keeps the counts."""

    def __init__(self, workload, cases, seed, reference, out):
        import msdiff
        from probes import Patcher, StepClock

        self.msdiff = msdiff
        self.workload = workload
        self.cases = cases
        self.expected = reference["cases"]
        self.tolerances = reference["tolerances"]
        self.out = out
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.case_ok = {case.name: True for case in cases}
        self.digests: dict[str, str] = {}
        self.tracer = None
        self.clock = StepClock()
        self.patcher = Patcher()
        self.clock.install(self.patcher, msdiff)

    def run_case(self, case) -> CaseTiming | None:
        """Run and check one case; None if it raised or failed its check."""
        out = self.out / case.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        # start every case from a collected heap, so the memory and time of
        # a case do not depend on when cycles of the one before are freed
        gc.collect()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.case_id = self.attempted
        self.clock.start_case()
        t0 = time.perf_counter()
        try:
            handle = case.execute(out)
            t1 = time.perf_counter()
            outcome = case.inspect(out, handle)
        except Exception:
            traceback.print_exc()
            return self._fail(case, ["raised"])
        marks = self.clock.marks
        key = f"{self.workload}/{case.name}"
        problems = []
        if not case.probe:
            if key not in self.expected:
                problems.append("no reference entry")
            else:
                problems += compare(outcome.fields, self.expected[key],
                                    self.tolerances)
        first = self.digests.setdefault(case.name, outcome.digest)
        if first != outcome.digest:
            problems.append("outputs differ from this case's first run")
        if problems:
            return self._fail(case, problems)
        if outcome.known_defect:
            self.case_ok[case.name] = False
        size = sum(p.stat().st_size for p in out.iterdir())
        steps = [b - a for a, b in zip(marks, marks[1:])]
        setup = (marks[0] if marks else t1) - t0
        return CaseTiming(t1 - t0, setup, steps, size)

    def _fail(self, case, problems):
        self.failed += 1
        self.case_ok[case.name] = False
        for p in problems:
            print(f"FAILED {self.workload}/{case.name}: {p}",
                  file=sys.stderr)
        return None

    def run_pass(self) -> Pass:
        order = [c for c in self.cases if not c.probe]
        self.rng.shuffle(order)
        result = Pass()
        for case in order:
            timing = self.run_case(case)
            if timing is not None:
                result.cases[case.name] = timing
        return result

    def run_probes(self):
        for case in self.cases:
            if case.probe:
                self.run_case(case)

    def traced_pass(self, tracer) -> Pass:
        """One pass with the tracer installed; every name is put back after."""
        from probes import Patcher

        patcher = Patcher()
        tracer.install(patcher, self.msdiff)
        self.tracer = tracer
        try:
            return self.run_pass()
        finally:
            self.tracer = None
            unrestored = patcher.restore()
            if unrestored:
                print(f"{unrestored} wrapped names not restored",
                      file=sys.stderr)
                self.failed += 1

    def close(self) -> int:
        return self.patcher.restore()


def end_to_end(runner, passes, import_times) -> dict:
    """End-to-end metrics over all timed passes of a run.

    Every pass repeats the same cases and every case the same accepted steps
    (certified samples), so each step's time is the median of its repeats
    across passes; the step percentiles are taken over those per-step
    medians.  The tail is the slowest step with at least ten steps beyond
    it, a percentile fixed by the step count of one pass.
    """
    import numpy as np

    steps = []
    for name in dict.fromkeys(n for p in passes for n in p.cases):
        repeats = [p.cases[name].steps for p in passes if name in p.cases]
        n = min(len(r) for r in repeats)
        if n:
            steps += np.median([r[:n] for r in repeats], axis=0).tolist()
    # a failed case can leave too few steps; the run is then not correct
    steps = 1000.0 * np.sort(steps + [0.0] * (11 - len(steps)))
    print(f"# {len(passes)} passes of {steps.size} steps; step_ms_tail is "
          f"p{100.0 * (1.0 - 10.0 / steps.size):.2f}; "
          f"import {[round(t, 4) for t in import_times]} s")
    return {
        "wall_s": statistics.fmean(p.wall for p in passes),
        "setup_s": statistics.median(import_times) + statistics.median(
            sum(c.setup for c in p.cases.values()) for p in passes),
        "step_ms_p50": float(np.percentile(steps, 50)),
        "step_ms_tail": float(steps[-11]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passed_frac": sum(runner.case_ok.values()) / len(runner.case_ok),
    }


def per_layer(tracer, traced, untraced) -> dict:
    """The per-layer metrics of README.md from the spans of traced passes."""
    from probes import LAYERS

    per_name, self_s = tracer.layer_times()
    c = tracer.counters

    def calls(*prefixes):
        return sum(n for name, (n, _) in per_name.items()
                   if name.startswith(prefixes))

    def ms(*prefixes):
        return 1000.0 * sum(s for name, (_, s) in per_name.items()
                            if name.startswith(prefixes))

    # work unit: an accepted step, or a certified sample on certify_batch
    units = c["steps"] or calls("spectra.certify_friction_spectrum@")
    n_pass = len(traced)

    def per_unit(v):
        return v / units if units else 0.0

    step_intervals = [s for p in traced for c in p.cases.values()
                      for s in c.steps]
    mobility, w_to_c = "mixture.mobility_matrix@", "mixture.w_to_c@"
    wall_traced = statistics.fmean(p.wall for p in traced)
    wall_untraced = statistics.fmean(p.wall for p in untraced)
    metrics = {
        "stepper.step_ms": (1000.0 * statistics.fmean(step_intervals)
                            if c["steps"] else 0.0),
        "stepper.cholesky_ms": per_unit(ms("scipy.solveh_banded@")),
        "stepper.iterations_per_step": per_unit(c["iterations"]),
        "stepper.solves_per_step": per_unit(calls("scipy.solveh_banded@")),
        "stepper.assemblies_per_iteration": (
            calls("stepper._assemble_banded@") / c["iterations"]
            if c["iterations"] else 0.0),
        "stepper.restarts": c["restarts"] / n_pass,
        "stepper.tau_retries": c["tau_retries"] / n_pass,
        "stepper.band_bytes": per_unit(c["band_bytes"]),
        "mixture.mobility_ms": per_unit(ms(mobility)),
        "mixture.mobility_calls_per_step": per_unit(calls(mobility)),
        "mixture.w_to_c_ms": per_unit(ms(w_to_c)),
        "mixture.w_to_c_calls_per_step": per_unit(calls(w_to_c)),
        "mixture.aux_ms": per_unit(ms("mixture.") - ms(mobility, w_to_c)),
        "diagnostics.record_ms": per_unit(ms(
            "diagnostics.dissipation@stepper",
            "diagnostics.entropy_functional@stepper",
            "diagnostics.relative_entropy@stepper")),
        "diagnostics.mobility_rebuilds_per_step": per_unit(
            calls("mixture.mobility_matrix@diagnostics")),
        "diagnostics.audit_ms": per_unit(ms("diagnostics.audit_step@")),
        "diagnostics.flux_ms": per_unit(ms("diagnostics.reconstruct_fluxes@")),
        "grid.laplacian_ms": ms("grid.neumann_laplacian@",
                                "grid.laplacian_squared_lower_bands@") / n_pass,
        "grid.laplacian_bytes": c["laplacian_bytes"],
        "cli.hook_ms": per_unit(ms("cli.RunCollector.__call__@")),
        "cli.io_ms": ms("cli._write_json@", "cli._write_timeseries@",
                        "cli.RunCollector.write_snapshot@") / n_pass,
        "cli.bytes_written": sum(c.bytes_written for p in traced
                                 for c in p.cases.values()) / n_pass,
        "spectra.friction_ms": per_unit(ms("spectra.certify_friction_spectrum@")),
        "spectra.reduced_ms": per_unit(ms("spectra.certify_reduced_spectrum@")),
        "config.materialize_ms": ms("config.materialize@",
                                    "config.materialize_spec@") / n_pass,
        "trace.overhead_pct": 100.0 * (wall_traced - wall_untraced) / wall_untraced,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = per_unit(1000.0 * self_s.get(layer, 0.0))
    return metrics


def write_spans(tracer, path: Path, header: dict) -> None:
    name_id, parent, case, start, end = tracer.columns()
    t0 = float(start.min()) if start.size else 0.0
    payload = dict(header, span_names=tracer.names, spans={
        "name": name_id.tolist(), "parent": parent.tolist(),
        "case": case.tolist(),
        "start_ns": ((start - t0) * 1e9).astype("int64").tolist(),
        "end_ns": ((end - t0) * 1e9).astype("int64").tolist(),
    })
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def record_reference(workload_name: str) -> int:
    """Run each timed case once and store its physics fields as reference."""
    import workloads

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    out = OUT / f"reference-{os.getpid()}"
    try:
        for case in workloads.build(workload_name, 0):
            if case.probe:
                continue
            path = out / case.name
            path.mkdir(parents=True)
            fields = case.inspect(path, case.execute(path)).fields
            reference["cases"][f"{workload_name}/{case.name}"] = fields
            print(f"{workload_name}/{case.name}: {fields}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "msdiff" / "__init__.py").is_file():
        print(f"msdiff sources not found in {SRC}", file=sys.stderr)
        return 2
    import_times = time_imports()
    sys.path.insert(0, str(SRC))
    import msdiff

    if Path(msdiff.__file__).resolve().parent != SRC / "msdiff":
        print(f"msdiff imported from {msdiff.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(args.workload)

    import workloads
    from probes import Tracer

    # BENCHMARK.json names every metric and its unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment()
    header = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env}
    print("# " + json.dumps(header, sort_keys=True))
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    out = OUT / f"{args.workload}-{os.getpid()}"
    runner = Runner(args.workload, workloads.build(args.workload, args.seed),
                    args.seed, reference, out)
    try:
        runner.run_probes()
        start = time.perf_counter()
        if args.trace == 0:
            passes = []
            while True:
                passes.append(runner.run_pass())
                left = args.seconds - (time.perf_counter() - start)
                if (len(passes) >= MIN_PASSES
                        and left <= 0.5 * statistics.median(p.wall for p in passes)):
                    break
            metrics = end_to_end(runner, passes, import_times)
        else:
            tracer = Tracer()
            untraced, traced = [], []
            while True:
                untraced.append(runner.run_pass())
                traced.append(runner.traced_pass(tracer))
                left = args.seconds - (time.perf_counter() - start)
                if left <= 0.5 * (untraced[-1].wall + traced[-1].wall):
                    break
            metrics = per_layer(tracer, traced, untraced)
            write_spans(tracer, OUT / f"trace_{args.workload}.json", header)
        group = "per_layer" if args.trace else "end_to_end"
    finally:
        unrestored = runner.close()
        shutil.rmtree(out, ignore_errors=True)
    if unrestored:
        print(f"{unrestored} clock names not restored", file=sys.stderr)
        runner.failed += 1
    units = {m["name"]: m["unit"] for m in spec[group]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {group}: "
                           f"{sorted(set(units) ^ set(metrics))}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
