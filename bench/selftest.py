"""Quick self-test of the benchmark, kept apart from the package's tests.

    python3 bench/selftest.py

Runs every workload named in BENCHMARK.json once untraced and once traced,
with ``--seconds 1``, and checks that the result line has exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, that the run is
correct, and that every end-to-end (untraced) or per-layer (traced) metric
is emitted with its unit and nothing else.  Then checks that the benchmark
refuses to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.  Takes about three minutes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(spec, cwd, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check(spec, workload, trace) -> list[str]:
    group = "per_layer" if trace else "end_to_end"
    done = run(spec, ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: not correct\n{done.stderr}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    want = {m["name"]: m["unit"] for m in spec[group]}
    got = result.get("metrics", {})
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append(f"{where}: {name} missing")
        elif name not in want:
            problems.append(f"{where}: {name} is not a {group} metric")
        elif got[name].get("unit") != want[name]:
            problems.append(f"{where}: {name} unit {got[name].get('unit')!r}")
        elif not isinstance(got[name].get("value"), (int, float)):
            problems.append(f"{where}: {name} value {got[name].get('value')!r}")
    return problems


def check_bare(spec) -> list[str]:
    """Only BENCHMARK.json and the benchmark's paths: must fail, no result."""
    scratch = BENCH / "_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path, ignore=(
                shutil.ignore_patterns("_out", "__pycache__")))
        done = run(spec, bare, spec["workloads"][0]["name"], 0)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, "
                f"stdout {done.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check(spec, workload["name"], trace)
    problems += check_bare(spec)
    for p in problems:
        print(p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
