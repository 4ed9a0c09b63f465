"""Instruments installed around msdiff from outside the package.

Both instruments replace names that msdiff modules look up at run time
(``msdiff.stepper.advance_step``, ``msdiff.cli.RunCollector.__call__``, ...)
and put the originals back afterwards.  ``StepClock`` is the light one used
for the end-to-end numbers: it only timestamps the start of every accepted
step or certified sample.  ``Tracer`` records one span per call at every
module boundary for the traced run.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict

import numpy as np

# The package's modules, which are the benchmark's layers.
LAYERS = ("config", "scenarios", "mixture", "grid", "stepper", "diagnostics",
          "spectra", "cli")

# Functions of a module that its own code calls through module globals and
# that mark work the per-layer metrics need: the step, band assembly, the
# run hook and file output.
INTERNAL = {
    "stepper": ("advance_step", "_assemble_banded"),
    "cli": ("_write_json", "_write_timeseries", "RunCollector.__call__",
            "RunCollector.write_snapshot"),
}

# Entry points the benchmark itself calls through the module attribute.
ENTRY = {
    "config": ("config_from_pairs", "materialize"),
    "stepper": ("run_simulation",),
    "cli": ("run_scenario", "certify"),
}


def _resolve(owner, dotted):
    """Split ``Class.attr`` into (class, attr); plain names stay on owner."""
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Patcher:
    """Replaces attributes and puts every original back in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper(original))
        self._saved.append((owner, attr, original))

    def restore(self) -> int:
        """Restore all names; return how many are not the original object."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        return sum(owner.__dict__[attr] is not original
                   for owner, attr, original in saved)


class StepClock:
    """Timestamps the first attempt of each accepted step, or each sample.

    A step retried with a halved time step (``advance_step`` raised) keeps
    its first timestamp, so the intervals between marks are whole accepted
    steps including record, audit and hooks.
    """

    def __init__(self):
        self.marks: list[float] = []
        self._fresh = True

    def start_case(self):
        self.marks = []
        self._fresh = True

    def install(self, patcher: Patcher, msdiff) -> None:
        patcher.replace(msdiff.stepper, "advance_step", self._wrap_step)
        patcher.replace(msdiff.cli, "certify_friction_spectrum",
                        self._wrap_sample)

    def _wrap_step(self, original):
        def advance_step(*args, **kwargs):
            if self._fresh:
                self.marks.append(time.perf_counter())
                self._fresh = False
            out = original(*args, **kwargs)
            self._fresh = True
            return out
        advance_step.__wrapped__ = original
        return advance_step

    def _wrap_sample(self, original):
        def certify_friction_spectrum(*args, **kwargs):
            self.marks.append(time.perf_counter())
            return original(*args, **kwargs)
        certify_friction_spectrum.__wrapped__ = original
        return certify_friction_spectrum


def _span_targets(msdiff):
    """(owner, attr, span name) for every boundary the tracer wraps.

    Span names read ``<callee layer>.<function>@<caller layer>``; calls made
    by the benchmark itself have caller ``bench``.
    """
    targets = []
    for layer in LAYERS:
        module = getattr(msdiff, layer)
        for attr, value in sorted(vars(module).items()):
            value = getattr(value, "__wrapped__", value)
            if not isinstance(value, types.FunctionType):
                continue
            origin = value.__module__
            if origin.startswith("msdiff.") and origin != module.__name__:
                callee = origin.rpartition(".")[2]
            elif origin.startswith("scipy.") and attr == "solveh_banded":
                callee = "scipy"
            else:
                continue
            targets.append((module, attr, f"{callee}.{attr}@{layer}"))
        for dotted in INTERNAL.get(layer, ()):
            owner, attr = _resolve(module, dotted)
            caller = "stepper" if attr == "__call__" else layer
            targets.append((owner, attr, f"{layer}.{dotted}@{caller}"))
        for attr in ENTRY.get(layer, ()):
            targets.append((module, attr, f"{layer}.{attr}@bench"))
    return targets


class Tracer:
    """In-memory spans (name, start, end, parent, case) at layer boundaries.

    Counters are read from the values the calls return: iterations and
    restarts from ``StepResult``, time-step retries from
    ``SimulationResult``, band bytes from the matrix handed to the banded
    Cholesky, and Laplacian bytes from the dense operator built for the
    audit.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.case: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counters = defaultdict(float)
        self.case_id = -1
        self._stack: list[int] = []

    def install(self, patcher: Patcher, msdiff) -> None:
        observers = {
            "stepper.advance_step@stepper": self._observe_step,
            "scipy.solveh_banded@stepper": self._observe_band,
            "grid.neumann_laplacian@stepper": self._observe_laplacian,
            "grid.neumann_laplacian@diagnostics": self._observe_laplacian,
            "stepper.run_simulation@cli": self._observe_run,
            "stepper.run_simulation@bench": self._observe_run,
        }
        for owner, attr, name in _span_targets(msdiff):
            patcher.replace(owner, attr, self._wrapper(name, observers.get(name)))

    def _wrapper(self, name, observe):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        stack = self._stack

        def wrap(original):
            def traced(*args, **kwargs):
                idx = len(self.start)
                self.name_id.append(name_id)
                self.parent.append(stack[-1] if stack else -1)
                self.case.append(self.case_id)
                self.end.append(0.0)
                stack.append(idx)
                self.start.append(time.perf_counter())
                try:
                    out = original(*args, **kwargs)
                finally:
                    self.end[idx] = time.perf_counter()
                    stack.pop()
                if observe is not None:
                    observe(args, out)
                return out
            return traced
        return wrap

    def _observe_step(self, args, step):
        self.counters["steps"] += 1
        self.counters["iterations"] += step.iterations
        self.counters["restarts"] += step.restarts

    def _observe_band(self, args, x):
        self.counters["band_bytes"] += args[0].nbytes

    def _observe_laplacian(self, args, L):
        self.counters["laplacian_bytes"] = max(
            self.counters["laplacian_bytes"], L.nbytes)

    def _observe_run(self, args, result):
        self.counters["tau_retries"] += result.tau_retries

    def columns(self):
        """Spans as arrays: name id, parent index, case, start, end."""
        return (np.array(self.name_id, dtype=np.int64),
                np.array(self.parent, dtype=np.int64),
                np.array(self.case, dtype=np.int64),
                np.array(self.start), np.array(self.end))

    def layer_times(self):
        """Per span name: (calls, inclusive seconds); per layer: self seconds.

        A span's self time is its duration minus the durations of the spans
        it directly encloses.  The layer of a span is its callee layer.
        """
        name_id, parent, _, start, end = self.columns()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        calls = np.bincount(name_id, minlength=len(self.names))
        incl = np.bincount(name_id, weights=dur, minlength=len(self.names))
        self_by_name = np.bincount(name_id, weights=own,
                                   minlength=len(self.names))
        per_name = {n: (int(calls[i]), float(incl[i]))
                    for i, n in enumerate(self.names)}
        per_layer = defaultdict(float)
        for i, n in enumerate(self.names):
            per_layer[n.partition(".")[0]] += float(self_by_name[i])
        return per_name, dict(per_layer)
