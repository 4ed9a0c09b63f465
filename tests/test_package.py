"""The package namespace: what ``msdiff.__all__`` exports and what
importing it loads."""

import subprocess
import sys
from pathlib import Path

import msdiff


def test_all_names_resolve_once():
    assert len(msdiff.__all__) == len(set(msdiff.__all__))
    for name in msdiff.__all__:
        assert hasattr(msdiff, name), name


def test_star_import():
    namespace = {}
    exec("from msdiff import *", namespace)
    assert set(msdiff.__all__) <= set(namespace)


def test_retired_names_are_gone():
    # checked twins of the record's private kernels, and their exceptions;
    # an empty base of AuditFailure; the banded-solve failure, now a
    # NonlinearDivergence that the time loop retries; the guard of a carried
    # evaluation, which the workspace now carries alone; the per-argument
    # rejections, now one ValidationError naming the argument, and the
    # interior-state error, now an InadmissibleState
    for name in (
        "AuditError",
        "BadReference",
        "DimensionMismatch",
        "DissipationContractViolation",
        "InadmissibleInitialData",
        "InconsistentFields",
        "InvalidProductionLaw",
        "LinearSolveFailure",
        "NonPositiveOffDiagonal",
        "NonSymmetricD",
        "NotStrictlyAdmissible",
        "WrongSpeciesCount",
        "dissipation",
        "entropy_functional",
        "entropy_hessian_inverse",
        "relative_entropy",
    ):
        assert not hasattr(msdiff, name), name


def test_import_loads_no_special_module():
    # scipy.special adds about 50 ms to every import; the entropy kernels
    # take x log x from numpy instead
    src = str(Path(msdiff.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import msdiff; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
