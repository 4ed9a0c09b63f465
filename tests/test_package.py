"""The package namespace: what ``msdiff.__all__`` exports."""

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
    # checked twins of the record's private kernels, and their exceptions
    for name in (
        "BadReference",
        "DissipationContractViolation",
        "dissipation",
        "entropy_functional",
        "entropy_hessian_inverse",
        "relative_entropy",
    ):
        assert not hasattr(msdiff, name), name
