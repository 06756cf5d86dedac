"""Every optional parameter of the public API is on one explicit list.

A number the paper fixes (a contraction factor, a clip level, a check's
tolerance) is a module constant, not a keyword.  This test collects the
parameters with defaults of every callable that ``nck`` or one of its
modules exports and compares them with :data:`ALLOWED`; a new option fails
here until it is added to the list on purpose.
"""

import importlib
import inspect

import nck

MODULES = ("car", "constants", "lifting", "linalg", "norms", "reports", "spaces", "tupleio")

ALLOWED = {
    # math and data inputs: absent weights mean the unweighted setting
    ("as_weights", "d"),
    ("dual_norm", "nu"),
    ("pairing_certificate", "nu"),
    ("save_tuple_file", "nu"),
    ("save_tuple_file", "metadata"),
    # sample counts and seeds, which the CLI sets
    ("gaussian_space", "seed"),
    ("build", "samples"),
    ("build", "seed"),
    ("c2_witness_gaussian", "samples"),
    ("c2_witness_gaussian", "seed"),
    ("random_search_ratio", "seed"),
    ("random_search_ratio", "samples"),
    # the report format, which the CLI sets
    ("render_report", "fmt"),
    # exceptions are unpickled from their args alone
    ("StalledIteration", "step"),
}


def exported():
    """``{name: callable}`` over the package namespace and every module's ``__all__``."""
    found = {name: getattr(nck, name) for name in vars(nck) if not name.startswith("_")}
    for module in MODULES:
        mod = importlib.import_module(f"nck.{module}")
        found.update((name, getattr(mod, name)) for name in mod.__all__)
    return {name: obj for name, obj in found.items() if callable(obj)}


def optional_parameters(obj):
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        # exception classes that keep BaseException's constructor
        return []
    return [p.name for p in sig.parameters.values() if p.default is not inspect.Parameter.empty]


def test_every_optional_parameter_is_allowed():
    found = {(name, param) for name, obj in exported().items() for param in optional_parameters(obj)}
    assert found - ALLOWED == set(), "new optional parameters"
    assert ALLOWED - found == set(), "allowed parameters that no longer exist"


def test_the_deleted_configuration_is_gone():
    for name in ("LiftConfig", "preset_config"):
        assert not hasattr(nck, name)
        assert not hasattr(nck.lifting, name)
    assert "tuple_to_payload" not in nck.tupleio.__all__
    # second paths to one result: the lift's report, the search's own check,
    # CarSystem.generator and numpy's operator norm remain; the CSR views and
    # the sparse input are gone, and the n-point cross-check lives in the
    # tests
    for module, name in [("lifting", "quotient_norm_bracket"), ("car", "jordan_wigner"),
                         ("car", "_jordan_wigner_cached"), ("linalg", "op_norm"),
                         ("car", "npoint_function"), ("car", "generator_monomial"),
                         ("car", "_csr"), ("car", "_is_sparse")]:
        assert not hasattr(nck, name)
        assert not hasattr(getattr(nck, module), name)
    assert not hasattr(nck.ConstantReport, "passed")
    for name in ("generators", "functional_kernels"):
        assert not hasattr(nck.CarSystem, name)
