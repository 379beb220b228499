"""Every name that a module of the package lists in ``__all__`` exists, and the
package exports exactly those lists.

The benchmark's tracer looks up each ``__all__`` entry by name, so one stale
entry breaks every traced run.
"""

import importlib
import pkgutil
import sys

import pytest

import dynframes

MODULES = [
    module
    for module in [dynframes] + [
        importlib.import_module(f"dynframes.{info.name}")
        for info in pkgutil.iter_modules(dynframes.__path__)
    ]
    if hasattr(module, "__all__")
]
# the command line is the one module the package does not import
REEXPORTED = [m for m in MODULES if m.__name__ not in ("dynframes", "dynframes.cli")]

# the package's names before it re-exported each module's list
EXPORTED_BEFORE = [
    "DynFramesError", "DomainError", "DimensionMismatch", "NonHermitian", "NotAFrame",
    "NotInvertible", "DiscreteNotFrame", "NoConvergence",
    "SpectralOperator", "VectorSet", "TimeGrid", "apply_power_batch", "pair_integral",
    "group_eigenspaces", "load_operator", "save_operator", "load_vectors", "save_vectors",
    "Gram", "semicont_gram", "discrete_gram", "bessel_sum", "quadrature_gram",
    "FRAME", "INCOMPLETE", "FrameReport", "CompletenessCertificate", "CarlesonReport",
    "frame_bounds", "completeness_check", "brute_force_completeness", "bessel_check_fd",
    "bessel_upper_constant", "multiplier_bounds", "carleson_check",
    "DiscretizationResult", "WindowScanResult", "find_discretization",
    "verify_discrete_implies_semicont", "window_scan",
    "SampleRecord", "Samples", "ReconstructionResult", "sample", "reconstruct",
    "heat_cycle_operator", "repro_catalog", "run_entry", "__version__",
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_all_entry_exists(module):
    names = module.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(module, name)] == []


def test_the_package_exports_each_module_list_as_its_objects():
    assert {m.__name__ for m in REEXPORTED} == {
        f"dynframes.{name}" for name in
        ("errors", "spectral", "gram", "analysis", "discretize", "reconstruct", "catalog")}
    assert sorted(dynframes.__all__) == sorted(
        ["__version__"] + [name for m in REEXPORTED for name in m.__all__])
    for module in REEXPORTED:
        for name in module.__all__:
            assert getattr(dynframes, name) is getattr(module, name), (module.__name__, name)
    # the star import rebinds the submodule's name to the function
    assert dynframes.reconstruct is sys.modules["dynframes.reconstruct"].reconstruct


def test_every_name_exported_before_still_is():
    assert len(EXPORTED_BEFORE) == 49
    assert [name for name in EXPORTED_BEFORE if name not in dynframes.__all__] == []
