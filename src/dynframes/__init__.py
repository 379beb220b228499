"""Frame analysis for continuous-power orbits of normal operators.

The package studies families {A^t g : g in G, t in [0, L]} built from a
normal operator A on C^d: whether they span, whether they frame the space,
how the window length matters, how to replace the continuum of times by
finitely many samples, and how to recover a state from those samples.
"""

from .errors import (
    DimensionMismatch,
    DiscreteNotFrame,
    DomainError,
    DynFramesError,
    NoConvergence,
    NonHermitian,
    NotAFrame,
    NotInvertible,
)
from .spectral import (
    EigenGroup,
    SpectralOperator,
    VectorSet,
    apply_power_batch,
    group_eigenspaces,
    load_operator,
    load_vectors,
    pair_integral,
    save_operator,
    save_vectors,
)
from .gram import (
    Gram,
    TimeGrid,
    bessel_sum,
    discrete_gram,
    quadrature_gram,
    semicont_gram,
)
from .analysis import (
    FRAME,
    INCOMPLETE,
    CarlesonReport,
    CompletenessCertificate,
    FrameReport,
    bessel_check_fd,
    bessel_upper_constant,
    brute_force_completeness,
    carleson_check,
    completeness_check,
    frame_bounds,
    multiplier_bounds,
)
from .discretize import (
    DiscretizationResult,
    WindowScanResult,
    find_discretization,
    verify_discrete_implies_semicont,
    window_scan,
)
from .reconstruct import (
    ReconstructionResult,
    SampleRecord,
    Samples,
    heat_cycle_operator,
    reconstruct,
    sample,
)
from .catalog import repro_catalog, run_entry

__version__ = "0.1.0"

__all__ = [
    "DynFramesError",
    "DomainError",
    "DimensionMismatch",
    "NonHermitian",
    "NotAFrame",
    "NotInvertible",
    "DiscreteNotFrame",
    "NoConvergence",
    "SpectralOperator",
    "VectorSet",
    "TimeGrid",
    "EigenGroup",
    "apply_power_batch",
    "pair_integral",
    "group_eigenspaces",
    "load_operator",
    "save_operator",
    "load_vectors",
    "save_vectors",
    "Gram",
    "semicont_gram",
    "discrete_gram",
    "bessel_sum",
    "quadrature_gram",
    "FRAME",
    "INCOMPLETE",
    "FrameReport",
    "CompletenessCertificate",
    "CarlesonReport",
    "frame_bounds",
    "completeness_check",
    "brute_force_completeness",
    "bessel_check_fd",
    "bessel_upper_constant",
    "multiplier_bounds",
    "carleson_check",
    "DiscretizationResult",
    "WindowScanResult",
    "find_discretization",
    "verify_discrete_implies_semicont",
    "window_scan",
    "SampleRecord",
    "Samples",
    "ReconstructionResult",
    "sample",
    "reconstruct",
    "heat_cycle_operator",
    "repro_catalog",
    "run_entry",
    "__version__",
]
