"""Frame-theoretic analysis of orbit systems: bounds, completeness, Carleson.

Frame bounds are the extreme eigenvalues of a Gram in eigen-coordinates, its
``hat``, computed by LAPACK through ``numpy.linalg.eigvalsh``. The tests check
them against a cyclic Jacobi solver and a 40-digit mpmath eigensolve.

The spanning test ranks the generators' eigen-coordinates group by group,
on the eigenvalue groups its operator lays out once, in the dtype that
``to_eigenbasis`` gives them: real coordinates go to LAPACK as real arrays.
A block with one row or column is ranked by whether it is nonzero, with no
SVD.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError
from .gram import Gram, _check_hermitian
from .spectral import (
    SpectralOperator,
    VectorSet,
    _not_bool,
    _window_integral,
    _window_length,
    apply_power_batch,
    pair_integral,
    rank_tolerance_factor,
)

__all__ = [
    "FRAME",
    "INCOMPLETE",
    "FrameReport",
    "GroupRank",
    "CompletenessCertificate",
    "CarlesonReport",
    "frame_bounds",
    "completeness_check",
    "brute_force_completeness",
    "bessel_check_fd",
    "bessel_upper_constant",
    "multiplier_bounds",
    "carleson_check",
]

FRAME = "frame"
INCOMPLETE = "incomplete"


@dataclass(frozen=True)
class FrameReport:
    """Extreme eigenvalues of a Gram matrix plus the resulting verdict."""

    lower: float
    upper: float
    classification: str
    dimension: int
    method: str
    condition_number: float

    def to_dict(self) -> dict:
        return asdict(self)


class GroupRank(NamedTuple):
    value: complex
    indices: tuple
    required: int
    achieved: int


@dataclass(frozen=True)
class CompletenessCertificate:
    groups: tuple
    complete: bool

    def to_dict(self) -> dict:
        return {
            "complete": self.complete,
            "groups": [
                {
                    "eigenvalue": [g.value.real, g.value.imag],
                    "indices": list(g.indices),
                    "required_rank": g.required,
                    "achieved_rank": g.achieved,
                }
                for g in self.groups
            ],
        }


@dataclass(frozen=True)
class CarlesonReport:
    inf_product: float
    per_index_products: tuple
    conditions: dict
    c_v: float
    C_v: float
    verdict: str
    tail_increasing: bool


def frame_bounds(S) -> FrameReport:
    """Extreme eigenvalues of a Gram (its ``hat``) and the frame classification.

    The system is a frame exactly when the lower bound clears the relative
    rank tolerance (1e-9 times the upper bound by default); otherwise the
    family fails to span and the report says ``incomplete``. An eigenvalue
    below -1e-9 times the largest modulus raises ``ValueError``; like the
    Hermitian check on a plain array, that test is relative to the matrix's
    own scale, so a rescaled Gram keeps its verdict; real input stays real.
    """
    if isinstance(S, Gram):
        M, src = S.hat, S.method
    else:
        M, src = _check_hermitian(S, "frame_bounds input"), "matrix"
    return _frame_report(np.linalg.eigvalsh(M), src)


def _frame_report(w: np.ndarray, src: str) -> FrameReport:
    """``frame_bounds``' report on a Gram from its ascending eigenvalues ``w``.

    A stacked ``eigvalsh`` gives one row of ``w`` per Gram, each from the
    same LAPACK call that one Gram alone would get.
    """
    if not np.isfinite(w).all():
        raise DomainError("gram eigenvalues are non-finite (its norm overflows)")
    lower = float(w[0])
    upper = float(w[-1])
    if lower < -1e-9 * max(abs(lower), abs(upper)):
        raise ValueError(
            f"gram matrix has significantly negative eigenvalue {lower:.3e}"
        )
    lower = max(lower, 0.0)
    tau_r = rank_tolerance_factor() * upper
    if lower > tau_r:
        classification = FRAME
        cond = upper / lower
    else:
        classification = INCOMPLETE
        cond = math.inf
    return FrameReport(
        lower=lower,
        upper=upper,
        classification=classification,
        dimension=w.shape[0],
        method=f"eigvalsh/{src}",
        condition_number=cond,
    )


def _svd_rank(B: np.ndarray) -> np.ndarray:
    """Rank of each matrix in the stack B.

    The count of its singular values above rank_tolerance_factor() times its
    largest, 0 for an all-zero matrix. A matrix with one row or column has
    rank 1 exactly when an entry is nonzero and the factor is below 1, and
    is ranked that way, with no SVD. Its one singular value s, the norm,
    gives the same count, except where it is not a number to compare: s
    overflows to inf (inf > factor * inf fails), or factor * s rounds back
    up to s, which takes a factor within rounding of 1 or a subnormal s
    (for the smallest, any factor above 1/2).
    """
    factor = rank_tolerance_factor()
    if min(B.shape[-2:]) == 1:
        return (B.any(axis=(-2, -1)) & (factor < 1)).astype(np.intp)
    svals = np.linalg.svd(B, compute_uv=False)
    return np.count_nonzero(svals > factor * svals[..., :1], axis=-1)


def completeness_check(A: SpectralOperator, G: VectorSet) -> CompletenessCertificate:
    """Spanning test for the orbit family, one eigenvalue group at a time.

    The orbit of G under continuous powers spans C^d exactly when, within
    every eigenvalue group, the projected generators already span that
    group's eigenspace. Each group's rank is the count of its block's
    singular values above the relative rank cutoff, read at call time; the
    blocks of all groups of one size go to LAPACK as one stack, and blocks
    with one row or column are ranked by whether they are nonzero. The
    groups, their sizes and the rows each block gathers are laid out once
    per operator, so a call does only the work that depends on G.
    """
    ghat_t = A.to_eigenbasis(G.vectors).T
    values, indices, sizes, blocks = A._eigenspaces
    achieved = np.empty(len(sizes), dtype=int)
    for which, rows in blocks:
        # (k, size, |G|): row i of a block is eigen-coordinate i of every generator
        achieved[which] = _svd_rank(ghat_t[rows])
    achieved = achieved.tolist()
    # tuple.__new__ is what GroupRank._make calls, here without its Python frame
    entries = tuple(map(tuple.__new__, repeat(GroupRank), zip(values, indices, sizes, achieved)))
    return CompletenessCertificate(entries, tuple(achieved) == sizes)


def brute_force_completeness(
    A: SpectralOperator, G: VectorSet, L: float, grid_points: int
) -> bool:
    """Rank of the raw orbit sample matrix on a uniform grid (oracle path).

    Stacks A^t g for grid_points uniform times in [0, L] and asks a singular
    value decomposition whether the columns span C^d. Requires
    grid_points >= dimension * |G| so the column count cannot be the binding
    constraint.
    """
    L = _window_length(L)
    grid_points = operator.index(_not_bool(grid_points, "grid_points"))
    d, m = A.dimension, len(G)
    if grid_points < d * m:
        raise ValueError(f"grid_points must be at least d*|G| = {d * m}")
    times = np.linspace(0.0, L, grid_points)
    blocks = [apply_power_batch(A, times, g).T for g in G]
    return int(_svd_rank(np.hstack(blocks))) == d


def bessel_check_fd(A: SpectralOperator, G: VectorSet) -> float:
    """Generator energy on range(A); finite families are always Bessel.

    The returned number is the total squared norm of the generator
    projections onto the span of eigenvectors with nonnegligible eigenvalue
    (the part of the space the orbit can actually see).
    """
    mask = np.abs(A.eigenvalues) > A.tolerance
    ghat = A.to_eigenbasis(G.vectors)
    with np.errstate(over="ignore"):
        energy = float(np.sum(np.abs(ghat[:, mask]) ** 2))
    if not math.isfinite(energy):
        raise DomainError("generator energy is non-finite (overflow)")
    return energy


def bessel_upper_constant(A: SpectralOperator, L: float) -> float:
    """Closed-form Bessel scaling: integral of ||A||^{2t} over [0, L]."""
    nrm = A.operator_norm
    return pair_integral(nrm, nrm, L).real


def multiplier_bounds(A: SpectralOperator, L: float) -> tuple:
    """Extremes over the spectrum of |integral of lambda^t dt over [0, ell]|.

    ell is the clipped window min(L, 1/2); the returned pair (m, M) brackets
    the modulus of the averaging multiplier on every eigenvalue. Raises
    DomainError unless L is positive and finite.
    """
    L = _window_length(L)
    vals = np.abs(_window_integral(A._log, min(L, 0.5)))
    return float(vals.min()), float(vals.max())


def carleson_check(lambdas: Sequence[complex], P_norms: Sequence[float]) -> CarlesonReport:
    """One-generator frameability diagnostics for a diagonal system.

    ``P_norms[j]`` is ||P_j g||, the norm of the generator's projection onto
    the eigenvector of ``lambdas[j]``.

    Five conditions are tracked. Two of them cannot be decided from a finite
    truncation and are reported as ``assumed`` (orbit-closure coverage) and
    ``undecidable`` (tail summability; a monotone-moduli diagnostic for the
    observed tail is included). The remaining three are decided from the
    data: all eigenvalues strictly inside the unit disk, a positive infimum
    of pseudohyperbolic separation products, and two-sided bounds on
    ||P_j g|| / sqrt(1 - |lambda_j|^2).

    Raises DomainError when any eigenvalue sits on (or numerically on) the
    unit circle, where the scaling is meaningless.
    """
    lam = np.asarray(lambdas, dtype=np.complex128).reshape(-1)
    if lam.size == 0:
        raise ValueError("need at least one eigenvalue")
    mods = np.abs(lam)
    if np.any(np.abs(mods - 1.0) <= 1e-14):
        raise DomainError("eigenvalue modulus is numerically 1")

    inside = mods < 1.0
    cond_ii = "pass" if bool(inside.all()) else "fail"

    diff = np.abs(lam[:, None] - lam[None, :])
    blaschke = np.abs(1.0 - np.conj(lam)[:, None] * lam[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = diff / blaschke
    ratio = np.where(np.isnan(ratio), 0.0, ratio)
    np.fill_diagonal(ratio, 1.0)
    per = np.prod(ratio, axis=1)
    inf_product = float(per.min())
    cond_iv = "pass" if inf_product > 0.0 else "fail"

    norms = np.asarray(P_norms, dtype=np.float64).reshape(-1)
    if norms.size != lam.size:
        raise DimensionMismatch("one projection norm per eigenvalue is required")

    if inside.any():
        scaled = norms[inside] / np.sqrt(1.0 - mods[inside] ** 2)
        c_v = float(scaled.min())
        C_v = float(scaled.max())
        cond_v = "pass" if c_v > 0.0 else "fail"
    else:
        c_v = C_v = math.nan
        cond_v = "fail"

    tail = mods[lam.size // 2:]
    tail_increasing = bool(np.all(np.diff(tail) >= -1e-15)) if tail.size > 1 else True

    conditions = {
        "i": "assumed",
        "ii": cond_ii,
        "iii": "undecidable",
        "iv": cond_iv,
        "v": cond_v,
    }
    failed = any(conditions[k] == "fail" for k in ("ii", "iv", "v"))
    verdict = "not_frameable" if failed else "consistent_at_truncation"
    return CarlesonReport(
        inf_product=inf_product,
        per_index_products=tuple(float(x) for x in per),
        conditions=conditions,
        c_v=c_v,
        C_v=C_v,
        verdict=verdict,
        tail_increasing=tail_increasing,
    )
