"""Replacing the continuous time window by finitely many sample times.

Two directions live here. ``find_discretization`` searches for a uniform
grid whose Riemann-weighted lower bound captures a target fraction of the
semi-continuous one. ``verify_discrete_implies_semicont`` goes the other
way: given a discrete frame over T and an invertible operator, it certifies
a semi-continuous lower bound over [0, L] with an explicit analytic
constant.

The search doubles n from 2, and its grids are nested: L / n is an exact
scaling of L, so grid 2n is grid n, bit for bit, plus n midpoints. It keeps
the power rows of the current grid and evaluates the powers at the new
midpoints only, so a search that accepts n points evaluates n rows in all.
One power sum Q per doubling gives both the weighted Gram (every left-rule
weight is L / n) and the accepted grid's plain Gram, which is the array
``discrete_gram`` builds on that grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DiscreteNotFrame,
    DomainError,
    NoConvergence,
    NotAFrame,
    NotInvertible,
)
from .analysis import FRAME, FrameReport, frame_bounds
from .gram import Gram, TimeGrid, _hat_weight_matrix, _power_sum, discrete_gram, semicont_gram
from .spectral import SpectralOperator, VectorSet, _power_profile, _window_length, pair_integral

__all__ = [
    "DiscretizationResult",
    "WindowScanResult",
    "find_discretization",
    "verify_discrete_implies_semicont",
    "window_scan",
]


@dataclass(frozen=True)
class DiscretizationResult:
    """Accepted grid with its (unweighted) frame report."""

    grid: TimeGrid
    report: FrameReport
    delta_used: float
    iterations: int

    def __post_init__(self):
        if (
            self.report.classification == FRAME
            and self.grid.max_gap > self.delta_used * (1.0 + 1e-9)
        ):
            raise ValueError("grid gap exceeds the reported mesh size")


@dataclass(frozen=True)
class WindowScanResult:
    """Frame bounds as a function of the window length."""

    lengths: tuple
    lower_bounds: tuple
    upper_bounds: tuple
    condition_numbers: tuple
    classifications: tuple
    invertible_self_adjoint: bool


def find_discretization(
    A: SpectralOperator,
    G: VectorSet,
    L: float,
    target_ratio: float,
    max_points: int = 1 << 20,
) -> DiscretizationResult:
    """Search doubling uniform grids until the weighted bound is captured.

    Acceptance compares the Riemann-weighted discrete lower bound against
    target_ratio times the semi-continuous lower bound; the returned report
    carries the plain unweighted bounds of the accepted grid. Raises
    NotAFrame when the continuous system itself has no lower bound, and
    NoConvergence when the doubling passes max_points.
    """
    target_ratio = float(target_ratio)
    if not 0.0 < target_ratio < 1.0:
        raise ValueError("target_ratio must lie strictly between 0 and 1")
    sc = frame_bounds(semicont_gram(A, G, L))
    if sc.classification != FRAME:
        raise NotAFrame(
            f"semi-continuous lower bound {sc.lower:.3e} is below tolerance"
        )
    target = target_ratio * sc.lower

    n = 2
    iterations = 0
    last = -math.inf
    if n <= max_points:
        W = _hat_weight_matrix(A.to_eigenbasis(G.vectors))
        M = _power_profile(A, [0.0])  # the t = 0 row of every grid
    while n <= max_points:
        # (2j) (L / n) == j (L / (n / 2)) exactly, so only the odd rows are new
        h = float(L) / n
        grown = np.empty((n, M.shape[1]), dtype=M.dtype)
        grown[0::2] = M
        grown[1::2] = _power_profile(A, np.arange(1, n, 2) * h)
        M = grown
        Q = _power_sum(M)
        # every left-rule weight of a uniform grid is h
        weighted = frame_bounds(Gram(W * (h * Q), "discrete", A.eigenbasis))
        iterations += 1
        last = weighted.lower
        if weighted.lower >= target:
            plain = frame_bounds(Gram(W * Q, "discrete", A.eigenbasis))
            return DiscretizationResult(TimeGrid.uniform(n, L), plain, h, iterations)
        n *= 2
    raise NoConvergence(
        f"no uniform grid up to {max_points} points reached "
        f"{target_ratio} of the continuous lower bound (last {last:.3e})"
    )


def verify_discrete_implies_semicont(
    A: SpectralOperator, G: VectorSet, T: TimeGrid, L: float
) -> tuple:
    """Certify the [0, L] system from a discrete frame over T.

    For invertible A, a discrete lower bound c over T forces a
    semi-continuous lower bound of at least
    c * (1 - r^(-2*m)) / (2 ln r) with r = 1 / min|lambda| and m the least
    gap of T adjoined with L. Returns (semi-continuous FrameReport,
    that analytic constant). Raises NotInvertible or DiscreteNotFrame when
    the hypotheses fail.
    """
    L = _window_length(L)
    if T.L > L:
        raise DomainError("grid interval extends past the requested window")
    if not A.is_invertible:
        raise NotInvertible(
            f"smallest eigenvalue modulus {A.min_modulus:.3e} is below tolerance"
        )
    discrete = frame_bounds(discrete_gram(A, G, T))
    if discrete.classification != FRAME:
        raise DiscreteNotFrame(
            f"discrete lower bound {discrete.lower:.3e} is below tolerance"
        )
    mhat = float(np.min(T.riemann_weights()))
    decay = A.min_modulus
    analytic = discrete.lower * pair_integral(decay, decay, mhat).real
    cont = frame_bounds(semicont_gram(A, G, L))
    if cont.lower < analytic * (1.0 - 1e-9) - 1e-12:
        raise RuntimeError(
            "internal inconsistency: continuous bound fell below its certificate"
        )
    return cont, analytic


def window_scan(A: SpectralOperator, G: VectorSet, lengths) -> WindowScanResult:
    """Frame bounds for each window [0, L], L running over ``lengths``.

    Scans never raise on negative classifications; each window gets its own
    verdict. The ``invertible_self_adjoint`` flag marks the regime where the
    windows must agree (all frames or none).
    """
    Ls = [_window_length(x) for x in lengths]
    if not Ls:
        raise ValueError("need at least one window length")
    if any(b <= a for a, b in zip(Ls, Ls[1:])):
        raise ValueError("window lengths must be strictly increasing")

    flag = A.is_self_adjoint and A.is_invertible
    lows, ups, conds, labels = [], [], [], []
    for L in Ls:
        rep = frame_bounds(semicont_gram(A, G, L))
        lows.append(rep.lower)
        ups.append(rep.upper)
        conds.append(rep.condition_number)
        labels.append(rep.classification)
    return WindowScanResult(
        lengths=tuple(Ls),
        lower_bounds=tuple(lows),
        upper_bounds=tuple(ups),
        condition_numbers=tuple(conds),
        classifications=tuple(labels),
        invertible_self_adjoint=flag,
    )
