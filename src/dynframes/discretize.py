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
Each doubling forms one Gram, the plain one that ``discrete_gram`` builds
on that grid; every left-rule weight is L / n, so the Riemann-weighted
lower bound is L / n times its lower bound.

``window_scan`` forms a scan in one pass: the eigen-coordinates and
W = ghat^T conj(ghat) once, the pair integrals of all k lengths as one
(k, d, d) stack, one Hermitian and finiteness check over the stack and one
stacked ``eigvalsh``, whose rows are the ones each Gram alone would get,
bit for bit. If the stack fails, the lengths run one at a time through
``semicont_gram``, so the first failing length raises its own error. The
search and the certificate build their window Gram where they form W, as
``semicont_gram`` would, and their discrete Grams from the same W.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DiscreteNotFrame,
    DomainError,
    NoConvergence,
    NonHermitian,
    NotAFrame,
    NotInvertible,
)
from .analysis import FRAME, FrameReport, _frame_report, frame_bounds
from .gram import Gram, TimeGrid, _check_hermitian, semicont_gram
from .spectral import (
    SpectralOperator,
    VectorSet,
    _not_bool,
    _power_profile,
    _window_integral,
    _window_length,
    pair_integral,
    pair_integral_matrix,
)

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
    L = _window_length(L)
    target_ratio = float(target_ratio)
    if not 0.0 < target_ratio < 1.0:
        raise ValueError("target_ratio must lie strictly between 0 and 1")
    max_points = operator.index(_not_bool(max_points, "max_points"))
    ghat = A.to_eigenbasis(G.vectors)
    n = 2
    last = -math.inf
    # W and its products may overflow; each Gram checks its own
    with np.errstate(over="ignore", invalid="ignore"):
        W = ghat.T @ np.conj(ghat)
        sc = frame_bounds(Gram(W * pair_integral_matrix(A, L), "closed_form", A.eigenbasis))
        if sc.classification != FRAME:
            raise NotAFrame(
                f"semi-continuous lower bound {sc.lower:.3e} is below tolerance"
            )
        target = target_ratio * sc.lower
        if n <= max_points:
            M = _power_profile(A, [0.0])  # the t = 0 row of every grid
        while n <= max_points:
            # (2j) (L / n) == j (L / (n / 2)) exactly, so only the odd rows are new
            h = L / n
            grown = np.empty((n, M.shape[1]), dtype=M.dtype)
            grown[0::2] = M
            grown[1::2] = _power_profile(A, np.arange(1, n, 2) * h)
            M = grown
            plain = frame_bounds(Gram(W * (M.T @ M.conj()), "discrete", A.eigenbasis))
            last = h * plain.lower  # every left-rule weight of a uniform grid is h
            if last >= target:
                iterations = n.bit_length() - 1  # n = 2^iterations
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
    ghat = A.to_eigenbasis(G.vectors)
    M = _power_profile(A, T.times)
    # W, the power sum and the window integrals may overflow; each Gram checks its own
    with np.errstate(over="ignore", invalid="ignore"):
        W = ghat.T @ np.conj(ghat)
        discrete = frame_bounds(Gram(W * (M.T @ M.conj()), "discrete", A.eigenbasis))
        if discrete.classification != FRAME:
            raise DiscreteNotFrame(
                f"discrete lower bound {discrete.lower:.3e} is below tolerance"
            )
        mhat = float(np.min(T.riemann_weights()))
        analytic = discrete.lower * pair_integral(A.min_modulus, A.min_modulus, mhat).real
        cont = frame_bounds(Gram(W * pair_integral_matrix(A, L), "closed_form", A.eigenbasis))
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

    ghat = A.to_eigenbasis(G.vectors)
    log = A._log
    try:
        # every window at once: one (k, d, d) stack of pair integrals and Grams
        P = _window_integral(log[:, None] + log.conj()[None, :], np.array(Ls)[:, None, None])
        with np.errstate(over="ignore", invalid="ignore"):  # the stack's check catches it
            W = ghat.T @ np.conj(ghat)
            hats = _check_hermitian(W * P, "semi-continuous gram", stack=True)
    except (DomainError, NonHermitian):
        # one window at a time, so the first failing length raises its own error
        reps = [frame_bounds(semicont_gram(A, G, L)) for L in Ls]
    else:
        reps = [_frame_report(w, "closed_form") for w in np.linalg.eigvalsh(hats)]
    return WindowScanResult(
        lengths=tuple(Ls),
        lower_bounds=tuple(r.lower for r in reps),
        upper_bounds=tuple(r.upper for r in reps),
        condition_numbers=tuple(r.condition_number for r in reps),
        classifications=tuple(r.classification for r in reps),
        invertible_self_adjoint=A.is_self_adjoint and A.is_invertible,
    )
