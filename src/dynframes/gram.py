"""Gram matrices of continuous-power orbits over a finite window.

The frame operator of the family {A^t g : g in G, t in [0, L]} has a closed
form in the eigenbasis: with ghat = U* g,

    Shat[j, k] = sum_g ghat_j conj(ghat_k) * pair_integral(lambda_j, lambda_k, L)

and S = U Shat U*, which a ``Gram`` builds from its ``hat`` only when
``.matrix`` is read. Discrete time sets replace the pair integral by a
(weighted) sum of principal powers. A composite-Simpson route, built dense
from orbit samples, stays independent of the closed form so each can check
the other. Every route returns one ``Gram``, its ``method`` naming the route.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, DomainError, NonHermitian
from .spectral import (
    SpectralOperator,
    VectorSet,
    _held,
    _not_bool,
    _power_profile,
    _require_finite,
    _window_length,
    apply_power_batch,
    pair_integral_matrix,
)

__all__ = [
    "TimeGrid",
    "Gram",
    "semicont_gram",
    "discrete_gram",
    "bessel_sum",
    "quadrature_gram",
]

_HERMITIAN_TOL = 1e-8


def _check_hermitian(S, label: str, stack: bool = False) -> np.ndarray:
    """Hermitian part of S, float64 for real S; raises unless S is square,
    nonempty, finite and Hermitian.

    With ``stack``, S is a (k, d, d) stack of such matrices, each checked
    against its own scale in one pass, and the first that fails raises.
    """
    S = np.asarray(S, dtype=np.float64 if np.isrealobj(S) else np.complex128)
    if S.ndim != 2 + stack or S.shape[-1] != S.shape[-2]:
        raise DimensionMismatch("gram matrix must be square")
    if S.shape[-1] == 0:
        raise DimensionMismatch(f"{label} is empty (0 x 0)")
    # relative to the largest entry, so a rescaled matrix keeps its verdict;
    # halved, so the scale is finite exactly when S is (halving both sides
    # leaves the test as it is; 0.5 times a complex inf has a NaN part, hence
    # "invalid"), and an asymmetry that still overflows is inf and fails
    with np.errstate(over="ignore", invalid="ignore"):
        half = 0.5 * S
        herm = half.conj().swapaxes(-1, -2)
        scale = np.abs(half).max(axis=(-2, -1))
        asym = np.abs(half - herm).max(axis=(-2, -1))
    # the tolerance scales the bound, not the asymmetry: an all-zero matrix passes
    failed = ~(scale < math.inf) | (asym > _HERMITIAN_TOL * scale)  # NaN fails too
    if failed.any():
        i = np.argmax(failed)
        if not np.ravel(scale)[i] < math.inf:
            raise DomainError(
                f"{label} has non-finite entries (overflowed powers or NaN/inf input)"
            )
        raise NonHermitian(
            f"{label} asymmetry {2.0 * float(np.ravel(asym)[i]):.3e} exceeds tolerance"
        )
    # the eigensolver then reads either triangle alike; halving keeps it finite
    return half + herm


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing sample times starting at 0, all below L."""

    times: np.ndarray
    L: float

    def __post_init__(self):
        t = _held(self.times, np.float64, "time grid times", one_axis=True).reshape(-1)
        if t.size == 0:
            raise ValueError("a time grid needs at least one point")
        L = _window_length(self.L)
        if t[0] != 0.0:
            raise ValueError("time grids must start at t = 0")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("time grid must be strictly increasing")
        if t[-1] >= L:
            raise ValueError("all grid times must lie strictly below L")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "L", L)

    @classmethod
    def uniform(cls, n: int, L: float) -> "TimeGrid":
        n = operator.index(_not_bool(n, "n"))
        if n < 1:
            raise ValueError("uniform grid needs n >= 1 points")
        L = _window_length(L)
        return cls(np.arange(n) * (L / n), L)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def max_gap(self) -> float:
        """Largest gap between consecutive points, counting the final gap to L."""
        return float(np.max(self.riemann_weights()))

    def riemann_weights(self) -> np.ndarray:
        """Left-rule panel widths t_{i+1} - t_i with t_{n+1} = L."""
        return np.diff(np.append(self.times, self.L))


@dataclass(frozen=True, eq=False)
class Gram:
    """Hermitian Gram S = U hat U*, U the unitary ``eigenbasis`` (None: identity).

    ``hat`` is the checked Hermitian part of the array given; ``method``
    records the route that built it: "closed_form", "discrete" or "quadrature".
    """

    hat: np.ndarray
    method: str
    eigenbasis: Optional[np.ndarray] = None

    def __post_init__(self):
        label = "discrete gram" if self.method == "discrete" else "semi-continuous gram"
        S = _check_hermitian(self.hat, label)
        S.setflags(write=False)
        object.__setattr__(self, "hat", S)
        if self.eigenbasis is not None and np.shape(self.eigenbasis) != S.shape:
            raise DimensionMismatch("eigenbasis must match the gram's dimension")

    @cached_property
    def matrix(self) -> np.ndarray:
        """S, built on first read; DomainError when it overflows."""
        if self.eigenbasis is None:
            return self.hat
        U = np.asarray(self.eigenbasis)
        with np.errstate(over="ignore", invalid="ignore"):
            S = _require_finite(U @ self.hat @ U.conj().T, "gram matrix")
        S.setflags(write=False)
        return S


def semicont_gram(A: SpectralOperator, G: VectorSet, L: float) -> Gram:
    """Closed-form Gram of the orbit family over [0, L]; DomainError if it overflows."""
    P = pair_integral_matrix(A, L)
    ghat = A.to_eigenbasis(G.vectors)
    with np.errstate(over="ignore", invalid="ignore"):  # the Gram checks it
        # np.conj copies a real ghat; ghat.T @ ghat would round as numpy's syrk
        shat = (ghat.T @ np.conj(ghat)) * P
    return Gram(shat, "closed_form", A.eigenbasis)


def discrete_gram(
    A: SpectralOperator, G: VectorSet, T: TimeGrid, weights: Optional[str] = None
) -> Gram:
    """Gram of {A^t g} over the discrete times in T.

    ``weights`` is None (plain sums) or "riemann" (left-rule panel widths,
    so the Gram approximates the [0, L] integral).
    """
    if weights is None:
        w = None
    elif isinstance(weights, str) and weights == "riemann":
        w = T.riemann_weights()
    else:
        raise ValueError(f"unknown weighting {weights!r}")
    ghat = A.to_eigenbasis(G.vectors)
    M = _power_profile(A, T.times)
    with np.errstate(over="ignore", invalid="ignore"):  # the Gram checks it
        Q = (M if w is None else w[:, None] * M).T @ M.conj()
        shat = (ghat.T @ np.conj(ghat)) * Q
    return Gram(shat, "discrete", A.eigenbasis)


def bessel_sum(A: SpectralOperator, G: VectorSet, L: float, f: np.ndarray) -> float:
    """sum_g integral over [0, L] of |<f, A^t g>|^2 dt, without forming S.

    The quadratic form of ``semicont_gram``'s ``hat`` at the eigen-coordinates
    of f. Raises DomainError when the sum overflows.
    """
    shat = semicont_gram(A, G, L).hat
    fh = A.to_eigenbasis(np.asarray(f, dtype=np.complex128).reshape(-1))
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.vdot(fh, shat @ fh).real)
    if not math.isfinite(total):
        raise DomainError("energy sum is non-finite (overflowed powers)")
    return total


def quadrature_gram(
    A: SpectralOperator, G: VectorSet, L: float, panels: int = 256
) -> Gram:
    """Composite-Simpson Gram built from orbit samples A^t g only.

    This never touches the closed-form pair integrals, which is the point:
    it is an independent check of ``semicont_gram``. ``panels`` must be an
    even integer, at least 2.
    """
    L = _window_length(L)
    panels = operator.index(_not_bool(panels, "panels"))
    if panels < 2 or panels % 2 != 0:
        raise ValueError("panels must be an even count >= 2")
    nodes = np.linspace(0.0, L, panels + 1)
    h = L / panels
    wts = np.full(panels + 1, 2.0)
    wts[1::2] = 4.0
    wts[0] = wts[-1] = 1.0
    wts *= h / 3.0

    d = A.dimension
    S = np.zeros((d, d), dtype=np.complex128)
    for g in G:
        V = apply_power_batch(A, nodes, g)
        with np.errstate(over="ignore", invalid="ignore"):
            S += (wts[:, None] * V).T @ np.conj(V)
    return Gram(S, "quadrature")
