"""Gram matrices of continuous-power orbits over a finite window.

The frame operator of the family {A^t g : g in G, t in [0, L]} has a closed
form in the eigenbasis: with ghat = U* g,

    Shat[j, k] = sum_g ghat_j conj(ghat_k) * pair_integral(lambda_j, lambda_k, L)

and S = U Shat U*, which a Gram builds from its ``hat`` only when ``.matrix``
is read. Discrete time sets replace the pair integral by a (weighted) sum of
principal powers. A composite-Simpson route, built dense from orbit samples,
stays independent of the closed form so each can check the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, DomainError, NonHermitian
from .spectral import (
    SpectralOperator,
    VectorSet,
    _power_profile,
    _require_finite,
    apply_power_batch,
    pair_integral_matrix,
)

__all__ = [
    "TimeGrid",
    "SemiContGram",
    "DiscreteGram",
    "semicont_gram",
    "discrete_gram",
    "bessel_sum",
    "quadrature_gram",
]

_HERMITIAN_TOL = 1e-8


def _check_hermitian(S, label: str) -> np.ndarray:
    """S as a complex array; raises unless it is square, finite and Hermitian."""
    S = np.asarray(S, dtype=np.complex128)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatch("gram matrix must be square")
    if not np.isfinite(S).all():
        raise DomainError(
            f"{label} has non-finite entries (overflowed powers or NaN/inf input)"
        )
    # an asymmetry that overflows is inf, which still exceeds the tolerance
    with np.errstate(over="ignore"):
        scale = max(1.0, float(np.max(np.abs(S))) if S.size else 1.0)
        asym = float(np.max(np.abs(S - S.conj().T)))
    if asym > _HERMITIAN_TOL * scale:
        raise NonHermitian(f"{label} asymmetry {asym:.3e} exceeds tolerance")
    return S


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample times starting at 0, all below L."""

    times: np.ndarray
    L: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64).reshape(-1)
        L = float(self.L)
        if t.size == 0:
            raise ValueError("a time grid needs at least one point")
        if not math.isfinite(L) or L <= 0:
            raise DomainError("interval length must be positive and finite")
        if t[0] != 0.0:
            raise ValueError("time grids must start at t = 0")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("time grid must be strictly increasing")
        if t[-1] >= L:
            raise ValueError("all grid times must lie strictly below L")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "L", L)

    @classmethod
    def uniform(cls, n: int, L: float) -> "TimeGrid":
        n = int(n)
        if n < 1:
            raise ValueError("uniform grid needs n >= 1 points")
        return cls(np.arange(n) * (float(L) / n), L)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def max_gap(self) -> float:
        """Largest gap between consecutive points, counting the final gap to L."""
        gaps = np.diff(np.append(self.times, self.L))
        return float(np.max(gaps))

    def riemann_weights(self) -> np.ndarray:
        """Left-rule panel widths t_{i+1} - t_i with t_{n+1} = L."""
        return np.diff(np.append(self.times, self.L))


@dataclass(frozen=True)
class _EigenGram:
    """Hermitian Gram S = U hat U*, U the unitary ``eigenbasis`` (None: identity)."""

    hat: np.ndarray
    eigenbasis: Optional[np.ndarray] = field(default=None, kw_only=True)

    def _freeze(self, label: str) -> None:
        S = _check_hermitian(self.hat, label).copy()
        S.setflags(write=False)
        object.__setattr__(self, "hat", S)
        if self.eigenbasis is not None and np.shape(self.eigenbasis) != S.shape:
            raise DimensionMismatch("eigenbasis must match the gram's dimension")

    @property
    def dimension(self) -> int:
        return int(self.hat.shape[0])

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


@dataclass(frozen=True)
class SemiContGram(_EigenGram):
    """Frame operator over G x [0, L]; ``method`` records how it was built."""

    L: float
    generator_count: int
    method: str = "closed_form"

    def __post_init__(self):
        self._freeze("semi-continuous gram")
        if self.method not in ("closed_form", "quadrature"):
            raise ValueError(f"unknown gram method {self.method!r}")
        object.__setattr__(self, "L", float(self.L))
        object.__setattr__(self, "generator_count", int(self.generator_count))


@dataclass(frozen=True)
class DiscreteGram(_EigenGram):
    """Frame operator of {A^t g : g in G, t in T} with optional weights."""

    times: TimeGrid
    weights: Optional[np.ndarray] = None
    method: ClassVar[str] = "discrete"

    def __post_init__(self):
        self._freeze("discrete gram")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
            if w.size != len(self.times):
                raise DimensionMismatch("one weight per grid time is required")
            if not np.all(w > 0):
                raise ValueError("weights must be positive")
            w = w.copy()
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)


def _hat_weight_matrix(ghat: np.ndarray) -> np.ndarray:
    return ghat.T @ np.conj(ghat)


def _sampled_gram_hat(
    ghat: np.ndarray, M: np.ndarray, w: Optional[np.ndarray]
) -> np.ndarray:
    """Eigen-coordinate Gram of sampled orbits: (ghat^T conj ghat) * ((w M)^T conj M).

    Row i of M holds the powers of every eigenvalue at the i-th time; w
    weights the times (None for plain sums). Raises DomainError when the
    sum of squared powers overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        P = (M if w is None else w[:, None] * M).T @ np.conj(M)
    return _hat_weight_matrix(ghat) * _require_finite(P, "sampled power sum")


def semicont_gram(A: SpectralOperator, G: VectorSet, L: float) -> SemiContGram:
    """Closed-form Gram of the orbit family over [0, L]; DomainError if it overflows."""
    W = _hat_weight_matrix(A.to_eigenbasis(G.vectors))
    P = pair_integral_matrix(A.eigenvalues, L)
    with np.errstate(over="ignore", invalid="ignore"):
        shat = W * P
    return SemiContGram(shat, float(L), len(G), eigenbasis=A.eigenbasis)


def discrete_gram(
    A: SpectralOperator,
    G: VectorSet,
    T: TimeGrid,
    weights: Union[None, str, Sequence[float]] = None,
) -> DiscreteGram:
    """Gram of {A^t g} over the discrete times in T.

    ``weights`` may be None (plain sums), the string "riemann" (left-rule
    panel widths, so the Gram approximates the [0, L] integral), or an
    explicit positive array with one entry per time.
    """
    ghat = A.to_eigenbasis(G.vectors)
    if isinstance(weights, str):
        if weights != "riemann":
            raise ValueError(f"unknown weighting {weights!r}")
        w = T.riemann_weights()
    elif weights is None:
        w = None
    else:
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if w.size != len(T):
            raise DimensionMismatch("one weight per grid time is required")

    M = _power_profile(A.eigenvalues, T.times)
    return DiscreteGram(_sampled_gram_hat(ghat, M, w), T, w, eigenbasis=A.eigenbasis)


def bessel_sum(A: SpectralOperator, G: VectorSet, L: float, f: np.ndarray) -> float:
    """sum_g integral over [0, L] of |<f, A^t g>|^2 dt, without forming S.

    The quadratic form of ``semicont_gram``'s ``hat`` at the eigen-coordinates
    of f. Raises DomainError when the sum overflows.
    """
    fh = A.to_eigenbasis(np.asarray(f, dtype=np.complex128).reshape(-1))
    shat = semicont_gram(A, G, L).hat
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.vdot(fh, shat @ fh).real)
    if not math.isfinite(total):
        raise DomainError("energy sum is non-finite (overflowed powers)")
    return total


def quadrature_gram(
    A: SpectralOperator, G: VectorSet, L: float, panels: int = 256
) -> SemiContGram:
    """Composite-Simpson Gram built from orbit samples A^t g only.

    This never touches the closed-form pair integrals, which is the point:
    it is an independent check of ``semicont_gram``. ``panels`` must be even
    and at least 2.
    """
    L = float(L)
    if not L > 0:
        raise DomainError("interval length must be positive")
    panels = int(panels)
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
    return SemiContGram(S, L, len(G), method="quadrature")
