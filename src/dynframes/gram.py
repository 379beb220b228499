"""Gram matrices of continuous-power orbits over a finite window.

The frame operator of the family {A^t g : g in G, t in [0, L]} has a closed
form in the eigenbasis: with ghat = U* g,

    Shat[j, k] = sum_g ghat_j conj(ghat_k) * pair_integral(lambda_j, lambda_k, L)

and S = U Shat U*. Discrete time sets replace the pair integral by a
(weighted) sum of principal powers. A composite-Simpson quadrature route is
kept deliberately independent of the closed form so each can check the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, DomainError, NonHermitian
from .spectral import (
    SpectralOperator,
    VectorSet,
    _power_profile,
    apply_power_batch,
    complex_to_pair,
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
    "gram_to_dict",
    "matrix_to_csv_rows",
]

_HERMITIAN_TOL = 1e-8


def _check_hermitian(S: np.ndarray, label: str) -> None:
    if not np.isfinite(S).all():
        raise DomainError(
            f"{label} has non-finite entries (overflowed powers or NaN/inf input)"
        )
    scale = max(1.0, float(np.max(np.abs(S))) if S.size else 1.0)
    asym = float(np.max(np.abs(S - S.conj().T)))
    if asym > _HERMITIAN_TOL * scale:
        raise NonHermitian(f"{label} asymmetry {asym:.3e} exceeds tolerance")


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
class SemiContGram:
    """Frame operator over G x [0, L]; ``method`` records how it was built."""

    matrix: np.ndarray
    L: float
    generator_count: int
    method: str = "closed_form"

    def __post_init__(self):
        S = np.asarray(self.matrix, dtype=np.complex128)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise DimensionMismatch("gram matrix must be square")
        _check_hermitian(S, "semi-continuous gram")
        if self.method not in ("closed_form", "quadrature"):
            raise ValueError(f"unknown gram method {self.method!r}")
        S = S.copy()
        S.setflags(write=False)
        object.__setattr__(self, "matrix", S)
        object.__setattr__(self, "L", float(self.L))
        object.__setattr__(self, "generator_count", int(self.generator_count))

    @property
    def dimension(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True)
class DiscreteGram:
    """Frame operator of {A^t g : g in G, t in T} with optional weights."""

    matrix: np.ndarray
    times: TimeGrid
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        S = np.asarray(self.matrix, dtype=np.complex128)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise DimensionMismatch("gram matrix must be square")
        _check_hermitian(S, "discrete gram")
        S = S.copy()
        S.setflags(write=False)
        object.__setattr__(self, "matrix", S)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
            if w.size != len(self.times):
                raise DimensionMismatch("one weight per grid time is required")
            if not np.all(w > 0):
                raise ValueError("weights must be positive")
            w = w.copy()
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)

    @property
    def dimension(self) -> int:
        return int(self.matrix.shape[0])


def _hat_weight_matrix(A: SpectralOperator, G: VectorSet) -> np.ndarray:
    if G.dimension != A.dimension:
        raise DimensionMismatch(
            f"generators live in C^{G.dimension} but the operator acts on C^{A.dimension}"
        )
    ghat = A.to_eigenbasis(G.vectors)
    return ghat.T @ np.conj(ghat)


def _undiagonalize(A: SpectralOperator, shat: np.ndarray) -> np.ndarray:
    if A.eigenbasis is None:
        return shat
    return A.eigenbasis @ shat @ A.eigenbasis.conj().T


def semicont_gram(A: SpectralOperator, G: VectorSet, L: float) -> SemiContGram:
    """Closed-form Gram of the orbit family over [0, L]."""
    W = _hat_weight_matrix(A, G)
    P = pair_integral_matrix(A.eigenvalues, L)
    S = _undiagonalize(A, W * P)
    return SemiContGram(S, float(L), len(G), method="closed_form")


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
    if A.dimension != G.dimension:
        raise DimensionMismatch(
            f"generators live in C^{G.dimension} but the operator acts on C^{A.dimension}"
        )
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
    scaled = M if w is None else w[:, None] * M
    P = scaled.T @ np.conj(M)
    S = _undiagonalize(A, _hat_weight_matrix(A, G) * P)
    return DiscreteGram(S, T, w)


def bessel_sum(A: SpectralOperator, G: VectorSet, L: float, f: np.ndarray) -> float:
    """sum_g integral over [0, L] of |<f, A^t g>|^2 dt, without forming S.

    Streams one generator at a time; agrees with the quadratic form of
    ``semicont_gram`` to rounding.
    """
    fh = A.to_eigenbasis(np.asarray(f, dtype=np.complex128).reshape(-1))
    if G.dimension != A.dimension:
        raise DimensionMismatch(
            f"generators live in C^{G.dimension} but the operator acts on C^{A.dimension}"
        )
    P = pair_integral_matrix(A.eigenvalues, L)
    ghat = A.to_eigenbasis(G.vectors)
    total = 0.0
    for row in ghat:
        w = fh * np.conj(row)
        total += float(np.vdot(w, P @ w).real)
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
        S += (wts[:, None] * V).T @ np.conj(V)
    return SemiContGram(S, L, len(G), method="quadrature")


# ---------------------------------------------------------------------------
# interchange helpers


def gram_to_dict(gram: Union[SemiContGram, DiscreteGram]) -> dict:
    S = gram.matrix
    d = gram.dimension
    out = {
        "dimension": d,
        "matrix": [[complex_to_pair(S[i, j]) for j in range(d)] for i in range(d)],
    }
    if isinstance(gram, SemiContGram):
        out["L"] = gram.L
        out["method"] = gram.method
    else:
        out["L"] = gram.times.L
        out["method"] = "discrete"
        out["times"] = [float(t) for t in gram.times.times]
        out["weights"] = None if gram.weights is None else [float(x) for x in gram.weights]
    return out


def matrix_to_csv_rows(S: np.ndarray) -> list:
    """Row-major rows with interleaved re/im columns."""
    S = np.asarray(S, dtype=np.complex128)
    rows = []
    for i in range(S.shape[0]):
        row = []
        for j in range(S.shape[1]):
            row.extend([float(S[i, j].real), float(S[i, j].imag)])
        rows.append(row)
    return rows
