"""Normal operators given by their spectral data, and principal powers.

Everything downstream works with an operator in diagonalized form:
``A = U diag(lambda) U*`` with orthonormal columns in ``U``. Continuous
powers ``A^t`` are defined entrywise on the spectrum through the principal
branch ``z^t = exp(t (ln|z| + i arg z))`` with ``arg z`` in ``[-pi, pi)``.

Two vectorised kernels compute every power and window integral in the
package: ``_power_profile`` (samples ``lambda^t``) and ``_window_integral``
(``(e^{L alpha} - 1) / alpha``). They are where an overflowing power becomes
a ``DomainError``; the scalar functions below are thin wrappers on them.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError

__all__ = [
    "SpectralOperator",
    "VectorSet",
    "TimeInterval",
    "EigenGroup",
    "branch_argument",
    "principal_power",
    "apply_power",
    "apply_power_batch",
    "power_integral",
    "pair_integral",
    "pair_integral_matrix",
    "group_eigenspaces",
    "default_tolerance",
    "rank_tolerance_factor",
    "operator_to_dict",
    "operator_from_dict",
    "vectors_to_dict",
    "vectors_from_dict",
    "load_operator",
    "save_operator",
    "load_vectors",
    "save_vectors",
]

_SMALL_EXPONENT = 1e-12
_ORTHONORMAL_TOL = 1e-8


def default_tolerance() -> float:
    """Eigenvalue grouping tolerance; DYNSAMP_TOL overrides the 1e-10 default."""
    return float(os.environ.get("DYNSAMP_TOL", "1e-10"))


def rank_tolerance_factor() -> float:
    """Relative rank cutoff factor; DYNSAMP_TOL overrides the 1e-9 default."""
    return float(os.environ.get("DYNSAMP_TOL", "1e-9"))


def _principal_log(z) -> np.ndarray:
    """ln|z| + i arg z with arg z in [-pi, pi); the real part is -inf at z = 0."""
    z = np.asarray(z, dtype=np.complex128)
    arg = np.arctan2(z.imag, z.real)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(z)) + 1j * np.where(arg == np.pi, -np.pi, arg)


def _require_finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise DomainError(f"{what} has non-finite entries (overflowed powers)")
    return values


def _window_integral(alpha: np.ndarray, L: float) -> np.ndarray:
    """(e^{L alpha} - 1) / alpha elementwise: the integral of e^{t alpha} over [0, L].

    Returns L where |alpha| <= 1e-12 and 0 where Re alpha = -inf (a zero
    eigenvalue); raises DomainError when a value overflows.
    """
    L = float(L)
    if not L > 0:
        raise DomainError("interval length must be positive")
    small = np.abs(alpha) <= _SMALL_EXPONENT
    with np.errstate(over="ignore", invalid="ignore"):
        out = (np.exp(L * alpha) - 1.0) / np.where(small, 1.0, alpha)
    out = np.where(small, complex(L), np.where(alpha.real == -np.inf, 0.0, out))
    return _require_finite(out, "window integral")


def _power_integrals(z, ell: float) -> np.ndarray:
    if not 0.0 < float(ell) <= 0.5:
        raise DomainError("ell must lie in (0, 1/2]")
    return _window_integral(_principal_log(z), ell)


def _power_profile(eigenvalues: np.ndarray, times) -> np.ndarray:
    """Rows of principal powers: out[i, j] = lambda_j ^ t_i, with 0^0 = 1.

    Raises DomainError for 0^t with t < 0 and when a power overflows.
    """
    lam = np.asarray(eigenvalues, dtype=np.complex128)
    t = np.atleast_1d(np.asarray(times, dtype=np.float64))
    zero = lam == 0
    has_zero = zero.any()
    if has_zero and (t < 0).any():
        raise DomainError("0^t is undefined for t < 0")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(np.multiply.outer(t, _principal_log(lam)))
    if has_zero:
        out[:, zero] = 0.0
        out[np.ix_(t == 0.0, zero)] = 1.0
    return _require_finite(out, "power profile")


def branch_argument(z: complex) -> float:
    """Argument of z in [-pi, pi); the cut itself maps to -pi."""
    return float(_principal_log(z).imag)


def principal_power(z: complex, t: float) -> complex:
    """Principal-branch power z^t, with z^0 = 1 for every z.

    Raises DomainError for 0^t with t < 0 and when z^t overflows.
    """
    return complex(_power_profile([z], [t])[0, 0])


def power_integral(z: complex, ell: float) -> complex:
    """Closed form of the integral of z^t dt over [0, ell], ell in (0, 1/2].

    The removable singularity at z = 1 (|ln z| <= 1e-12) returns ell; z = 0
    integrates to 0.
    """
    return complex(_power_integrals(z, ell))


def pair_integral(lam: complex, mu: complex, L: float) -> complex:
    """Integral of lam^t conj(mu)^t dt over [0, L].

    The exponent is built from the two principal-branch arguments
    separately: alpha = ln|lam mu| + i (arg lam - arg mu). That choice is
    what makes the formula continuous on and off the branch cut (e.g.
    lam = mu = -1 gives alpha = 0 and the integral equals L).
    """
    return complex(_window_integral(_principal_log(lam) + np.conj(_principal_log(mu)), L))


def pair_integral_matrix(eigenvalues: np.ndarray, L: float) -> np.ndarray:
    """Matrix P with P[j, k] = pair_integral(lambda_j, lambda_k, L)."""
    log = _principal_log(eigenvalues)
    return _window_integral(log[:, None] + np.conj(log)[None, :], L)


@dataclass(frozen=True)
class SpectralOperator:
    """A normal operator on C^d stored as eigenvalues plus eigenbasis.

    ``eigenbasis=None`` means the standard basis (the operator is diagonal).
    ``tolerance`` controls eigenvalue grouping and invertibility decisions;
    it defaults to 1e-10 (or the DYNSAMP_TOL environment override).
    """

    eigenvalues: np.ndarray
    eigenbasis: Optional[np.ndarray] = None
    tolerance: float = field(default=-1.0)

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.complex128).reshape(-1)
        if lam.size == 0:
            raise ValueError("operator needs at least one eigenvalue")
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be finite")
        lam = lam.copy()
        lam.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)

        basis = self.eigenbasis
        if basis is not None:
            basis = np.asarray(basis, dtype=np.complex128)
            d = lam.size
            if basis.shape != (d, d):
                raise DimensionMismatch(
                    f"eigenbasis shape {basis.shape} does not match dimension {d}"
                )
            # a real basis stored as complex is checked in real arithmetic,
            # at a quarter of the flops of the complex product
            if basis.imag.any():
                gram = basis.conj().T @ basis
            else:
                gram = basis.real.T @ basis.real
            if np.max(np.abs(gram - np.eye(d))) > _ORTHONORMAL_TOL:
                raise ValueError("eigenbasis columns are not orthonormal")
            basis = basis.copy()
            basis.setflags(write=False)
        object.__setattr__(self, "eigenbasis", basis)

        tol = self.tolerance
        if tol is None or tol < 0:
            tol = default_tolerance()
        if not tol > 0:
            raise ValueError("tolerance must be positive")
        object.__setattr__(self, "tolerance", float(tol))

    @property
    def dimension(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def operator_norm(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))

    @property
    def min_modulus(self) -> float:
        return float(np.min(np.abs(self.eigenvalues)))

    @property
    def is_invertible(self) -> bool:
        return self.min_modulus > self.tolerance

    @property
    def is_self_adjoint(self) -> bool:
        return bool(np.max(np.abs(self.eigenvalues.imag)) <= 1e-12)

    def adjoint(self) -> "SpectralOperator":
        return SpectralOperator(
            np.conj(self.eigenvalues), self.eigenbasis, self.tolerance
        )

    def to_eigenbasis(self, vecs: np.ndarray) -> np.ndarray:
        """Coordinates of vectors (last axis = C^d index) in the eigenbasis."""
        v = np.asarray(vecs, dtype=np.complex128)
        if v.shape[-1] != self.dimension:
            raise DimensionMismatch(
                f"vector length {v.shape[-1]} does not match dimension {self.dimension}"
            )
        if self.eigenbasis is None:
            return v.copy()
        # conj(conj(v) U) equals v conj(U) bit for bit, up to the sign of
        # zero parts, and copies v instead of the d x d basis
        out = np.conj(v) @ self.eigenbasis
        return np.conj(out, out=out)

    def from_eigenbasis(self, coords: np.ndarray) -> np.ndarray:
        c = np.asarray(coords, dtype=np.complex128)
        if c.shape[-1] != self.dimension:
            raise DimensionMismatch(
                f"coordinate length {c.shape[-1]} does not match dimension {self.dimension}"
            )
        if self.eigenbasis is None:
            return c.copy()
        return c @ self.eigenbasis.T

    def matrix(self) -> np.ndarray:
        """Dense d x d matrix of the operator."""
        if self.eigenbasis is None:
            return np.diag(self.eigenvalues)
        return (self.eigenbasis * self.eigenvalues) @ self.eigenbasis.conj().T


@dataclass(frozen=True)
class VectorSet:
    """Finite ordered family of vectors in C^d, stored as rows."""

    vectors: np.ndarray
    labels: Optional[tuple] = None

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.complex128)
        if v.ndim == 1:
            v = v[None, :]
        if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] == 0:
            raise ValueError("vectors must form a nonempty 2-D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("vectors must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != v.shape[0]:
                raise DimensionMismatch("one label per vector is required")
            object.__setattr__(self, "labels", labels)

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.vectors)


@dataclass(frozen=True)
class TimeInterval:
    """The window [0, L]; ``ell`` is the clipped length min(L, 1/2)."""

    L: float

    def __post_init__(self):
        L = float(self.L)
        if not (math.isfinite(L) and L > 0):
            raise DomainError("interval length must be positive and finite")
        object.__setattr__(self, "L", L)

    @property
    def ell(self) -> float:
        return min(self.L, 0.5)


class EigenGroup(NamedTuple):
    value: complex
    indices: tuple


def group_eigenspaces(A: SpectralOperator) -> list:
    """Partition eigenvalue indices into groups closed under tolerance ties.

    Two indices land in the same group when their eigenvalues are within
    ``A.tolerance`` of each other, taking the transitive closure (a chain of
    near ties merges into one group). Groups are ordered by their smallest
    index and carry the eigenvalue at that index.

    Exact ties collapse first, so a degenerate spectrum costs what its
    distinct values cost. Candidate pairs of distinct values come from one
    sweep in real-part order: values within the tolerance have real parts
    within it, so each one is compared only with the few that follow it.
    """
    lam = A.eigenvalues
    tol = A.tolerance
    # sorted lexicographically, so the real parts of srt are nondecreasing
    srt, inverse = np.unique(lam, return_inverse=True)
    n = srt.size
    # the window reaches 2 * tol so that rounding in the subtraction or in
    # the shifted bound cannot drop a partner; the exact test below decides
    reach = np.searchsorted(srt.real, srt.real + 2.0 * tol, side="right") - np.arange(n)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for k in range(1, int(reach.max())):
        pos = np.flatnonzero(reach > k)
        gap = srt[pos + k] - srt[pos]
        # hypot rounds like the scalar abs(); numpy's vectorised complex
        # abs can differ by an ulp and flip a tie that sits at the tolerance
        for i in pos[np.hypot(gap.real, gap.imag) <= tol].tolist():
            parent[find(i + k)] = find(i)

    root = [find(i) for i in range(n)]
    # filled in index order, so the groups come out ordered by first index
    groups: dict = {}
    for i, u in enumerate(inverse.tolist()):
        groups.setdefault(root[u], []).append(i)
    return [EigenGroup(complex(lam[m[0]]), tuple(m)) for m in groups.values()]


def _orbit(A: SpectralOperator, times, f) -> np.ndarray:
    fh = A.to_eigenbasis(np.asarray(f, dtype=np.complex128).reshape(-1))
    return A.from_eigenbasis(_power_profile(A.eigenvalues, times) * fh)


def apply_power(A: SpectralOperator, t: float, f: np.ndarray) -> np.ndarray:
    """A^t f through the spectral decomposition."""
    return _orbit(A, [float(t)], f)[0]


def apply_power_batch(A: SpectralOperator, times: Sequence[float], f: np.ndarray) -> np.ndarray:
    """Stack of A^t f for each t in times; row i is A^{times[i]} f."""
    return _orbit(A, times, f)


# ---------------------------------------------------------------------------
# JSON interchange


def complex_to_pair(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def pair_to_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected a [re, im] pair, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def operator_to_dict(A: SpectralOperator) -> dict:
    basis = None
    if A.eigenbasis is not None:
        basis = [
            [complex_to_pair(A.eigenbasis[i, j]) for i in range(A.dimension)]
            for j in range(A.dimension)
        ]
    return {
        "dimension": A.dimension,
        "eigenvalues": [complex_to_pair(z) for z in A.eigenvalues],
        "eigenbasis": basis,
        "tolerance": A.tolerance,
    }


def operator_from_dict(data: dict) -> SpectralOperator:
    if not isinstance(data, dict):
        raise ValueError("operator document must be a JSON object")
    try:
        raw = data["eigenvalues"]
    except KeyError as exc:
        raise ValueError(f"operator document missing key {exc}") from None
    lam = np.array([pair_to_complex(p) for p in raw], dtype=np.complex128)
    d = int(data.get("dimension", lam.size))
    if lam.size != d:
        raise ValueError(
            f"dimension field is {d} but {lam.size} eigenvalues were given"
        )
    basis = None
    raw_basis = data.get("eigenbasis")
    if raw_basis is not None:
        if len(raw_basis) != d:
            raise ValueError("eigenbasis must have one column per eigenvalue")
        basis = np.empty((d, d), dtype=np.complex128)
        for j, col in enumerate(raw_basis):
            if len(col) != d:
                raise ValueError(f"eigenbasis column {j} has wrong length")
            basis[:, j] = [pair_to_complex(p) for p in col]
    tol = data.get("tolerance")
    return SpectralOperator(lam, basis, -1.0 if tol is None else float(tol))


def vectors_to_dict(G: VectorSet) -> dict:
    out = {
        "dimension": G.dimension,
        "vectors": [[complex_to_pair(x) for x in g] for g in G],
    }
    if G.labels is not None:
        out["labels"] = list(G.labels)
    return out


def vectors_from_dict(data: dict) -> VectorSet:
    if not isinstance(data, dict):
        raise ValueError("vector document must be a JSON object")
    try:
        raw = data["vectors"]
    except KeyError as exc:
        raise ValueError(f"vector document missing key {exc}") from None
    if not raw:
        raise ValueError("vector document contains no vectors")
    d = int(data.get("dimension", len(raw[0])))
    rows = []
    for i, vec in enumerate(raw):
        if len(vec) != d:
            raise ValueError(f"vector {i} has length {len(vec)}, expected {d}")
        rows.append([pair_to_complex(p) for p in vec])
    labels = data.get("labels")
    return VectorSet(np.array(rows, dtype=np.complex128),
                     None if labels is None else tuple(labels))


def load_operator(path) -> SpectralOperator:
    with open(path, "r", encoding="utf-8") as fh:
        return operator_from_dict(json.load(fh))


def save_operator(A: SpectralOperator, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(operator_to_dict(A), fh, indent=2)
        fh.write("\n")


def load_vectors(path) -> VectorSet:
    with open(path, "r", encoding="utf-8") as fh:
        return vectors_from_dict(json.load(fh))


def save_vectors(G: VectorSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(vectors_to_dict(G), fh, indent=2)
        fh.write("\n")
