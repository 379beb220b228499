"""Normal operators given by their spectral data, and principal powers.

Everything downstream works with an operator in diagonalized form:
``A = U diag(lambda) U*`` with orthonormal columns in ``U``. Continuous
powers ``A^t`` are defined entrywise on the spectrum through the principal
branch ``z^t = exp(t (ln|z| + i arg z))`` with ``arg z`` in ``[-pi, pi)``.
"""

from __future__ import annotations

import cmath
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


def branch_argument(z: complex) -> float:
    """Argument of z in [-pi, pi); the cut itself maps to -pi."""
    a = math.atan2(z.imag, z.real)
    return -math.pi if a == math.pi else a


def _branch_arguments(z: np.ndarray) -> np.ndarray:
    a = np.arctan2(z.imag, z.real)
    return np.where(a == np.pi, -np.pi, a)


def principal_power(z: complex, t: float) -> complex:
    """Principal-branch power z^t, with z^0 = 1 for every z.

    Raises DomainError for 0^t with t < 0.
    """
    z = complex(z)
    t = float(t)
    if t == 0.0:
        return 1.0 + 0.0j
    if z == 0:
        if t < 0:
            raise DomainError("0^t is undefined for t < 0")
        return 0.0 + 0.0j
    return cmath.exp(t * complex(math.log(abs(z)), branch_argument(z)))


def power_integral(z: complex, ell: float) -> complex:
    """Closed form of the integral of z^t dt over [0, ell], ell in (0, 1/2].

    The removable singularity at z = 1 (|ln z| <= 1e-12) returns ell; z = 0
    integrates to 0.
    """
    ell = float(ell)
    if not 0.0 < ell <= 0.5:
        raise DomainError("ell must lie in (0, 1/2]")
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    log_z = complex(math.log(abs(z)), branch_argument(z))
    if abs(log_z) <= _SMALL_EXPONENT:
        return complex(ell)
    return (cmath.exp(ell * log_z) - 1.0) / log_z


def pair_integral(lam: complex, mu: complex, L: float) -> complex:
    """Integral of lam^t conj(mu)^t dt over [0, L].

    The exponent is built from the two principal-branch arguments
    separately: alpha = ln|lam mu| + i (arg lam - arg mu). That choice is
    what makes the formula continuous on and off the branch cut (e.g.
    lam = mu = -1 gives alpha = 0 and the integral equals L).
    """
    L = float(L)
    if not L > 0:
        raise DomainError("interval length must be positive")
    lam = complex(lam)
    mu = complex(mu)
    if lam == 0 or mu == 0:
        return 0.0 + 0.0j
    alpha = complex(
        math.log(abs(lam)) + math.log(abs(mu)),
        branch_argument(lam) - branch_argument(mu),
    )
    if abs(alpha) <= _SMALL_EXPONENT:
        return complex(L)
    return (cmath.exp(L * alpha) - 1.0) / alpha


def pair_integral_matrix(eigenvalues: np.ndarray, L: float) -> np.ndarray:
    """Matrix P with P[j, k] = pair_integral(lambda_j, lambda_k, L)."""
    L = float(L)
    if not L > 0:
        raise DomainError("interval length must be positive")
    lam = np.asarray(eigenvalues, dtype=np.complex128)
    zero = lam == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        mod = np.log(np.abs(lam))
        arg = _branch_arguments(lam)
        alpha = (mod[:, None] + mod[None, :]) + 1j * (arg[:, None] - arg[None, :])
        small = np.abs(alpha) <= _SMALL_EXPONENT
        safe = np.where(small, 1.0, alpha)
        P = np.where(small, complex(L), (np.exp(L * alpha) - 1.0) / safe)
    if zero.any():
        P[zero, :] = 0.0
        P[:, zero] = 0.0
    return P


def _power_profile(eigenvalues: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Rows of principal powers: out[i, j] = lambda_j ^ t_i."""
    lam = np.asarray(eigenvalues, dtype=np.complex128)
    t = np.atleast_1d(np.asarray(times, dtype=np.float64))
    zero = lam == 0
    if zero.any() and (t < 0).any():
        raise DomainError("0^t is undefined for t < 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.abs(lam)) + 1j * _branch_arguments(lam)
        out = np.exp(np.multiply.outer(t, logs))
    if zero.any():
        out[:, zero] = 0.0
        at_zero = t == 0.0
        if at_zero.any():
            out[np.ix_(at_zero, zero)] = 1.0
    return out


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
            gram = basis.conj().T @ basis
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
        return v @ np.conj(self.eigenbasis)

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
    near ties merges into one group).
    """
    lam = A.eigenvalues
    d = lam.size
    parent = list(range(d))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(d):
        for j in range(i + 1, d):
            if abs(lam[i] - lam[j]) <= A.tolerance:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    groups: dict = {}
    for i in range(d):
        groups.setdefault(find(i), []).append(i)
    out = []
    for members in sorted(groups.values(), key=lambda m: m[0]):
        out.append(EigenGroup(complex(lam[members[0]]), tuple(members)))
    return out


def apply_power(A: SpectralOperator, t: float, f: np.ndarray) -> np.ndarray:
    """A^t f through the spectral decomposition."""
    fh = A.to_eigenbasis(np.asarray(f, dtype=np.complex128).reshape(-1))
    powered = _power_profile(A.eigenvalues, np.array([float(t)]))[0] * fh
    return A.from_eigenbasis(powered)


def apply_power_batch(A: SpectralOperator, times: Sequence[float], f: np.ndarray) -> np.ndarray:
    """Stack of A^t f for each t in times; row i is A^{times[i]} f."""
    fh = A.to_eigenbasis(np.asarray(f, dtype=np.complex128).reshape(-1))
    powered = _power_profile(A.eigenvalues, np.asarray(times, dtype=np.float64)) * fh
    return A.from_eigenbasis(powered)


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
