"""Normal operators given by their spectral data, and their principal powers.

Everything downstream works with an operator in diagonalized form:
``A = U diag(lambda) U*`` with orthonormal columns in ``U``. Continuous
powers ``A^t`` are defined entrywise on the spectrum through the principal
branch ``z^t = exp(t (ln|z| + i arg z))`` with ``arg z`` in ``[-pi, pi)``.

Two vectorised kernels compute every power and window integral in the
package: ``_power_profile`` (samples ``lambda^t``) and ``_window_integral``
(``(e^{L alpha} - 1) / alpha``, through ``expm1``). They are where an
overflowing power becomes a ``DomainError``. ``pair_integral`` is the one
scalar entry point, kept for single windows such as the Bessel constant and
the transfer bound.

A basis given with a real dtype (the Fourier basis of a heat diffusion, any
self-adjoint evolution with real eigenvectors) is stored as float64, a
complex one as complex128. A real basis takes half the bytes, and each
product with it is one real matrix product on the stacked real and
imaginary parts of the vectors, or on the real parts alone when the
vectors are real. ``to_eigenbasis`` multiplies only the basis rows where
some vector is nonzero, so one-hot sensors cost a row gather.

``group_eigenspaces`` labels each eigenvalue index with its group: near
ties within the tolerance, closed transitively, numbered by first index.
It bins the values into cells of side about the tolerance, so it compares
each value only with its neighbouring cells, and it joins a cell whose
values are all within the tolerance without comparing them.

JSON documents hold ``[re, im]`` pairs, and each array crosses that boundary
in one conversion, so a loaded basis is complex. A malformed document raises
``ValueError``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError

__all__ = [
    "SpectralOperator",
    "VectorSet",
    "apply_power_batch",
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

_ORTHONORMAL_TOL = 1e-8
# value pairs group_eigenspaces compares at once
_PAIR_SLICE = 1 << 18


def _env_tolerance(default: str) -> float:
    value = float(os.environ.get("DYNSAMP_TOL", default))
    if not 0.0 < value < math.inf:
        raise ValueError(f"DYNSAMP_TOL must be positive and finite, got {value!r}")
    return value


def default_tolerance() -> float:
    """Eigenvalue grouping tolerance; DYNSAMP_TOL overrides the 1e-10 default."""
    return _env_tolerance("1e-10")


def rank_tolerance_factor() -> float:
    """Relative rank cutoff factor; DYNSAMP_TOL overrides the 1e-9 default."""
    return _env_tolerance("1e-9")


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

    Computed as L expm1(z) / z with z = L alpha, so no e^z - 1 cancels as
    alpha nears 0 and the result keeps full relative precision there. Returns
    L where |z| < eps, where expm1(z) / z is 1 to rounding (and dividing by a
    subnormal z would overflow), and 0 where Re alpha = -inf (a zero
    eigenvalue); raises DomainError when a value overflows.
    """
    L = float(L)
    if not 0.0 < L < math.inf:
        raise DomainError("interval length must be positive and finite")
    with np.errstate(over="ignore", invalid="ignore"):
        z = L * alpha
        tiny = np.abs(z) < np.finfo(np.float64).eps
        out = L * (np.expm1(z) / np.where(tiny, 1.0, z))
    out = np.where(tiny, complex(L), np.where(alpha.real == -np.inf, 0.0, out))
    return _require_finite(out, "window integral")


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
    A basis with a real dtype is stored as float64, any other as complex128.
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
            real = np.isrealobj(basis)
            basis = np.asarray(basis, dtype=np.float64 if real else np.complex128)
            d = lam.size
            if basis.shape != (d, d):
                raise DimensionMismatch(
                    f"eigenbasis shape {basis.shape} does not match dimension {d}"
                )
            # a real basis, stored real or as complex, is checked in real
            # arithmetic, at a quarter of the flops of the complex product
            with np.errstate(invalid="ignore", over="ignore"):  # a non-finite or huge basis
                if real:
                    gram = basis.T @ basis
                elif basis.imag.any():
                    gram = basis.conj().T @ basis
                else:
                    gram = basis.real.T @ basis.real
            if not np.max(np.abs(gram - np.eye(d))) <= _ORTHONORMAL_TOL:  # NaN fails too
                if not np.isfinite(basis).all():
                    raise ValueError("eigenbasis must be finite")
                raise ValueError("eigenbasis columns are not orthonormal")
            basis = basis.copy()
            basis.setflags(write=False)
        object.__setattr__(self, "eigenbasis", basis)

        tol = self.tolerance
        if tol is None or tol < 0:
            tol = default_tolerance()
        if not 0 < tol < math.inf:
            raise ValueError("tolerance must be positive and finite")
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

    def to_eigenbasis(self, vecs: np.ndarray) -> np.ndarray:
        """Coordinates of vectors (last axis = C^d index) in the eigenbasis.

        Every state and generator enters the computations here, so this is
        where a NaN or inf vector is rejected with ``ValueError``. Only the
        basis rows where some vector is nonzero enter the product, so
        one-hot sensors cost a row gather.
        """
        v = np.asarray(vecs, dtype=np.complex128)
        d = self.dimension
        if v.shape[-1] != d:
            raise DimensionMismatch(f"vector length {v.shape[-1]} does not match dimension {d}")
        if not np.isfinite(v).all():
            raise ValueError("vectors must be finite")
        U = self.eigenbasis
        if U is None:
            return v.copy()
        if np.count_nonzero(v) < v.size:
            # a column that is zero in every vector adds nothing
            nz = np.flatnonzero(v.reshape(-1, d).any(axis=0))
            if nz.size < d:  # gathering every row would copy U
                v, U = v[..., nz], U[nz]
        if np.isrealobj(U):
            return _real_basis_product(v, U)
        # conj(conj(v) U) equals v conj(U) bit for bit, up to the sign of
        # zero parts, and copies v instead of the d x d basis
        out = np.conj(v) @ U
        return np.conj(out, out=out)

    def from_eigenbasis(self, coords: np.ndarray) -> np.ndarray:
        c = np.asarray(coords, dtype=np.complex128)
        if c.shape[-1] != self.dimension:
            raise DimensionMismatch(
                f"coordinate length {c.shape[-1]} does not match dimension {self.dimension}"
            )
        if self.eigenbasis is None:
            return c.copy()
        if np.isrealobj(self.eigenbasis):
            return _real_basis_product(c, self.eigenbasis.T)
        return c @ self.eigenbasis.T


def _real_basis_product(v: np.ndarray, U: np.ndarray) -> np.ndarray:
    """v @ U for complex v and real U as one real product.

    The real and imaginary rows of v are stacked above each other, so U
    is read once. U stays the right-hand operand: on the left, against
    the interleaved parts, the product is no faster than the complex one.
    Real vectors (one-hot sensors, real states) multiply their real rows
    only.
    """
    rows = v.reshape(math.prod(v.shape[:-1]), v.shape[-1])
    if rows.imag.any():
        n = rows.shape[0]
        parts = np.concatenate((rows.real, rows.imag)) @ U
        out = np.empty((n, U.shape[1]), dtype=np.complex128)
        out.real, out.imag = parts[:n], parts[n:]
    else:
        out = (rows.real @ U).astype(np.complex128)
    return out.reshape(*v.shape[:-1], U.shape[1])


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


def group_eigenspaces(A: SpectralOperator) -> np.ndarray:
    """Group label of each eigenvalue index, groups numbered by first index.

    Two indices share a group when their eigenvalues are within
    ``A.tolerance`` of each other, taking the transitive closure (a chain of
    near ties merges into one group). Group 0 holds index 0, and each next
    number goes to the group of the smallest index not yet labelled.

    Exact ties collapse first. The distinct values fall into square cells
    whose side is a power of two above tol, so a value's partners lie in
    its own cell or the eight around it. A cell, or two neighbouring cells,
    whose bounding box has a diagonal within tol is one group outright, so
    a dense near-tie cluster costs what its cells cost; the values of any
    other cell or pair of neighbours are compared one pair at a time.
    """
    lam, tol = A.eigenvalues, A.tolerance
    _, first, inverse = np.unique(lam, return_index=True, return_inverse=True)
    # node j is the j-th distinct value to appear, so the smallest node of a
    # component marks the group that comes first
    by_first = np.argsort(first)
    node = np.empty_like(by_first)
    node[by_first] = np.arange(by_first.size)
    z = lam[first[by_first]]
    # cells of side 2^e: a power of two, so every key is an exact floor;
    # above tol with room for the last bits of hypot, so partners are at
    # most one key apart; at least 2^-50 max|z|, so keys stay below 2^50
    # and key + 1 is exact too
    e = max(math.frexp(tol * (1.0 + 1e-12))[1],
            math.frexp(np.abs(z.view(np.float64)).max())[1] - 50)
    # complex keys sort lexicographically: column by column, row by row
    keys = np.floor(np.ldexp(z.real, -e)) + 1j * np.floor(np.ldexp(z.imag, -e))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # cell c holds the values order[start[c]:start[c] + count[c]]
    start = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    count = np.diff(start, append=keys.size)
    cells = keys[start]
    # each cell's neighbours above it and in the next column: up to three
    # consecutive cells from row ky + 1 of its column and from row ky - 1
    # of the next
    first_row = np.array([1j, 1 - 1j])[:, None] + cells
    near = np.searchsorted(cells, first_row)[..., None] + np.arange(3)
    q = np.minimum(near, cells.size - 1)
    dx, a, t = np.nonzero((near < cells.size) & (cells.real[q] == first_row.real[..., None])
                          & (cells.imag[q] <= cells.imag[:, None] + 1))
    b = q[dx, a, t]

    x, y = z.real[order], z.imag[order]
    lo_x, hi_x = np.minimum.reduceat(x, start), np.maximum.reduceat(x, start)
    lo_y, hi_y = np.minimum.reduceat(y, start), np.maximum.reduceat(y, start)

    def within_tol(a, b):
        # rounding is monotone, so no pair's gap exceeds the box's; the
        # margin covers the last bit of hypot
        width = np.maximum(hi_x[a], hi_x[b]) - np.minimum(lo_x[a], lo_x[b])
        height = np.maximum(hi_y[a], hi_y[b]) - np.minimum(lo_y[a], lo_y[b])
        return np.hypot(width, height) <= tol * (1.0 - 4.0 * np.finfo(np.float64).eps)

    every = np.arange(cells.size)
    own, both = within_tol(every, every), within_tol(a, b)
    # a cell within tol joins its values to its first, two cells their firsts
    mine = np.repeat(own, count)
    root = _join(np.arange(z.size), order[np.repeat(start, count)][mine], order[mine])
    root = _join(root, order[start[a[both]]], order[start[b[both]]])
    # any other cell or pair compares every value with every value, a
    # slice of pairs at a time to bound the memory it takes
    pa = np.concatenate((a[~both], every[~own]))
    pb = np.concatenate((b[~both], every[~own]))
    nb = count[pb]
    pairs = count[pa] * nb
    total = int(pairs.sum())
    for lo in range(0, total, _PAIR_SLICE):
        blk, k = _slots(pairs, lo, min(lo + _PAIR_SLICE, total))
        i = order[start[pa][blk] + k // nb[blk]]
        j = order[start[pb][blk] + k % nb[blk]]
        gap = z[i] - z[j]
        # hypot rounds like the scalar abs(); numpy's vectorised complex
        # abs can differ by an ulp and flip a tie that sits at the tolerance
        near_pair = np.hypot(gap.real, gap.imag) <= tol
        root = _join(root, i[near_pair], j[near_pair])
    # the roots, in increasing order, are the groups in order of first index
    label = np.cumsum(root == np.arange(z.size)) - 1
    return label[root][node[inverse]]


def _slots(sizes: np.ndarray, lo: int, hi: int) -> tuple:
    """Block and offset in it of slots lo..hi-1 of blocks of these sizes laid end to end."""
    ends = np.cumsum(sizes)
    slot = np.arange(lo, hi)
    blk = np.searchsorted(ends, slot, side="right")
    return blk, slot - (ends - sizes)[blk]


def _join(root: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Roots after adding edges (u, v) to a forest given as each node's root.

    A root is the smallest node of its component.
    """
    while True:
        ru, rv = root[u], root[v]
        cross = ru != rv
        if not cross.any():
            return root
        # hook each larger root under the smallest root it touches (any
        # smaller one would do, but a hub with many smaller neighbours would
        # then take one round per neighbour), then point every node at its root
        np.minimum.at(root, np.maximum(ru[cross], rv[cross]), np.minimum(ru[cross], rv[cross]))
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]


def apply_power_batch(A: SpectralOperator, times: Sequence[float], f: np.ndarray) -> np.ndarray:
    """Stack of A^t f for each t in times; row i is A^{times[i]} f.

    Powers are principal, with 0^0 = 1. Raises DomainError for 0^t with
    t < 0 and when a power overflows.
    """
    fh = A.to_eigenbasis(np.asarray(f, dtype=np.complex128).reshape(-1))
    return A.from_eigenbasis(_power_profile(A.eigenvalues, times) * fh)


# ---------------------------------------------------------------------------
# JSON interchange


def _to_pairs(z: np.ndarray) -> list:
    return np.stack((z.real, z.imag), -1).tolist()


def _from_pairs(raw, shape: tuple, what: str) -> np.ndarray:
    """Complex array of ``shape`` from nested [re, im] pairs, bit for bit; null is NaN."""
    try:
        pairs = np.array(raw, dtype=np.float64, order="C")
    except (TypeError, ValueError, OverflowError):  # ragged, non-numeric or huge
        pairs = np.empty(0)
    if pairs.shape != (*shape, 2):
        raise ValueError(f"{what} must be an array of {shape} [re, im] number pairs")
    return pairs.view(np.complex128)[..., 0]


def operator_to_dict(A: SpectralOperator) -> dict:
    return {
        "dimension": A.dimension,
        "eigenvalues": _to_pairs(A.eigenvalues),
        # the file lists the basis column by column
        "eigenbasis": None if A.eigenbasis is None else _to_pairs(A.eigenbasis.T),
        "tolerance": A.tolerance,
    }


def operator_from_dict(data: dict) -> SpectralOperator:
    if not isinstance(data, dict):
        raise ValueError("operator document must be a JSON object")
    try:
        raw = data["eigenvalues"]
    except KeyError as exc:
        raise ValueError(f"operator document missing key {exc}") from None
    if not isinstance(raw, list) or not raw:
        raise ValueError("eigenvalues must be a nonempty list of [re, im] pairs")
    d = len(raw)
    if data.get("dimension", d) != d:
        raise ValueError(f"dimension field is {data['dimension']} but {d} eigenvalues were given")
    lam = _from_pairs(raw, (d,), "eigenvalues")
    raw_basis, tol = data.get("eigenbasis"), data.get("tolerance")
    basis = None if raw_basis is None else _from_pairs(raw_basis, (d, d), "eigenbasis").T
    try:
        tol = -1.0 if tol is None else float(tol)
    except (TypeError, OverflowError):
        raise ValueError(f"tolerance must be a number, got {tol!r}") from None
    return SpectralOperator(lam, basis, tol)


def vectors_to_dict(G: VectorSet) -> dict:
    out = {"dimension": G.dimension, "vectors": _to_pairs(G.vectors)}
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
    if not (raw and isinstance(raw, list) and all(isinstance(vec, list) for vec in raw)):
        raise ValueError("vectors must be a nonempty list of lists of [re, im] pairs")
    d = data.get("dimension", len(raw[0]))
    for i, vec in enumerate(raw):
        if len(vec) != d:
            raise ValueError(f"vector {i} has length {len(vec)}, expected {d}")
    labels = data.get("labels")
    if not (labels is None or isinstance(labels, list)):
        raise ValueError("labels must be a list")
    return VectorSet(_from_pairs(raw, (len(raw), d), "vectors"), labels)


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
