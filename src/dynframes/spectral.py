"""Normal operators given by their spectral data, and their principal powers.

Everything downstream works with an operator in diagonalized form:
``A = U diag(lambda) U*`` with orthonormal columns in ``U``. Continuous
powers ``A^t`` are defined entrywise on the spectrum through the principal
branch ``z^t = exp(t (ln|z| + i arg z))`` with ``arg z`` in ``[-pi, pi)``.

Two vectorised kernels compute every power and window integral in the
package: ``_power_profile`` (samples ``lambda^t``) and ``_window_integral``
(``(e^{L alpha} - 1) / alpha``, through ``expm1``). They are where an
overflowing power becomes a ``DomainError``. Both work on the spectrum's
principal log, which an operator lays out once and keeps (``_log``): the
float64 ``ln lambda`` (-inf at 0) when every eigenvalue is real and
nonnegative, as for a heat diffusion, so the powers and pair integrals are
float64 too, and the complex principal log otherwise. ``pair_integral`` is
the one scalar entry point, kept for single windows such as the Bessel
constant and the transfer bound.

A basis given with a real dtype (the Fourier basis of a heat diffusion, any
self-adjoint evolution with real eigenvectors) is stored as float64, a
complex one as complex128. A real basis takes half the bytes, and each
product with it is one real matrix product on the stacked real and
imaginary parts of the vectors, or on the real parts alone when the
vectors are real. When the vectors are nonzero in at most a quarter of
the coordinates, ``to_eigenbasis`` multiplies only those basis rows, so
one-hot sensors cost a row gather.

``group_eigenspaces`` labels each eigenvalue index with its group: near
ties within the tolerance, closed transitively, numbered by first index.
It cuts the values into blocks at every gap wider than the tolerance along
either axis, joins a block that is flat or lies within the tolerance
without comparing its values, and compares each value of any other block
only with its neighbours along one axis. An operator lays its groups out
for the spanning test once and keeps them, like ``Gram.matrix``, so checks
of many sensor sets against one operator group it once.

JSON documents hold ``[re, im]`` pairs, and each array crosses that boundary
in one conversion, so a loaded basis is complex. A malformed document raises
``ValueError``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
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


def _spectrum_log(eigenvalues) -> np.ndarray:
    """float64 ln(lambda), -inf at 0, for a spectrum in [0, inf); else ``_principal_log``.

    The real log is the real part of the complex one, whose imaginary part is 0 there.
    """
    lam = np.asarray(eigenvalues, dtype=np.complex128)
    if lam.imag.any() or (lam.real < 0).any():
        return _principal_log(lam)
    with np.errstate(divide="ignore"):
        return np.log(lam.real)


def _require_finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise DomainError(f"{what} has non-finite entries (overflowed powers)")
    return values


def _window_length(L) -> float:
    """L as a float; raises DomainError unless 0 < L < inf."""
    L = float(L)
    if not 0.0 < L < math.inf:
        raise DomainError("interval length must be positive and finite")
    return L


def _window_integral(alpha: np.ndarray, L: float) -> np.ndarray:
    """(e^{L alpha} - 1) / alpha elementwise: the integral of e^{t alpha} over [0, L].

    Computed as L expm1(z) / z with z = L alpha, so no e^z - 1 cancels as
    alpha nears 0 and the result keeps full relative precision there. Returns
    L where |z| < eps, where expm1(z) / z is 1 to rounding (and dividing by a
    subnormal z would overflow), and 0 where Re alpha = -inf (a zero
    eigenvalue); raises DomainError when a value overflows. The result keeps
    alpha's dtype, so the log of a spectrum in [0, inf) gives a real array.
    """
    L = _window_length(L)
    with np.errstate(over="ignore", invalid="ignore"):
        z = L * alpha
        tiny = np.abs(z) < np.finfo(np.float64).eps
        out = L * (np.expm1(z) / np.where(tiny, 1.0, z))
    out = np.where(tiny, L, np.where(alpha.real == -np.inf, 0.0, out))
    return _require_finite(out, "window integral")


def _power_profile(A: SpectralOperator, times) -> np.ndarray:
    """Rows of principal powers: out[i, j] = lambda_j ^ t_i, with 0^0 = 1.

    Read off the operator's kept log ``A._log``, so the rows are float64
    for a spectrum in [0, inf) and complex128 otherwise. Raises DomainError
    for 0^t with t < 0 and when a power overflows.
    """
    log = A._log
    t = np.atleast_1d(np.asarray(times, dtype=np.float64))
    zero = log.real == -np.inf
    has_zero = zero.any()
    if has_zero and (t < 0).any():
        raise DomainError("0^t is undefined for t < 0")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(np.multiply.outer(t, log))
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
    """Matrix P with P[j, k] = pair_integral(lambda_j, lambda_k, L).

    float64 when every eigenvalue is real and nonnegative, complex128 otherwise.
    """
    log = _spectrum_log(eigenvalues)
    return _window_integral(log[:, None] + np.conj(log)[None, :], L)


@dataclass(frozen=True)
class SpectralOperator:
    """A normal operator on C^d stored as eigenvalues plus eigenbasis.

    ``eigenbasis=None`` means the standard basis (the operator is diagonal).
    A basis with a real dtype is stored as float64, any other as complex128.
    ``tolerance`` controls eigenvalue grouping and invertibility decisions;
    ``None`` means 1e-10 (or the DYNSAMP_TOL environment override), and
    any other value must be positive and finite.
    """

    eigenvalues: np.ndarray
    eigenbasis: Optional[np.ndarray] = None
    tolerance: Optional[float] = None

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

        tol = default_tolerance() if self.tolerance is None else self.tolerance
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
        where a NaN or inf vector is rejected with ``ValueError``. When at
        most a quarter of the coordinates are nonzero in some vector, only
        those basis rows enter the product, so one-hot sensors cost a row
        gather.
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
            # the gather copies those rows of U, so it pays once most drop out: on one
            # BLAS thread, for 1-3 vectors at d = 512 and 2048, half the rows are no
            # faster than the full product and a quarter take 0.35-0.75 of its time
            if nz.size <= d // 4:
                v, U = v[..., nz], U[nz]
        if np.isrealobj(U):
            return _real_basis_product(v, U)
        # conj(conj(v) U) equals v conj(U) bit for bit, up to the sign of
        # zero parts, and copies v instead of the d x d basis
        out = np.conj(v) @ U
        return np.conj(out, out=out)

    @cached_property
    def _eigenspaces(self) -> tuple:
        """The groups of ``group_eigenspaces``, laid out on first read, then kept.

        They depend only on the eigenvalues and the tolerance, both fixed at
        construction, and are freed with the operator. In order of first
        index, (values, indices, sizes, blocks): each group's eigenvalue at
        its first index, its indices in ascending order and their count, and
        one (groups, rows) pair of read-only arrays per group size, the
        numbers of the groups of that size and a (k, size) array whose row i
        lists the indices of the i-th of them.
        """
        labels = group_eigenspaces(self)
        sizes = np.bincount(labels)
        # the indices of each group in ascending order, group after group
        members = np.argsort(labels, kind="stable")
        start = np.cumsum(sizes) - sizes
        blocks = []
        for size in np.unique(sizes).tolist():
            which = np.flatnonzero(sizes == size)
            rows = members[start[which, None] + np.arange(size)]
            which.setflags(write=False)
            rows.setflags(write=False)
            blocks.append((which, rows))
        flat = members.tolist()
        return (
            tuple(self.eigenvalues[members[start]].tolist()),
            tuple(tuple(flat[i:i + n]) for i, n in zip(start.tolist(), sizes.tolist())),
            tuple(sizes.tolist()),
            tuple(blocks),
        )

    @cached_property
    def _log(self) -> np.ndarray:
        """The spectrum's principal log (``_spectrum_log``), read-only, laid out on first read."""
        log = _spectrum_log(self.eigenvalues)
        log.setflags(write=False)
        return log

    def from_eigenbasis(self, coords: np.ndarray) -> np.ndarray:
        c = np.asarray(coords, dtype=np.complex128)
        if c.shape[-1] != self.dimension:
            raise DimensionMismatch(
                f"coordinate length {c.shape[-1]} does not match dimension {self.dimension}"
            )
        if self.eigenbasis is None:
            return c.copy()
        return _product(c, self.eigenbasis.T)


def _product(v: np.ndarray, U: np.ndarray) -> np.ndarray:
    """v @ U for complex v, as ``_real_basis_product`` when U is real."""
    return _real_basis_product(v, U) if np.isrealobj(U) else v @ U


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


# a gap between values near -+max float overflows to inf, beyond any tol
@np.errstate(over="ignore")
def group_eigenspaces(A: SpectralOperator) -> np.ndarray:
    """Group label of each eigenvalue index, groups numbered by first index.

    Two indices share a group when their eigenvalues are within
    ``A.tolerance`` of each other, taking the transitive closure (a chain of
    near ties merges into one group). Group 0 holds index 0, and each next
    number goes to the group of the smallest index not yet labelled.

    Exact ties collapse first. The distinct values are then cut into blocks
    along the real and the imaginary axis in turn, at every gap wider than
    tol, until a pass cuts nothing. A block that is flat along one axis, or
    whose bounding box has a diagonal within tol, is one group outright;
    in any other block each value is compared with the values after it
    along the last axis, up to 2 tol further.
    """
    lam, tol = A.eigenvalues, A.tolerance
    _, first, inverse = np.unique(lam, return_index=True, return_inverse=True)
    # node j is the j-th distinct value to appear, so the smallest node of a
    # component marks the group that comes first
    by_first = np.argsort(first)
    node = np.empty_like(by_first)
    node[by_first] = np.arange(by_first.size)
    z = lam[first[by_first]]
    # rounding is monotone and the distance is at least the gap along
    # either axis, so no pair across a cut is within tol; each pass that
    # goes on adds a block, so the passes end
    block = np.zeros(z.size, dtype=np.intp)
    for k in itertools.count():
        x = z.imag if k % 2 else z.real
        order = np.lexsort((x, block))
        cut = (np.diff(block[order]) > 0) | (np.diff(x[order]) > tol)
        if k and np.count_nonzero(cut) == block[order[-1]]:  # no new cut
            break
        block[order] = np.cumsum(np.concatenate(([0], cut)))
    # block c holds the values order[start[c]:start[c] + count[c]], sorted
    # along the last axis
    start = np.flatnonzero(np.concatenate(([True], cut)))
    count = np.diff(start, append=z.size)
    re, im = z.real[order], z.imag[order]
    width = np.maximum.reduceat(re, start) - np.minimum.reduceat(re, start)
    height = np.maximum.reduceat(im, start) - np.minimum.reduceat(im, start)
    # a block flat along one axis is a chain of gaps within tol along the
    # other; in a box within tol no pair's gap exceeds the box's, and the
    # margin covers the last bit of hypot
    whole = ((width == 0) | (height == 0)
             | (np.hypot(width, height) <= tol * (1.0 - 4.0 * np.finfo(np.float64).eps)))
    joined = np.repeat(whole, count)
    root = _join(np.arange(z.size), order[np.repeat(start, count)][joined], order[joined])
    # a partner lies within 2 tol along the last axis, whatever the
    # rounding of x + tol; keys sort as (block, x)
    keys = block[order] + 1j * x[order]
    end = np.searchsorted(keys, keys + 2j * tol, side="right")
    live = np.flatnonzero(~joined)
    for step in itertools.count(1):
        live = live[live + step < end[live]]
        if not live.size:
            break
        i, j = order[live], order[live + step]
        gap = z[i] - z[j]
        # hypot rounds like the scalar abs(); numpy's vectorised complex
        # abs can differ by an ulp and flip a tie that sits at the tolerance
        near = np.hypot(gap.real, gap.imag) <= tol
        root = _join(root, i[near], j[near])
    # the roots, in increasing order, are the groups in order of first index
    label = np.cumsum(root == np.arange(z.size)) - 1
    return label[root][node[inverse]]


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
    return A.from_eigenbasis(_power_profile(A, times) * fh)


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
        tol = None if tol is None else float(tol)
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
