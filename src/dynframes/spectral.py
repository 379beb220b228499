"""Normal operators given by their spectral data, and their principal powers.

Everything downstream works with an operator in diagonalized form:
``A = U diag(lambda) U*`` with orthonormal columns in ``U``. Continuous
powers ``A^t`` are defined entrywise on the spectrum through the principal
branch ``z^t = exp(t (ln|z| + i arg z))`` with ``arg z`` in ``[-pi, pi)``.

Two vectorised kernels compute every power and window integral in the
package: ``_power_profile`` (samples ``lambda^t``) and ``_window_integral``
(``(e^{L alpha} - 1) / alpha``, through ``expm1``). They are where an
overflowing power becomes a ``DomainError``. Both work on the spectrum's
principal log, which an operator lays out once and keeps (``_log``). Its
imaginary part is dropped when it is zero throughout, so a spectrum in
[0, inf), as of a heat diffusion, gives float64 powers and pair integrals,
and numpy carries that dtype through every product. ``pair_integral`` is
the one scalar entry point, kept for single windows such as the Bessel
constant and the transfer bound.

A basis given with a real dtype (the Fourier basis of a heat diffusion, any
self-adjoint evolution with real eigenvectors) is stored as float64, a
complex one as complex128. A real basis takes half the bytes, its
orthonormality product is a real one (``conj`` returns a real array as it
is), and each product with it is one real matrix product on the stacked
real and imaginary parts of the vectors, or on the real parts alone when
the vectors are real. When the vectors are nonzero in at most a quarter of
the coordinates, ``to_eigenbasis`` multiplies only those basis rows, so
one-hot sensors cost a row gather. Coordinates with no imaginary part come
back float64 on every route, a basis read from pairs included, as the log does.

``group_eigenspaces`` labels each eigenvalue index with its group: near
ties within the tolerance, closed transitively, numbered by first index.
It cuts the values into blocks at every gap wider than the tolerance along
either axis, joins a block that is flat or lies within the tolerance
without comparing its values, and compares each value of any other block
only with its neighbours along one axis. An operator lays its groups out
for the spanning test once and keeps them, like ``Gram.matrix``, so checks
of many sensor sets against one operator group it once.

JSON documents hold each array either as nested ``[re, im]`` pairs, the
hand-editable form, or as an object ``{"dtype", "shape", "base64"}`` with
the array's little-endian bytes, the form ``save_*`` write: numbers cross the
boundary as bytes, not as text, so a saved document loads without parsing
them and a real basis reloads float64. A malformed document raises
``ValueError``.
"""

from __future__ import annotations

import base64
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


def _held(values, dtype, what: str, one_axis: bool = False) -> np.ndarray:
    """A read-only C-order copy of values in dtype; ValueError unless every entry is finite
    and, with ``one_axis``, unless values is a scalar or has one axis."""
    out = np.array(values, dtype=dtype, order="C")
    if not np.isfinite(out).all():
        raise ValueError(f"{what} must be finite")
    if one_axis and out.ndim > 1:
        raise ValueError(f"{what} must lie on one axis, got shape {out.shape}")
    out.setflags(write=False)
    return out


def _not_bool(value, what: str):
    """value as given; TypeError for a bool, which is no count, length or tolerance."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{what} must be a number, not the bool {value!r}")
    return value


def _require_finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise DomainError(f"{what} has non-finite entries (overflowed powers)")
    return values


def _window_length(L) -> float:
    """L as a float; raises TypeError for a bool and DomainError unless 0 < L < inf."""
    L = float(_not_bool(L, "window length"))
    if not 0.0 < L < math.inf:
        raise DomainError("interval length must be positive and finite")
    return L


def _window_integral(alpha: np.ndarray, L) -> np.ndarray:
    """(e^{L alpha} - 1) / alpha elementwise: the integral of e^{t alpha} over [0, L].

    L is a length that ``_window_length`` has passed, or an array of them
    that broadcasts against alpha, so one call integrates over many windows.
    Computed as L expm1(z) / z with z = L alpha, so no e^z - 1 cancels as
    alpha nears 0 and the result keeps full relative precision there. Returns
    L where |z| < eps, where expm1(z) / z is 1 to rounding (and dividing by a
    subnormal z would overflow), and 0 where Re alpha = -inf (a zero
    eigenvalue); raises DomainError when a value overflows. The result keeps
    alpha's dtype, so the log of a spectrum in [0, inf) gives a real array.
    """
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
    lam = mu = -1 gives alpha = 0 and the integral equals L). Raises
    ValueError when lam or mu is NaN, inf or not a scalar.
    """
    L = _window_length(L)
    lam, mu = _held(lam, np.complex128, "lam"), _held(mu, np.complex128, "mu")
    for what, value in (("lam", lam), ("mu", mu)):
        if value.ndim:
            raise ValueError(f"{what} must be a scalar, got shape {value.shape}")
    return complex(_window_integral(_principal_log(lam) + np.conj(_principal_log(mu)), L))


def pair_integral_matrix(A: SpectralOperator, L: float) -> np.ndarray:
    """Matrix P with P[j, k] = pair_integral(lambda_j, lambda_k, L) over A's spectrum.

    Read off the operator's kept log ``A._log``, so float64 for a spectrum
    in [0, inf) and complex128 otherwise.
    """
    log = A._log
    return _window_integral(log[:, None] + log.conj()[None, :], _window_length(L))


@dataclass(frozen=True, eq=False)
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
        lam = _held(self.eigenvalues, np.complex128, "eigenvalues", one_axis=True).reshape(-1)
        if lam.size == 0:
            raise ValueError("operator needs at least one eigenvalue")
        object.__setattr__(self, "eigenvalues", lam)

        basis = self.eigenbasis
        if basis is not None:
            basis = np.asarray(basis, dtype=np.float64 if np.isrealobj(basis) else np.complex128)
            d = lam.size
            if basis.shape != (d, d):
                raise DimensionMismatch(
                    f"eigenbasis shape {basis.shape} does not match dimension {d}"
                )
            # conj returns a real basis as it is, so its product stays real and
            # the Gram is the one d x d array a real basis needs: its abs is
            # taken in place, and it is freed before the stored copy is made
            with np.errstate(invalid="ignore", over="ignore"):  # a non-finite or huge basis
                gram = basis.conj().T @ basis
            gram.flat[:: d + 1] -= 1.0
            error = np.max(np.abs(gram, out=gram if np.isrealobj(gram) else None))
            del gram
            if not error <= _ORTHONORMAL_TOL:  # NaN fails too
                if not np.isfinite(basis).all():
                    raise ValueError("eigenbasis must be finite")
                raise ValueError("eigenbasis columns are not orthonormal")
            basis = basis.copy()
            basis.setflags(write=False)
        object.__setattr__(self, "eigenbasis", basis)

        tol = default_tolerance() if self.tolerance is None else self.tolerance
        if not 0 < _not_bool(tol, "tolerance") < math.inf:
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
        """Coordinates of vectors (last axis = C^d index) in the eigenbasis, float64 if real.

        Every state and generator enters the computations here, so this is
        where a NaN or inf vector is rejected with ``ValueError``, and
        coordinates that overflow raise ``DomainError``. When at most a
        quarter of the coordinates are nonzero in some vector, only those
        basis rows enter the product, so one-hot sensors cost a row gather.
        """
        v = np.asarray(vecs, dtype=np.complex128)
        d = self.dimension
        if v.shape[-1] != d:
            raise DimensionMismatch(f"vector length {v.shape[-1]} does not match dimension {d}")
        U = self.eigenbasis
        if U is None:
            out = v.copy()
        else:
            if np.count_nonzero(v) < v.size:
                # a column that is zero in every vector adds nothing
                nz = np.flatnonzero(v.reshape(-1, d).any(axis=0))
                # the gather copies those rows of U, so it pays once most drop out: on one
                # BLAS thread, for 1-3 vectors at d = 512 and 2048, half the rows are no
                # faster than the full product and a quarter take 0.35-0.75 of its time
                if nz.size <= d // 4:
                    v, U = v[..., nz], U[nz]
            # finite vectors can still overflow in the product
            with np.errstate(over="ignore", invalid="ignore"):
                if np.isrealobj(U):
                    out = _product(v, U)
                else:
                    # conj(conj(v) U) equals v conj(U) bit for bit, up to the sign of
                    # zero parts, and copies v instead of the d x d basis
                    out = np.conj(v) @ U
                    np.conj(out, out=out)
        # one test on the result: a NaN or inf entry of v meets a nonzero basis row (the
        # gather keeps its column), so only then does v tell a bad input from overflow
        if not np.isfinite(out).all():
            if not np.isfinite(v).all():
                raise ValueError("vectors must be finite")
            raise DomainError("eigen-coordinates have non-finite entries (overflow)")
        if np.iscomplexobj(out) and not out.imag.any():
            out = out.real.copy()
        return out

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
        """The spectrum's principal log, read-only, laid out on first read.

        float64 (-inf at 0) when every argument is zero, that is for a
        spectrum in [0, inf); arg(-0.0) = pi, so a -0.0 keeps it complex.
        """
        log = _principal_log(self.eigenvalues)
        if not log.imag.any():
            log = log.real.copy()
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
    """v @ U for complex v; one real product when U is real.

    For a real U the real and imaginary rows of v are stacked above each
    other, so U is read once. U stays the right-hand operand: on the left,
    against the interleaved parts, the product is no faster than the
    complex one. Real vectors (one-hot sensors, real states) multiply their
    real rows only, and their product stays float64.
    """
    if not np.isrealobj(U):
        return v @ U
    rows = v.reshape(math.prod(v.shape[:-1]), v.shape[-1])
    if rows.imag.any():
        n = rows.shape[0]
        parts = np.concatenate((rows.real, rows.imag)) @ U
        out = np.empty((n, U.shape[1]), dtype=np.complex128)
        out.real, out.imag = parts[:n], parts[n:]
    else:
        out = rows.real @ U
    return out.reshape(*v.shape[:-1], U.shape[1])


@dataclass(frozen=True, eq=False)
class VectorSet:
    """Finite ordered family of vectors in C^d, stored as rows."""

    vectors: np.ndarray

    def __post_init__(self):
        v = _held(self.vectors, np.complex128, "vectors")
        if v.ndim == 1:
            v = v[None, :]
        if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] == 0:
            raise ValueError("vectors must form a nonempty 2-D array")
        object.__setattr__(self, "vectors", v)

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

    Powers are principal, with 0^0 = 1. Raises ValueError unless the times
    are finite and lie on one axis, and DomainError for 0^t with t < 0 and
    when a power overflows.
    """
    times = _held(times, np.float64, "times", one_axis=True)
    fh = A.to_eigenbasis(np.asarray(f, dtype=np.complex128).reshape(-1))
    return A.from_eigenbasis(_power_profile(A, times) * fh)


# ---------------------------------------------------------------------------
# JSON interchange


def _to_object(z: np.ndarray) -> dict:
    """The object form of z: its dtype, shape and little-endian bytes in base64."""
    z = np.ascontiguousarray(z, dtype=z.dtype.newbyteorder("<"))
    return {"dtype": z.dtype.str, "shape": list(z.shape),
            "base64": base64.b64encode(z).decode("ascii")}


def _fits(shape, expected: tuple) -> bool:
    return len(shape) == len(expected) and all(n in (None, k) for k, n in zip(shape, expected))


def _from_pairs(raw, shape: tuple, what: str, real: bool = False) -> np.ndarray:
    """Array of ``shape`` (``None`` matches any length) from either form, bit for bit.

    Nested [re, im] pairs give complex128, a JSON null read as NaN. The
    object form gives its own dtype, "<c16", or "<f8" where ``real`` allows
    it; its shape must be a list of ints that fits ``shape`` and its payload
    valid base64 of exactly that many items.
    """
    if isinstance(raw, dict):
        dtype, size = raw.get("dtype"), raw.get("shape")
        allowed = ("<c16", "<f8") if real else ("<c16",)
        if dtype not in allowed:
            raise ValueError(f"{what} dtype must be {' or '.join(allowed)}, got {dtype!r}")
        if not (isinstance(size, list) and all(type(n) is int and n >= 0 for n in size)
                and _fits(size, shape)):
            raise ValueError(f"{what} shape must be a list of ints matching {_dims(shape)}, "
                             f"got {size!r}")
        try:
            data = base64.b64decode(raw.get("base64"), validate=True)
        except (TypeError, ValueError):  # not a string, not ASCII, not base64
            raise ValueError(f"{what} payload must be a base64 string") from None
        expected = math.prod(size) * np.dtype(dtype).itemsize
        if len(data) != expected:
            raise ValueError(f"{what} payload holds {len(data)} bytes, expected {expected}")
        return np.frombuffer(data, dtype).reshape(size)
    try:
        pairs = np.array(raw, dtype=np.float64, order="C")
    except (TypeError, ValueError, OverflowError):  # ragged, non-numeric or huge
        pairs = np.empty(0)
    if pairs.shape[-1:] != (2,) or not _fits(pairs.shape[:-1], shape):
        raise ValueError(f"{what} must be an array of {_dims(shape)} [re, im] number pairs "
                         "or an array object")
    return pairs.view(np.complex128)[..., 0]


def _dims(shape: tuple) -> str:
    return " x ".join("n" if n is None else str(n) for n in shape)


def _stated_dimension(data: dict) -> Optional[int]:
    """A document's "dimension", None when absent; present, it must be a JSON integer."""
    d = data.get("dimension")
    if type(d) is not int and "dimension" in data:  # true, 2.0, null and "2" fail
        raise ValueError(f"dimension must be an integer, got {d!r}")
    return d


def operator_to_dict(A: SpectralOperator) -> dict:
    return {
        "dimension": A.dimension,
        "eigenvalues": _to_object(A.eigenvalues),
        # the file lists the basis column by column
        "eigenbasis": None if A.eigenbasis is None else _to_object(A.eigenbasis.T),
        "tolerance": A.tolerance,
    }


def operator_from_dict(data: dict) -> SpectralOperator:
    if not isinstance(data, dict):
        raise ValueError("operator document must be a JSON object")
    try:
        raw = data["eigenvalues"]
    except KeyError as exc:
        raise ValueError(f"operator document missing key {exc}") from None
    lam = _from_pairs(raw, (None,), "eigenvalues")
    d = lam.size
    if _stated_dimension(data) not in (None, d):
        raise ValueError(f"dimension field is {data['dimension']} but {d} eigenvalues were given")
    basis, tol = data.get("eigenbasis"), data.get("tolerance")
    if basis is not None:
        basis = _from_pairs(basis, (d, d), "eigenbasis", real=True).T
    if tol is not None and (isinstance(tol, bool) or not isinstance(tol, (int, float))):
        raise ValueError(f"tolerance must be a number, got {tol!r}")
    try:
        tol = None if tol is None else float(tol)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"tolerance must be a number, got {tol!r}") from None
    return SpectralOperator(lam, basis, tol)


def vectors_to_dict(G: VectorSet) -> dict:
    return {"dimension": G.dimension, "vectors": _to_object(G.vectors)}


def vectors_from_dict(data: dict) -> VectorSet:
    if not isinstance(data, dict):
        raise ValueError("vector document must be a JSON object")
    try:
        raw = data["vectors"]
    except KeyError as exc:
        raise ValueError(f"vector document missing key {exc}") from None
    d = _stated_dimension(data)
    if not isinstance(raw, dict):
        # nested pairs: name the first vector of another length
        if not (raw and isinstance(raw, list) and all(isinstance(vec, list) for vec in raw)):
            raise ValueError("vectors must be a nonempty list of lists of [re, im] pairs "
                             "or an array object")
        d = len(raw[0]) if d is None else d
        for i, vec in enumerate(raw):
            if len(vec) != d:
                raise ValueError(f"vector {i} has length {len(vec)}, expected {d}")
    return VectorSet(_from_pairs(raw, (None, d), "vectors"))


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
