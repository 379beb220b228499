"""Recovering a state from inner products with an evolving sensor family.

Measurements are <A^t f, g> = <f, (A^t)* g>, so the synthesis side works
with the conjugate-power orbit: the normal equations use the Gram of
{(A^t)* g : g in G, t in T} and the right-hand side sums the sampled values
against those vectors. Once ``frame_bounds`` has found that Gram to be a
frame operator, one direct LAPACK solve gives the state. Note (A^t)* is
built by conjugating the principal powers of the eigenvalues; it differs
from (A*)^t on the negative real axis, where conjugation does not flip the
branch argument -pi.

Both work on one m x n array of samples (generators by times): ``sample``
computes it in eigen-coordinates and returns it as ``Samples``, which
``reconstruct`` reads as it is.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch, DomainError, NotAFrame
from .analysis import FRAME, frame_bounds
from .gram import Gram, TimeGrid
from .spectral import SpectralOperator, VectorSet, _held, _not_bool, _power_profile, _product

__all__ = [
    "SampleRecord",
    "Samples",
    "ReconstructionResult",
    "sample",
    "reconstruct",
    "heat_cycle_operator",
]


class _SampleFields(NamedTuple):
    generator_index: int
    time: float
    value: complex


class SampleRecord(_SampleFields):
    """One measurement <A^t f, g>; generator indices are 1-based."""

    __slots__ = ()

    def __new__(cls, generator_index, time, value):
        if type(generator_index) is bool:  # not _not_bool: records come by the thousand
            raise TypeError(f"generator_index must be a number, not the bool {generator_index}")
        generator_index = operator.index(generator_index)
        if generator_index < 1:
            raise ValueError("generator_index is 1-based")
        return super().__new__(cls, generator_index, float(time), complex(value))


class Samples(Sequence):
    """Sample values on a time grid: ``values[g, i] = <A^{times[i]} f, g_{g+1}>``.

    ``values`` (m x n, complex) and the grid ``times`` (n) are finite, read-only
    arrays. As a sequence it holds the m * n ``SampleRecord``s,
    generator-major: all times of generator 1, then generator 2, and so on.
    Records are built only when read.
    """

    __slots__ = ("values", "times")

    def __init__(self, values, times):
        values = _held(values, np.complex128, "sample values")
        times = _held(times, np.float64, "sample times")
        if values.ndim != 2 or times.shape != values.shape[1:]:
            raise ValueError("samples need an m x n value array and n times")
        self.values, self.times = values, times

    @classmethod
    def from_records(cls, records: Sequence, generators: int) -> "Samples":
        """The records of ``generators`` generators, one per generator/time pair, in any order."""
        m, count = generators, len(records)
        if not count:
            raise ValueError("no samples given")

        def read(name):  # attrgetter reads in C; a generator runs a frame per record
            return map(operator.attrgetter(name), records)

        try:
            index = np.fromiter(read("generator_index"), np.int64, count)
        except OverflowError:  # an index beyond int64 is out of range; keep it exact
            index = np.array(list(read("generator_index")), dtype=object)
        times, column = np.unique(np.fromiter(read("time"), np.float64, count),
                                  return_inverse=True)
        n = times.size
        outside = (index < 1) | (index > m)
        if outside.any():
            raise ValueError(f"generator_index {index[outside][0]} outside 1..{m}")
        # slot k = (g - 1) * n + i counts the records of generator g at times[i]
        hits = np.bincount((index - 1) * n + column, minlength=m * n)
        if hits.max() > 1:
            g, i = divmod(int(np.argmax(hits > 1)), n)
            raise ValueError(f"duplicate sample for generator {g + 1} at t={float(times[i])}")
        missing = np.flatnonzero(hits == 0)[:3].tolist()
        if missing:
            pairs = [(k // n + 1, float(times[k % n])) for k in missing]
            raise ValueError(f"samples must cover all generator/time pairs; missing {pairs}")
        values = np.empty((m, n), dtype=np.complex128)
        values[index - 1, column] = np.fromiter(read("value"), np.complex128, count)
        return cls(values, times)

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        g, i = divmod(range(len(self))[k], self.times.size)
        return SampleRecord._make((g + 1, float(self.times[i]), complex(self.values[g, i])))

    def __iter__(self):
        m, n = self.values.shape
        return map(SampleRecord._make, zip(np.repeat(np.arange(1, m + 1), n).tolist(),
                                           np.tile(self.times, m).tolist(),
                                           self.values.ravel().tolist()))


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    estimate: np.ndarray
    residual: float
    solver_iterations: int = 0  # the solve is direct; kept for existing readers

    def __post_init__(self):
        est = np.asarray(self.estimate, dtype=np.complex128).reshape(-1)
        est = est.copy()
        est.setflags(write=False)
        object.__setattr__(self, "estimate", est)


def sample(A: SpectralOperator, G: VectorSet, f: np.ndarray, T: TimeGrid) -> Samples:
    """Measure <A^t f, g> for every generator and grid time of T.

    Raises ValueError for a non-finite state and DomainError when finite
    inputs give samples that overflow.
    """
    fv = np.asarray(f, dtype=np.complex128).reshape(-1)
    if fv.size != A.dimension or G.dimension != A.dimension:
        raise DimensionMismatch("state, generators and operator must share C^d")
    if not np.isfinite(fv).all():
        raise ValueError("state vectors must be finite")
    # values[g, i] = <lambda^{t_i} * fhat, ghat_g> in eigen-coordinates,
    # summed as (conj(ghat_g) * fhat) @ lambda^{t_i}; Samples checks the result
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.conj(A.to_eigenbasis(G.vectors)) * A.to_eigenbasis(fv)
        values = _product(coeffs, _power_profile(A, T.times).T)
    try:
        return Samples(values, T.times)
    except ValueError:  # the inputs are finite, so the values overflowed
        raise DomainError("sample values have non-finite entries (overflow)") from None


def reconstruct(
    A: SpectralOperator,
    G: VectorSet,
    samples: Sequence[SampleRecord],
    mode: str = "unweighted",
    L: Optional[float] = None,
    truth: Optional[np.ndarray] = None,
) -> ReconstructionResult:
    """Solve the normal equations of the sampling map.

    ``samples`` is what ``sample`` returns, or any sequence of records that
    covers the full generator-by-time product set, once each, in any order.
    A window length L makes the sample times a ``TimeGrid`` on [0, L], so
    they must start at 0, increase and stay below L. With mode="riemann"
    the terms are weighted by that grid's left-rule panel widths, so L is
    required; unweighted terms need no window. When ``truth`` is supplied the
    reported residual is the relative error against it; otherwise it is the
    relative normal-equation residual.

    Raises NotAFrame when the sampled system cannot determine the state,
    and DomainError when the projected samples, the estimate or its
    residual overflow.
    """
    if mode not in ("unweighted", "riemann"):
        raise ValueError(f"unknown mode {mode!r}")
    if not samples:
        raise ValueError("no samples given")
    if not (isinstance(samples, Samples) and len(samples.values) == len(G)):
        samples = Samples.from_records(samples, len(G))
    vals, times = samples.values, samples.times

    grid = None if L is None else TimeGrid(times, L)
    weights = None
    if mode == "riemann":
        if grid is None:
            raise ValueError("riemann weighting needs the window length L")
        weights = grid.riemann_weights()

    # analysis family in eigencoordinates: psi_hat = conj(lambda^t) * g_hat
    profile = _power_profile(A, times).conj()
    ghat = A.to_eigenbasis(G.vectors)
    # finite inputs can still overflow below; the Gram, b_hat and the answer are checked
    with np.errstate(over="ignore", invalid="ignore"):
        Q = (profile if weights is None else weights[:, None] * profile).T @ profile.conj()
        S_hat = (ghat.T @ np.conj(ghat)) * Q
        report = frame_bounds(Gram(S_hat, "discrete"))
        if report.classification != FRAME:
            raise NotAFrame(
                f"sampled system lower bound {report.lower:.3e} is below tolerance"
            )
        if weights is not None:
            vals = vals * weights
        b_hat = np.sum(ghat * _product(vals, profile), axis=0)
        if not np.isfinite(b_hat).all():
            raise DomainError("projected samples have non-finite entries (overflow)")

        x_hat = np.linalg.solve(S_hat, b_hat)
        x = A.from_eigenbasis(x_hat)

        if truth is not None:
            tv = np.asarray(truth, dtype=np.complex128).reshape(-1)
            if tv.size != x.size:
                raise DimensionMismatch("truth vector has the wrong length")
            if not np.isfinite(tv).all():
                raise ValueError("truth vector must be finite")
            if not tv.any():
                raise ValueError("truth vector must be nonzero")
            residual = _norm(x - tv) / _norm(tv)
        else:
            residual = _norm(S_hat @ x_hat - b_hat) / max(_norm(b_hat), 1e-300)
    if not (math.isfinite(residual) and np.isfinite(x).all()):
        raise DomainError("estimate or residual is non-finite (overflow)")
    return ReconstructionResult(estimate=x, residual=residual)


def _norm(v: np.ndarray) -> float:
    """||v||; where the sum of squares overflows or underflows, max|v| times ||v / max|v|||."""
    norm = float(np.linalg.norm(v))
    if not 0.0 < norm < math.inf:
        top = float(np.max(np.abs(v)))
        norm = top * float(np.linalg.norm(v / top)) if top else 0.0
    return norm


def heat_cycle_operator(d: int, diffusion: float) -> SpectralOperator:
    """Heat semigroup generator on the d-cycle graph.

    Eigenvalues are exp(-diffusion * (2 - 2 cos(2 pi k / d))) attached to the
    real Fourier basis (constant, cosine and sine pairs, and the alternating
    vector when d is even), which the operator stores real.
    """
    d = operator.index(_not_bool(d, "d"))
    if d < 2:
        raise ValueError("the cycle needs at least 2 vertices")
    diffusion = float(diffusion)
    if not 0.0 < diffusion < math.inf:
        raise ValueError("diffusion must be positive and finite")
    k = np.arange(d)
    lam = np.exp(-diffusion * (2.0 - 2.0 * np.cos(2.0 * np.pi * k / d)))
    j = np.arange(d)
    h = (d + 1) // 2
    basis = np.zeros((d, d))
    basis[:, 0] = 1.0 / math.sqrt(d)
    # cosines in columns 1 .. h - 1 and sines in columns d - 1 down to
    # d - h + 1, of the angles (2 pi kk) j / d for the wavenumbers kk = 1 ..
    # h - 1; built in place, so no half-basis temporary stays behind
    cos, sin = basis[:, 1:h], basis[:, :d - h:-1]
    np.multiply.outer(j, 2.0 * np.pi * np.arange(1, h), out=cos)
    cos /= d
    np.sin(cos, out=sin)
    np.cos(cos, out=cos)
    cos *= math.sqrt(2.0 / d)
    sin *= math.sqrt(2.0 / d)
    if d % 2 == 0:
        basis[:, d // 2] = np.where(j % 2 == 0, 1.0, -1.0) / math.sqrt(d)
    return SpectralOperator(lam, basis)
