"""Recovering a state from inner products with an evolving sensor family.

Measurements are <A^t f, g> = <f, (A^t)* g>, so the synthesis side works
with the conjugate-power orbit: the normal equations use the Gram of
{(A^t)* g : g in G, t in T} and the right-hand side sums the sampled values
against those vectors. Once ``frame_bounds`` has found that Gram to be a
frame operator, one direct LAPACK solve gives the state. Note (A^t)* is
built by conjugating the principal powers of the eigenvalues; it differs
from (A*)^t on the negative real axis, where conjugation does not flip the
branch argument -pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, NotAFrame
from .analysis import FRAME, frame_bounds
from .gram import TimeGrid
from .spectral import (
    SpectralOperator,
    VectorSet,
    _power_profile,
    apply_power_batch,
    complex_to_pair,
)

__all__ = [
    "SampleRecord",
    "ReconstructionResult",
    "sample",
    "reconstruct",
    "heat_cycle_operator",
    "samples_to_csv_rows",
    "samples_from_csv_rows",
    "samples_to_dicts",
]


@dataclass(frozen=True)
class SampleRecord:
    """One measurement <A^t f, g>; generator indices are 1-based."""

    generator_index: int
    time: float
    value: complex

    def __post_init__(self):
        if int(self.generator_index) < 1:
            raise ValueError("generator_index is 1-based")
        object.__setattr__(self, "generator_index", int(self.generator_index))
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "value", complex(self.value))


@dataclass(frozen=True)
class ReconstructionResult:
    estimate: np.ndarray
    residual: float
    solver_iterations: int = 0  # the solve is direct; kept for existing readers

    def __post_init__(self):
        est = np.asarray(self.estimate, dtype=np.complex128).reshape(-1)
        est = est.copy()
        est.setflags(write=False)
        object.__setattr__(self, "estimate", est)


def sample(A: SpectralOperator, G: VectorSet, f: np.ndarray, T: TimeGrid) -> list:
    """Measure <A^t f, g> for every generator and grid time.

    Records are generator-major (all times of generator 1, then generator 2,
    and so on), matching the CSV interchange layout.
    """
    fv = np.asarray(f, dtype=np.complex128).reshape(-1)
    if fv.size != A.dimension or G.dimension != A.dimension:
        raise DimensionMismatch("state, generators and operator must share C^d")
    orbit = apply_power_batch(A, T.times, fv)
    records = []
    for gi, g in enumerate(G, start=1):
        vals = orbit @ np.conj(g)
        records.extend(
            SampleRecord(gi, float(t), complex(v))
            for t, v in zip(T.times, vals)
        )
    return records


def reconstruct(
    A: SpectralOperator,
    G: VectorSet,
    samples: Sequence[SampleRecord],
    mode: str = "unweighted",
    L: Optional[float] = None,
    truth: Optional[np.ndarray] = None,
) -> ReconstructionResult:
    """Solve the normal equations of the sampling map.

    ``samples`` must cover the full generator-by-time product set. With
    mode="riemann" the terms are weighted by left-rule panel widths, which
    needs the window length L. When ``truth`` is supplied the reported
    residual is the relative error against it; otherwise it is the relative
    normal-equation residual.

    Raises NotAFrame when the sampled system cannot determine the state.
    """
    if mode not in ("unweighted", "riemann"):
        raise ValueError(f"unknown mode {mode!r}")
    if not samples:
        raise ValueError("no samples given")
    m = len(G)
    table = {}
    for rec in samples:
        if not 1 <= rec.generator_index <= m:
            raise ValueError(
                f"generator_index {rec.generator_index} outside 1..{m}"
            )
        key = (rec.generator_index, rec.time)
        if key in table:
            raise ValueError(f"duplicate sample for generator {key[0]} at t={key[1]}")
        table[key] = rec.value
    times = np.array(sorted({rec.time for rec in samples}))
    missing = [
        (gi, t) for gi in range(1, m + 1) for t in times if (gi, float(t)) not in table
    ]
    if missing:
        raise ValueError(
            f"samples must cover all generator/time pairs; missing {missing[:3]}"
        )

    if mode == "riemann":
        if L is None:
            raise ValueError("riemann weighting needs the window length L")
        grid = TimeGrid(times, float(L))
        weights = grid.riemann_weights()
    else:
        horizon = float(L) if L is not None else float(times[-1]) + 1.0
        grid = TimeGrid(times, horizon)
        weights = np.ones(times.size)

    # analysis family in eigencoordinates: psi_hat = conj(lambda^t) * g_hat
    profile = np.conj(_power_profile(A.eigenvalues, grid.times))
    S_hat = np.zeros((A.dimension, A.dimension), dtype=np.complex128)
    b_hat = np.zeros(A.dimension, dtype=np.complex128)
    for gi, g in enumerate(G, start=1):
        psi_hat = profile * A.to_eigenbasis(g)[None, :]
        S_hat += (weights[:, None] * psi_hat).T @ np.conj(psi_hat)
        vals = np.array([table[(gi, float(t))] for t in times])
        b_hat += (weights * vals) @ psi_hat
    report = frame_bounds(S_hat)
    if report.classification != FRAME:
        raise NotAFrame(
            f"sampled system lower bound {report.lower:.3e} is below tolerance"
        )

    x_hat = np.linalg.solve(S_hat, b_hat)
    x = A.from_eigenbasis(x_hat)

    if truth is not None:
        tv = np.asarray(truth, dtype=np.complex128).reshape(-1)
        if tv.size != x.size:
            raise DimensionMismatch("truth vector has the wrong length")
        residual = float(np.linalg.norm(x - tv) / max(np.linalg.norm(tv), 1e-300))
    else:
        residual = float(np.linalg.norm(S_hat @ x_hat - b_hat))
        residual /= max(float(np.linalg.norm(b_hat)), 1e-300)
    return ReconstructionResult(estimate=x, residual=residual)


def heat_cycle_operator(d: int, diffusion: float) -> SpectralOperator:
    """Heat semigroup generator on the d-cycle graph.

    Eigenvalues are exp(-diffusion * (2 - 2 cos(2 pi k / d))) attached to the
    real Fourier basis (constant, cosine and sine pairs, and the alternating
    vector when d is even).
    """
    d = int(d)
    if d < 2:
        raise ValueError("the cycle needs at least 2 vertices")
    diffusion = float(diffusion)
    if not diffusion > 0:
        raise ValueError("diffusion must be positive")
    k = np.arange(d)
    lam = np.exp(-diffusion * (2.0 - 2.0 * np.cos(2.0 * np.pi * k / d)))
    j = np.arange(d)
    basis = np.zeros((d, d))
    basis[:, 0] = 1.0 / math.sqrt(d)
    for kk in range(1, (d + 1) // 2):
        basis[:, kk] = math.sqrt(2.0 / d) * np.cos(2.0 * np.pi * kk * j / d)
        basis[:, d - kk] = math.sqrt(2.0 / d) * np.sin(2.0 * np.pi * kk * j / d)
    if d % 2 == 0:
        basis[:, d // 2] = np.where(j % 2 == 0, 1.0, -1.0) / math.sqrt(d)
    return SpectralOperator(lam, basis.astype(np.complex128))


# ---------------------------------------------------------------------------
# interchange helpers


def samples_to_csv_rows(records: Sequence[SampleRecord]) -> list:
    rows = [["generator_index", "time", "re", "im"]]
    for rec in records:
        rows.append(
            [rec.generator_index, rec.time, rec.value.real, rec.value.imag]
        )
    return rows


def samples_from_csv_rows(rows: Sequence[Sequence[str]]) -> list:
    records = []
    for i, row in enumerate(rows):
        if i == 0 and any(not _is_number(cell) for cell in row[1:]):
            continue  # header
        if len(row) != 4:
            raise ValueError(f"sample row {i} needs 4 columns, got {len(row)}")
        records.append(
            SampleRecord(int(float(row[0])), float(row[1]),
                         complex(float(row[2]), float(row[3])))
        )
    return records


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except (TypeError, ValueError):
        return False


def samples_to_dicts(records: Sequence[SampleRecord]) -> list:
    return [
        {
            "generator_index": rec.generator_index,
            "time": rec.time,
            "value": complex_to_pair(rec.value),
        }
        for rec in records
    ]
