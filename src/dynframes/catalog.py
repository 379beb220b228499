"""Built-in reproducible model systems with self-checking runs.

Each entry builds a small named system, recomputes the quantities it is
known for, checks them against independent closed forms where those exist,
and returns human-readable lines plus a pass flag. Entry names are stable
identifiers used by the command line (``repro`` subcommand) and the tests.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .analysis import FRAME, completeness_check, frame_bounds
from .discretize import find_discretization, verify_discrete_implies_semicont
from .gram import TimeGrid, bessel_sum, discrete_gram, semicont_gram
from .spectral import SpectralOperator, VectorSet, _not_bool, _window_length

__all__ = [
    "CatalogEntry",
    "repro_catalog",
    "run_entry",
    "decaying_reciprocal_system",
    "two_level_overlap_system",
    "shifted_pair_system",
    "gap_pair_system",
    "gaussian_decay_system",
]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    claim: str
    runner: Callable


def gap_pair_system(eps: float):
    """2x2 diagonal operator diag(1, 1-eps) with the single generator (1, 1)."""
    A = SpectralOperator(np.array([1.0, 1.0 - eps], dtype=complex))
    G = VectorSet(np.array([[1.0, 1.0]], dtype=complex))
    return A, G


def decaying_reciprocal_system(d: int):
    """diag(1/j) with the standard basis as generators."""
    j = np.arange(1, d + 1)
    A = SpectralOperator((1.0 / j).astype(complex))
    G = VectorSet(np.eye(d, dtype=complex))
    return A, G


def two_level_overlap_system(d: int):
    """Alternating diag(1, 3, 1, 3, ...) with overlapping pairs e_n + e_{n+1}."""
    lam = np.where(np.arange(1, d + 1) % 2 == 1, 1.0, 3.0)
    A = SpectralOperator(lam.astype(complex))
    vecs = np.zeros((d - 1, d), dtype=complex)
    for n in range(d - 1):
        vecs[n, n] = 1.0
        vecs[n, n + 1] = 1.0
    return A, VectorSet(vecs)


def shifted_pair_system(d: int):
    """diag(9, 1-1/2, ..., 1-1/d) with generators e_n + 2 e_{n+1}.

    The generators alone miss the alternating vector sum_k (-2)^{-k} e_k,
    so a second sample time is what makes this system a frame.
    """
    lam = np.array([9.0] + [1.0 - 1.0 / n for n in range(2, d + 1)], dtype=complex)
    A = SpectralOperator(lam)
    vecs = np.zeros((d - 1, d), dtype=complex)
    for n in range(d - 1):
        vecs[n, n] = 1.0
        vecs[n, n + 1] = 2.0
    return A, VectorSet(vecs)


def gaussian_decay_system(d: int):
    """diag(e^{-n^2}) with generators n e_n and the probe state sum (1/n) e_n."""
    n = np.arange(1, d + 1)
    A = SpectralOperator(np.exp(-(n.astype(float) ** 2)).astype(complex))
    G = VectorSet(np.diag(n.astype(complex)))
    f = (1.0 / n).astype(complex)
    return A, G, f


def _reciprocal_decay_entry(k: int, L: float) -> float:
    """Closed form of the k-th diagonal Gram entry of diag(1/j): (1 - k^(-2L)) / (2 ln k)."""
    return (1.0 - k ** (-2.0 * L)) / (2.0 * math.log(k))


# ---------------------------------------------------------------------------
# entry runners


def _run_frlrbd(d: int, L: Optional[float]):
    L = 1.0 if L is None else L
    ok = True
    lines = []
    for eps in (0.9, 0.5, 0.25, 0.1, 0.01):
        A, G = gap_pair_system(eps)
        rep = frame_bounds(semicont_gram(A, G, L))
        ok = ok and rep.classification == FRAME
        lines.append(
            f"eps={eps:<5}: bounds [{rep.lower:.6f}, {rep.upper:.6f}]"
            f"  cond={rep.condition_number:.1f}  {rep.classification}"
        )
    A, G = gap_pair_system(0.25)
    f = np.array([-1.0, 1.0], dtype=complex)
    inner = complex(np.vdot(G.vectors[0], f))
    ok = ok and inner == 0
    lines.append(f"probe (-1, 1) against the generator: <f, g> = {inner.real:g}")
    zero_grid = TimeGrid(np.array([0.0]), L)
    at_zero = frame_bounds(discrete_gram(A, G, zero_grid))
    ok = ok and at_zero.classification != FRAME and at_zero.lower <= 1e-12
    lines.append(
        f"single time t=0: lower bound {at_zero.lower:.3e} ({at_zero.classification});"
        " the window is what rescues the system"
    )
    cert = completeness_check(A, G)
    ok = ok and cert.complete
    lines.append(f"orbit completeness over the window: {cert.complete}")
    found = find_discretization(A, G, L, target_ratio=0.5)
    lines.append(
        f"doubling search at eps=0.25: n={len(found.grid)} points, "
        f"delta={found.delta_used:g}, unweighted bounds "
        f"[{found.report.lower:.6f}, {found.report.upper:.6f}]"
    )
    return ok, lines


def _run_4_4(d: int, L: Optional[float]):
    L = 1.0 if L is None else L
    A, G, f = gaussian_decay_system(d)
    measured = bessel_sum(A, G, L, f)
    # modes whose eigenvalue e^{-n^2} underflows to zero carry no energy in
    # this arithmetic, so the reference series drops them too
    alive = [n for n in range(1, d + 1) if math.exp(-float(n * n)) > 0.0]
    series = sum(
        (1.0 - math.exp(-2.0 * L * n * n)) / (2.0 * n * n) for n in alive
    )
    energy = float(np.vdot(f, f).real)
    ok = abs(measured - series) <= 1e-10 and measured <= 0.5 * energy
    lines = [
        f"windowed energy sum at d={d}: {measured:.12f}",
        f"independent scalar series:    {series:.12f}  (|diff| = {abs(measured - series):.2e})",
        f"half the state energy: {0.5 * energy:.12f}  (sum stays below it)",
    ]
    if len(alive) < d:
        lines.append(
            f"modes beyond n={alive[-1]} sit below the floating-point floor "
            "and are counted as silent"
        )
    growth = [(dd, dd * (dd + 1) * (2 * dd + 1) // 6)
              for dd in dict.fromkeys((8, 16, 32, d)) if dd <= d]
    ok = ok and all(b[1] > a[1] for a, b in zip(growth, growth[1:]))
    lines.append(
        "generator energy sum n(n+1)(2n+1)/6 grows without bound: "
        + ", ".join(f"d={dd}: {s}" for dd, s in growth)
    )
    lines.append(
        f"tail beyond n={d}: remaining terms total less than 1/(2d) = {1.0 / (2 * d):.2e}"
    )
    return ok, lines


def _run_5_2(d: int, L: Optional[float]):
    L = 1.0 if L is None else L
    A, G = decaying_reciprocal_system(d)
    result = find_discretization(A, G, L, target_ratio=0.9)
    lines = [
        f"doubling search at d={d}: accepted n={len(result.grid)} uniform points "
        f"(delta={result.delta_used:g}, {result.iterations} iterations)",
        f"unweighted discrete bounds [{result.report.lower:.6f}, "
        f"{result.report.upper:.6f}] ({result.report.classification})",
        "note: the left-rule weighted bound overshoots the window integral for "
        "decaying spectra, so small n already captures the target fraction",
    ]
    ok = result.report.classification == FRAME
    decay = [(dd, _reciprocal_decay_entry(dd, L))
             for dd in dict.fromkeys((8, 16, 32, 64, d)) if dd <= d]
    lines.append(
        "continuous lower bound decays with dimension: "
        + ", ".join(f"d={dd}: {lo:.5f}" for dd, lo in decay)
    )
    ok = ok and all(b[1] < a[1] for a, b in zip(decay, decay[1:]))
    lines.append("no dimension-free discretization exists for this family")
    return ok, lines


def _run_5_3(d: int, L: Optional[float]):
    L = 1.0 if L is None else L
    A, G = decaying_reciprocal_system(d)
    S = semicont_gram(A, G, L).matrix
    lines = [f"diagonal Gram entries at d={d}, L={L:g} against the closed form:"]
    ok = True
    ks = [k for k in (2, 4, 8, 16, 32, 64) if k <= d]
    closed = [_reciprocal_decay_entry(k, L) for k in ks]
    final = None
    for k, entry in zip(ks, closed):
        computed = float(S[k - 1, k - 1].real)
        ok = ok and abs(computed - entry) <= 1e-12
        final = computed
        lines.append(f"  k={k:<3} computed {computed:.10f}  closed {entry:.10f}")
    ok = ok and all(b < a for a, b in zip(closed, closed[1:]))
    lines.append(f"final row value {final:.4f}; the minimum keeps falling with d")
    lines.append("tail: entries decay like 1/(2 ln k), so no positive lower bound survives")
    return ok, lines


def _run_5_4(d: int, L: Optional[float]):
    L = 1.0 if L is None else L
    A, G = two_level_overlap_system(d)
    rep = frame_bounds(semicont_gram(A, G, L))
    cap = 16.0 / math.log(3.0)
    ok = rep.classification == FRAME and rep.upper <= cap + 1e-9
    lines = [
        f"advertised window: (1/2)||f||^2 <= energy <= (16/ln 3)||f||^2 = "
        f"[0.5, {cap:.4f}]",
        f"measured bounds at d={d}: [{rep.lower:.6f}, {rep.upper:.6f}] "
        f"({rep.classification})",
        "upper constant confirmed with room to spare; the advertised lower "
        "constant 1/2 is not attained: the sharp lower bound for this family "
        "stabilizes near 0.1353 (the minimizing vector localizes at the "
        "boundary generator, so this is not a truncation artifact)",
    ]
    return ok, lines


def _run_5_5(d: int, L: Optional[float]):
    L = 2.0 if L is None else L
    A, G = shifted_pair_system(d)
    zero_only = frame_bounds(discrete_gram(A, G, TimeGrid(np.array([0.0]), L)))
    lines = [
        f"time-0 samples alone: lower bound {zero_only.lower:.3e} "
        f"({zero_only.classification}; d-1 generators cannot span C^d)"
    ]
    T = TimeGrid(np.array([0.0, 1.0]), L)
    disc = frame_bounds(discrete_gram(A, G, T))
    ok = (
        disc.classification == FRAME
        and 0.25 <= disc.lower
        and disc.upper <= 164.0
    )
    lines.append(
        f"two times {{0, 1}} at d={d}: bounds [{disc.lower:.6f}, {disc.upper:.6f}]"
        " inside the advertised [0.25, 164]"
    )
    cont, analytic = verify_discrete_implies_semicont(A, G, T, L)
    ok = ok and 0.0 < analytic <= cont.lower + 1e-9
    lines.append(
        f"window [0, {L:g}] bounds [{cont.lower:.6f}, {cont.upper:.6f}]; "
        f"analytic transfer bound {analytic:.6f} <= computed lower"
    )
    return ok, lines


_ENTRIES = (
    CatalogEntry(
        "example-frlrbd",
        "2x2 gap system: one generator, orthogonal probe, window rescue",
        "semi-continuous frame in R^2 although <f, g> = 0 for f = (-1, 1)",
        _run_frlrbd,
    ),
    CatalogEntry(
        "example-4.4",
        "Gaussian-decay diagonal family with growing generators",
        "windowed energy sum stays below ||f||^2 / 2 while sum ||g_n||^2 diverges",
        _run_4_4,
    ),
    CatalogEntry(
        "example-5.2",
        "reciprocal-decay diagonal family: discretization search",
        "doubling search terminates for each fixed d; the continuous lower bound decays in d",
        _run_5_2,
    ),
    CatalogEntry(
        "example-5.3",
        "reciprocal-decay diagonal family: Gram diagonal closed form",
        "diagonal entries match (1 - k^{-2L}) / (2 ln k) and their minimum falls with d",
        _run_5_3,
    ),
    CatalogEntry(
        "example-5.4",
        "two-level alternating family with overlapping pair generators",
        "frame with upper constant 16/ln 3; measured sharp lower constant near 0.1353",
        _run_5_4,
    ),
    CatalogEntry(
        "example-5.5",
        "shifted-pair family: two sample times repair an incomplete time-0 system",
        "discrete bounds within [1/4, 164] at d = 64 and the transfer bound certifies the window",
        _run_5_5,
    ),
)


def repro_catalog() -> list:
    """All built-in reproductions, in stable order."""
    return list(_ENTRIES)


def run_entry(name: str, d: int = 64, L: Optional[float] = None):
    """Run one catalog entry by name at d >= 2; returns (passed, lines)."""
    d = operator.index(_not_bool(d, "d"))
    if d < 2:
        raise ValueError(f"catalog entries need d >= 2, got d={d}")
    L = None if L is None else _window_length(L)
    for entry in _ENTRIES:
        if entry.name == name:
            return entry.runner(d=d, L=L)
    known = ", ".join(e.name for e in _ENTRIES)
    raise KeyError(f"unknown catalog entry {name!r}; known entries: {known}")
