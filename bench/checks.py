"""Reference answers computed apart from dynframes, and the checks that use them.

Nothing here imports dynframes: every reference is built from numpy alone
(closed-form pair integrals, explicit power sums, ``eigvalsh``, ``lstsq``,
integer arithmetic), so a wrong program output cannot also make its own
reference wrong. Each ``check_*`` raises ``CheckFailure`` naming the first
disagreement it finds.
"""

from __future__ import annotations

import math

import numpy as np

# The program's documented classification rule: a Gram is a frame when its
# smallest eigenvalue exceeds this factor times its largest.
RANK_CUTOFF = 1e-9
# How far two eigensolvers may disagree on an extreme eigenvalue, relative to
# the largest one. Jacobi and LAPACK agree to ~1e-14 on these inputs; a
# wrong bound is off by far more.
BOUND_RTOL = 1e-10
# Eigenvalues closer than this are one eigenspace (the program's default).
GROUP_TOL = 1e-10


class CheckFailure(AssertionError):
    """A program output disagrees with the benchmark's own reference."""


# ---------------------------------------------------------------------------
# reference computations


def principal_log(lam) -> np.ndarray:
    """ln|z| + i arg z with arg in [-pi, pi)."""
    lam = np.asarray(lam, dtype=np.complex128)
    arg = np.angle(lam)
    arg = np.where(arg == np.pi, -np.pi, arg)
    return np.log(np.abs(lam)) + 1j * arg


def window_gram_hat(lam, ghat, L: float) -> np.ndarray:
    """Frame operator over [0, L] in eigen-coordinates.

    ``ghat`` holds the generators' eigen-coordinates as rows. Entry (j, k) is
    sum_g ghat_j conj(ghat_k) * integral_0^L exp(t (log_j + conj(log_k))) dt.
    """
    logs = principal_log(lam)
    alpha = logs[:, None] + np.conj(logs)[None, :]
    small = np.abs(alpha) < 1e-14
    safe = np.where(small, 1.0, alpha)
    P = np.where(small, L, np.expm1(L * alpha) / safe)
    ghat = np.asarray(ghat, dtype=np.complex128)
    return (ghat.T @ np.conj(ghat)) * P


def sampled_gram_hat(lam, ghat, times, weights=None) -> np.ndarray:
    """sum_i w_i (lam^t_i * ghat)(lam^t_i * ghat)^* summed over generators."""
    logs = principal_log(lam)
    M = np.exp(np.multiply.outer(np.asarray(times, dtype=np.float64), logs))
    w = np.ones(M.shape[0]) if weights is None else np.asarray(weights)
    ghat = np.asarray(ghat, dtype=np.complex128)
    return (ghat.T @ np.conj(ghat)) * ((w[:, None] * M).T @ np.conj(M))


def extreme_eigenvalues(S) -> tuple:
    w = np.linalg.eigvalsh(np.asarray(S))
    return float(w[0]), float(w[-1])


def is_frame(lower: float, upper: float) -> bool:
    return lower > RANK_CUTOFF * upper


def group_ranks(lam, ghat) -> list:
    """(required, achieved) rank per eigenspace, by SVD, sorted.

    Eigenvalues are grouped by a sort-and-sweep on their distance; the rank
    of a group is the number of singular values of the projected generators
    above RANK_CUTOFF times the largest one.
    """
    lam = np.asarray(lam, dtype=np.complex128)
    ghat = np.asarray(ghat, dtype=np.complex128)
    order = np.lexsort((lam.imag, lam.real))
    groups, current = [], [order[0]]
    for i in order[1:]:
        if abs(lam[i] - lam[current[-1]]) <= GROUP_TOL:
            current.append(i)
        else:
            groups.append(current)
            current = [i]
    groups.append(current)
    out = []
    for idx in groups:
        sv = np.linalg.svd(ghat[:, idx], compute_uv=False)
        rank = int(np.sum(sv > RANK_CUTOFF * sv[0])) if sv.size and sv[0] > 0 else 0
        out.append((len(idx), rank))
    return sorted(out)


def heat_powers(d: int, diffusion: float, times) -> np.ndarray:
    """exp(-diffusion * t * Laplacian) of the d-cycle, one matrix per time.

    Built from ``eigh`` of the graph Laplacian itself, not from the Fourier
    basis the program uses.
    """
    lap = 2.0 * np.eye(d) - np.roll(np.eye(d), 1, axis=0) - np.roll(np.eye(d), -1, axis=0)
    w, V = np.linalg.eigh(lap)
    decay = np.exp(-diffusion * np.multiply.outer(np.asarray(times), w))
    return np.einsum("ij,tj,kj->tik", V, decay, V)


def heat_sample_matrix(d: int, diffusion: float, sensors, times) -> np.ndarray:
    """Rows f -> <A^t f, e_s>, sensor-major then time, as ``sample`` orders them."""
    powers = heat_powers(d, diffusion, times)
    return np.concatenate([powers[:, s, :] for s in sensors], axis=0)


def heat_pair_spanned(d: int, sensors, k: int) -> bool:
    """Closed-form rule: pair k is spanned iff sin(2 pi k (s - s') / d) != 0 for some s, s'."""
    return any((2 * k * (a - b)) % d != 0 for a in sensors for b in sensors)


# ---------------------------------------------------------------------------
# checks


def _close(name: str, got: float, want: float, tol: float) -> None:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        raise CheckFailure(f"{name} {got!r} differs from reference {want!r} by more than {tol:.3g}")


def _verdict_is_ambiguous(lower: float, upper: float) -> bool:
    return abs(lower - RANK_CUTOFF * upper) <= BOUND_RTOL * upper


def check_report(report: dict, lower: float, upper: float, label: str) -> None:
    """Frame bounds and verdict of one report against reference extremes.

    ``report`` has the keys of the program's FrameReport. The program clips
    the lower bound at 0, so the reference is clipped too.
    """
    tol = BOUND_RTOL * max(upper, 1e-300)
    _close(f"{label} lower", report["lower"], max(lower, 0.0), tol)
    _close(f"{label} upper", report["upper"], upper, tol)
    if not _verdict_is_ambiguous(lower, upper):
        want = "frame" if is_frame(lower, upper) else "incomplete"
        if report["classification"] != want:
            raise CheckFailure(
                f"{label} classified {report['classification']!r}, reference says {want!r}"
            )


def check_bounds_task(analyze: dict, analyze_code: int, complete: dict,
                      complete_code: int, ref: dict) -> None:
    """``analyze`` then ``complete`` on one system, against its reference Gram."""
    check_report(analyze, ref["lower"], ref["upper"], "analyze")
    if analyze["dimension"] != ref["d"]:
        raise CheckFailure(f"analyze dimension {analyze['dimension']} != {ref['d']}")
    want_code = 0 if analyze["classification"] == "frame" else 2
    if analyze_code != want_code:
        raise CheckFailure(f"analyze exit code {analyze_code}, expected {want_code}")
    if complete["complete"] != ref["complete"]:
        raise CheckFailure(f"complete says {complete['complete']}, reference {ref['complete']}")
    ranks = sorted((g["required_rank"], g["achieved_rank"]) for g in complete["groups"])
    if ranks != ref["ranks"]:
        raise CheckFailure("per-eigenspace ranks differ from the SVD reference")
    if complete_code != (0 if ref["complete"] else 2):
        raise CheckFailure(f"complete exit code {complete_code} for complete={ref['complete']}")


def check_scan(scan, windows: list, self_adjoint_invertible: bool) -> None:
    """window_scan output against reference (lower, upper) per window."""
    if len(scan.classifications) != len(windows):
        raise CheckFailure("window_scan returned the wrong number of windows")
    for i, (lower, upper) in enumerate(windows):
        report = {
            "lower": scan.lower_bounds[i],
            "upper": scan.upper_bounds[i],
            "classification": scan.classifications[i],
        }
        check_report(report, lower, upper, f"scan window {i}")
    if scan.invertible_self_adjoint != self_adjoint_invertible:
        raise CheckFailure("window_scan flags the invertible self-adjoint regime wrongly")
    if self_adjoint_invertible and len(set(scan.classifications)) != 1:
        raise CheckFailure(
            f"invertible self-adjoint scan mixes verdicts {scan.classifications}"
        )


def check_discretization(n: int, times, L: float, target: float,
                         weighted_lower, plain: tuple, report: dict) -> None:
    """Accepted doubling-search grid: uniform, reaches the target, minimal.

    ``weighted_lower(n)`` is the reference Riemann-weighted lower bound of
    the uniform n-point grid; ``plain`` the reference unweighted extremes of
    the accepted grid, which ``report`` must match.
    """
    if n < 2 or n & (n - 1):
        raise CheckFailure(f"accepted grid size {n} is not a doubling of 2")
    if not np.allclose(times, np.arange(n) * (L / n), rtol=0.0, atol=1e-12 * L):
        raise CheckFailure("accepted grid is not the uniform grid on [0, L)")
    slack = BOUND_RTOL * plain[1]
    if weighted_lower(n) < target - slack:
        raise CheckFailure(f"grid of {n} points does not reach the target {target:.6g}")
    if n > 2 and weighted_lower(n // 2) >= target + slack:
        raise CheckFailure(f"grid of {n // 2} points already reaches the target; {n} is not minimal")
    check_report(report, plain[0], plain[1], f"{n}-point grid")


def check_transfer(cont: dict, analytic: float, window: tuple) -> None:
    """Discrete-to-window certificate: window bounds right, constant below them."""
    check_report(cont, window[0], window[1], "certified window")
    if not (analytic > 0.0 and analytic <= window[0] + BOUND_RTOL * window[1]):
        raise CheckFailure(
            f"analytic constant {analytic!r} exceeds the window lower bound {window[0]!r}"
        )


def check_samples(values, want, scale: float) -> None:
    values = np.asarray(values)
    if values.shape != want.shape or not np.all(np.abs(values - want) <= 1e-12 * scale):
        raise CheckFailure("sample values differ from <A^t f, g> computed by the benchmark")


def check_estimate(estimate, truth, lstsq, cond: float, noisy: bool) -> None:
    """Reconstructed state against the truth (noiseless) or least squares (noisy).

    Noiseless estimates must come back to 1e-6. Noisy estimates solve the
    same least-squares problem through the normal equations with conjugate
    gradients stopped at relative residual 1e-10, so they may differ from
    ``lstsq`` by cond(B)^2 times that residual (plus rounding), with a
    factor 10 to spare.
    """
    estimate = np.asarray(estimate)
    if noisy:
        want = lstsq
        tol = 10.0 * cond * cond * (1e-10 + 1e-15 * estimate.size)
    else:
        want = truth
        tol = 1e-6
    err = float(np.linalg.norm(estimate - want) / np.linalg.norm(want))
    if not err <= tol:
        raise CheckFailure(f"estimate relative error {err:.3e} exceeds {tol:.3e}")


def check_span(cert, d: int, diffusion: float, sensors) -> None:
    """completeness_check on the d-cycle heat kernel against the closed-form rule."""
    groups = cert.groups
    if len(groups) != d // 2 + 1:
        raise CheckFailure(f"{len(groups)} eigenspaces, expected {d // 2 + 1}")
    complete = True
    for grp in groups:
        ks = {min(j, d - j) for j in grp.indices}
        if len(ks) != 1:
            raise CheckFailure(f"eigenspace {grp.indices} mixes wavenumbers {sorted(ks)}")
        k = ks.pop()
        paired = 0 < 2 * k < d
        lam = math.exp(-diffusion * (2.0 - 2.0 * math.cos(2.0 * math.pi * k / d)))
        if abs(grp.value - lam) > 1e-12 or grp.required != (2 if paired else 1):
            raise CheckFailure(f"eigenspace of wavenumber {k} is wrong")
        spanned = not paired or heat_pair_spanned(d, sensors, k)
        complete = complete and spanned
        if grp.achieved != grp.required - (0 if spanned else 1):
            raise CheckFailure(
                f"wavenumber {k}: rank {grp.achieved}, closed form says "
                f"{'spanned' if spanned else 'one direction'}"
            )
    if cert.complete != complete:
        raise CheckFailure(f"complete={cert.complete}, closed form says {complete}")
