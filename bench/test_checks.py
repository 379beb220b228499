"""Each benchmark check accepts the program's answer and rejects a wrong one.

    python3 -m pytest -q bench/test_checks.py
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import dynframes as D  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailure  # noqa: E402


def _overlap(d=8, L=1.0):
    lam = np.where(np.arange(d) % 2 == 0, 1.0, 3.0).astype(complex)
    vecs = np.zeros((d - 1, d), dtype=complex)
    for n in range(d - 1):
        vecs[n, n] = vecs[n, n + 1] = 1.0
    return lam, vecs, checks.extreme_eigenvalues(checks.window_gram_hat(lam, vecs, L))


def _bounds_case():
    lam, vecs, (lower, upper) = _overlap()
    A, G = D.SpectralOperator(lam), D.VectorSet(vecs)
    analyze = D.frame_bounds(D.semicont_gram(A, G, 1.0)).to_dict()
    complete = D.completeness_check(A, G).to_dict()
    ref = {"d": 8, "lower": lower, "upper": upper, "complete": True,
           "ranks": checks.group_ranks(lam, vecs)}
    return analyze, complete, ref


def test_bounds_check_accepts_the_program_answer():
    analyze, complete, ref = _bounds_case()
    checks.check_bounds_task(analyze, 0, complete, 0, ref)


def test_bounds_check_rejects_a_perturbed_bound():
    analyze, complete, ref = _bounds_case()
    for key in ("lower", "upper"):
        bad = dict(analyze, **{key: analyze[key] * (1.0 + 1e-6)})
        with pytest.raises(CheckFailure):
            checks.check_bounds_task(bad, 0, complete, 0, ref)


def test_bounds_check_rejects_a_flipped_verdict_or_exit_code():
    analyze, complete, ref = _bounds_case()
    with pytest.raises(CheckFailure):
        checks.check_bounds_task(dict(analyze, classification="incomplete"), 2, complete, 0, ref)
    with pytest.raises(CheckFailure):
        checks.check_bounds_task(analyze, 2, complete, 0, ref)


def test_bounds_check_rejects_a_wrong_completeness_answer():
    analyze, complete, ref = _bounds_case()
    with pytest.raises(CheckFailure):
        checks.check_bounds_task(analyze, 0, dict(complete, complete=False), 2, ref)
    groups = [dict(g) for g in complete["groups"]]
    groups[0]["achieved_rank"] = 0
    with pytest.raises(CheckFailure):
        checks.check_bounds_task(analyze, 0, dict(complete, groups=groups), 0, ref)


def _design_case():
    L = 1.0
    lam, vecs, window = _overlap(L=L)
    A, G = D.SpectralOperator(lam), D.VectorSet(vecs)

    def weighted_lower(n):
        times = np.arange(n) * (L / n)
        return checks.extreme_eigenvalues(
            checks.sampled_gram_hat(lam, vecs, times, np.full(n, L / n)))[0]

    def plain(n):
        return checks.extreme_eigenvalues(
            checks.sampled_gram_hat(lam, vecs, np.arange(n) * (L / n)))

    found = D.find_discretization(A, G, L, 0.9)
    return A, G, found, window, weighted_lower, plain


def test_discretization_check_accepts_the_accepted_grid():
    _, _, found, window, weighted_lower, plain = _design_case()
    n = len(found.grid)
    checks.check_discretization(n, found.grid.times, 1.0, 0.9 * window[0],
                                weighted_lower, plain(n), found.report.to_dict())


@pytest.mark.parametrize("scale, message", [(2.0, "not minimal"), (0.5, "does not reach")])
def test_discretization_check_rejects_a_grid_of_the_wrong_size(scale, message):
    A, G, found, window, weighted_lower, plain = _design_case()
    n = int(scale * len(found.grid))
    report = D.frame_bounds(D.discrete_gram(A, G, D.TimeGrid.uniform(n, 1.0)))
    with pytest.raises(CheckFailure, match=message):
        checks.check_discretization(n, np.arange(n) / n, 1.0, 0.9 * window[0],
                                    weighted_lower, plain(n), report.to_dict())


def test_transfer_check_rejects_a_constant_above_the_window_bound():
    A, G, found, window, _, _ = _design_case()
    cont, analytic = D.verify_discrete_implies_semicont(A, G, found.grid, 1.0)
    checks.check_transfer(cont.to_dict(), analytic, window)
    with pytest.raises(CheckFailure):
        checks.check_transfer(cont.to_dict(), window[0] * 1.01, window)


def test_scan_check_rejects_mixed_verdicts_in_the_self_adjoint_regime():
    lam, vecs, _ = _overlap()
    A, G = D.SpectralOperator(lam), D.VectorSet(vecs)
    lengths = (0.5, 1.0, 2.0)
    scan = D.window_scan(A, G, lengths)
    windows = [checks.extreme_eigenvalues(checks.window_gram_hat(lam, vecs, x)) for x in lengths]
    checks.check_scan(scan, windows, True)
    mixed = dataclasses.replace(scan, classifications=("frame", "incomplete", "frame"))
    with pytest.raises(CheckFailure):
        checks.check_scan(mixed, windows, True)


def _recover_case(noise):
    d, sensors, n, L = 8, [0, 2, 5], 64, 1.0
    A = D.heat_cycle_operator(d, 1.0)
    vecs = np.zeros((len(sensors), d), dtype=complex)
    vecs[np.arange(len(sensors)), sensors] = 1.0
    G = D.VectorSet(vecs)
    rng = np.random.default_rng(5)
    f = rng.normal(size=d) + 1j * rng.normal(size=d)
    B = checks.heat_sample_matrix(d, 1.0, sensors, np.arange(n) * (L / n))
    jitter = noise * (rng.normal(size=B.shape[0]) + 1j * rng.normal(size=B.shape[0]))
    records = D.sample(A, G, f, D.TimeGrid.uniform(n, L))
    checks.check_samples([r.value for r in records], B @ f, float(np.abs(B @ f).max()))
    records = [D.SampleRecord(r.generator_index, r.time, r.value + z)
               for r, z in zip(records, jitter)]
    estimate = D.reconstruct(A, G, records, L=L).estimate
    sv = np.linalg.svd(B, compute_uv=False)
    lstsq = np.linalg.lstsq(B, B @ f + jitter, rcond=None)[0]
    return estimate, f, lstsq, float(sv[0] / sv[-1])


@pytest.mark.parametrize("noise", [0.0, 1e-6])
def test_estimate_check_accepts_the_reconstruction(noise):
    estimate, f, lstsq, cond = _recover_case(noise)
    checks.check_estimate(estimate, f, lstsq, cond, noise > 0.0)


@pytest.mark.parametrize("noise", [0.0, 1e-6])
def test_estimate_check_rejects_a_wrong_estimate(noise):
    estimate, f, lstsq, cond = _recover_case(noise)
    wrong = estimate.copy()
    wrong[3] += 1e-3 * np.linalg.norm(estimate)
    with pytest.raises(CheckFailure):
        checks.check_estimate(wrong, f, lstsq, cond, noise > 0.0)


def test_sample_check_rejects_a_wrong_sample():
    B = checks.heat_sample_matrix(8, 1.0, [0, 3], np.arange(4) / 4)
    want = B @ np.ones(8)
    values = want.copy()
    values[2] += 1e-9
    with pytest.raises(CheckFailure):
        checks.check_samples(values, want, 1.0)


@pytest.mark.parametrize("sensors", [[3], [3, 11], [0, 5, 9]])
def test_span_check_accepts_completeness_check(sensors):
    d = 16
    A = D.heat_cycle_operator(d, 1.0)
    G = D.VectorSet(np.eye(d, dtype=complex)[sensors])
    checks.check_span(D.completeness_check(A, G), d, 1.0, sensors)


@pytest.mark.parametrize("sensors", [[3], [3, 11], [0, 5, 9]])
def test_span_check_rejects_a_wrong_completeness_answer(sensors):
    d = 16
    A = D.heat_cycle_operator(d, 1.0)
    cert = D.completeness_check(A, D.VectorSet(np.eye(d, dtype=complex)[sensors]))
    with pytest.raises(CheckFailure):
        checks.check_span(dataclasses.replace(cert, complete=not cert.complete), d, 1.0, sensors)
    grp = cert.groups[1]
    groups = (cert.groups[0], grp._replace(achieved=3 - grp.achieved), *cert.groups[2:])
    with pytest.raises(CheckFailure):
        checks.check_span(dataclasses.replace(cert, groups=groups), d, 1.0, sensors)


def test_heat_rule_matches_the_known_placements():
    assert not checks.heat_pair_spanned(16, [0, 8], 1)
    assert checks.heat_pair_spanned(16, [0, 3], 1)
    assert not checks.heat_pair_spanned(16, [0, 4], 4)
