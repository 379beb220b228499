import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dynframes.discretize
import dynframes.gram
from dynframes.analysis import FRAME, INCOMPLETE, FrameReport, frame_bounds
from dynframes.catalog import gap_pair_system, shifted_pair_system
from dynframes.discretize import (
    DiscretizationResult,
    find_discretization,
    verify_discrete_implies_semicont,
    window_scan,
)
from dynframes.errors import (
    DiscreteNotFrame,
    DomainError,
    NoConvergence,
    NotAFrame,
    NotInvertible,
)
from dynframes.gram import TimeGrid, discrete_gram, semicont_gram
from dynframes.reconstruct import heat_cycle_operator
from dynframes.spectral import SpectralOperator, VectorSet, _power_profile
from helpers import (
    find_discretization_reference,
    random_normal_operator,
    random_self_adjoint_operator,
    random_unitary,
    random_vectors,
)


# ---------------------------------------------------------------------------
# grid search


def test_find_discretization_identity_accepts_first_grid():
    A = SpectralOperator(np.ones(3))
    G = VectorSet(np.eye(3))
    result = find_discretization(A, G, 1.0, 0.9)
    assert list(result.grid.times) == [0.0, 0.5]
    assert result.delta_used == 0.5
    assert result.iterations == 1
    # the report carries the unweighted bounds of the accepted grid
    assert result.report.lower == pytest.approx(2.0, abs=1e-12)
    assert result.report.upper == pytest.approx(2.0, abs=1e-12)
    assert result.report.classification == FRAME


def test_find_discretization_gap_pair_frozen():
    A, G = gap_pair_system(0.25)
    result = find_discretization(A, G, 1.0, 0.5)
    assert len(result.grid) == 2
    assert result.delta_used == 0.5
    assert result.report.lower == pytest.approx(0.004792576325054254, abs=1e-12)
    assert result.report.upper == pytest.approx(3.7452074236749455, abs=1e-12)


def test_find_discretization_respects_target_monotonicity():
    # a harder target can only ask for the same grid or a finer one
    A, G = gap_pair_system(0.5)
    loose = find_discretization(A, G, 1.0, 0.3)
    tight = find_discretization(A, G, 1.0, 0.98)
    assert len(tight.grid) >= len(loose.grid)
    sc = frame_bounds(semicont_gram(A, G, 1.0))
    weighted = frame_bounds(discrete_gram(A, G, tight.grid, weights="riemann"))
    assert weighted.lower >= 0.98 * sc.lower


def test_find_discretization_rejects_incomplete_system():
    A = SpectralOperator(np.array([1.0, 0.5], dtype=complex))
    G = VectorSet(np.array([[1.0, 0.0]], dtype=complex))
    with pytest.raises(NotAFrame):
        find_discretization(A, G, 1.0, 0.5)


def test_find_discretization_point_budget():
    # growing spectrum: the left-rule bound approaches from below slowly,
    # so a tight target cannot be met inside a tiny point budget
    A = SpectralOperator(np.array([2.0, 3.0], dtype=complex))
    G = VectorSet(np.eye(2))
    with pytest.raises(NoConvergence):
        find_discretization(A, G, 1.0, 0.999, max_points=64)
    result = find_discretization(A, G, 1.0, 0.999)
    assert len(result.grid) > 64


def test_find_discretization_target_validation():
    A = SpectralOperator(np.ones(2))
    G = VectorSet(np.eye(2))
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            find_discretization(A, G, 1.0, bad)


def test_discretization_result_gap_invariant():
    grid = TimeGrid(np.array([0.0, 0.9]), 1.0)
    frame_rep = FrameReport(
        lower=1.0,
        upper=1.0,
        classification=FRAME,
        dimension=1,
        method="test",
        condition_number=1.0,
    )
    with pytest.raises(ValueError):
        DiscretizationResult(grid, frame_rep, 0.5, 1)
    # a non-frame report is exempt from the mesh invariant
    loose_rep = FrameReport(
        lower=0.0,
        upper=1.0,
        classification=INCOMPLETE,
        dimension=1,
        method="test",
        condition_number=math.inf,
    )
    DiscretizationResult(grid, loose_rep, 0.5, 1)


def test_find_discretization_evaluates_each_grid_time_once(monkeypatch):
    # grid 2n is grid n plus its midpoints, so one search evaluates the powers
    # at each accepted time once, and none before its first grid
    rows = []

    def counting_profile(eigenvalues, times):
        rows.append(len(times))
        return _power_profile(eigenvalues, times)

    for module in (dynframes.gram, dynframes.discretize):
        monkeypatch.setattr(module, "_power_profile", counting_profile, raising=False)
    # 8 unit-circle rotations in a random basis, one random generator
    rng = np.random.default_rng(0)
    A = SpectralOperator(np.exp(2j * np.pi * np.arange(8) / 8), random_unitary(rng, 8))
    G = random_vectors(rng, 1, 8)
    result = find_discretization(A, G, 64.0, 0.9)
    assert result.iterations >= 6
    assert sum(rows) == len(result.grid)
    rows.clear()
    with pytest.raises(NoConvergence, match=r"\(last -inf\)"):
        find_discretization(A, G, 64.0, 0.9, max_points=1)
    assert rows == []


def test_find_discretization_max_points_is_an_integer_count():
    # the count goes through operator.index, as grid sizes do: a float is a
    # TypeError, not a bound, and so is a bool, not the count 1
    rng = np.random.default_rng(0)
    A = SpectralOperator(np.exp(2j * np.pi * np.arange(8) / 8), random_unitary(rng, 8))
    G = random_vectors(rng, 1, 8)
    with pytest.raises(TypeError):
        find_discretization(A, G, 64.0, 0.9, max_points=48.5)
    with pytest.raises(TypeError, match=r"^max_points must be a number, not the bool True$"):
        find_discretization(A, G, 64.0, 0.9, max_points=True)
    with pytest.raises(NoConvergence, match=r"^no uniform grid up to 48 points reached"):
        find_discretization(A, G, 64.0, 0.9, max_points=np.int64(48))


def _outcome(search, *args):
    try:
        return search(*args)
    except (NoConvergence, NotAFrame, DomainError) as exc:
        return type(exc), str(exc)


# a draw whose search accepts only at n = 128
_DEEP_RADII = [0.9859, 1.0142, 0.9986, 1.0146, 0.9862, 1.0155]
_DEEP_JITTER = [-0.046, 0.1745, -0.0988, 0.0935, -0.1836, 0.099]


@settings(max_examples=300)
@example(d=6, radii=_DEEP_RADII, jitter=_DEEP_JITTER, edge=None, with_basis=True,
         generators=1, seed=916, window="1", ratio=0.99, max_points=1 << 20)
@example(d=6, radii=_DEEP_RADII, jitter=_DEEP_JITTER, edge=None, with_basis=True,
         generators=1, seed=916, window="1", ratio=0.99, max_points=48)
@example(d=6, radii=[1.02, 0.98] * 3, jitter=[0.01, -0.02] * 3, edge="minus_one",
         with_basis=True, generators=2, seed=1, window="2d", ratio=0.99, max_points=1 << 20)
@example(d=5, radii=[0.99] * 6, jitter=[0.0] * 6, edge="near_tie", with_basis=False,
         generators=3, seed=2, window="2d", ratio=0.9, max_points=1 << 20)
@given(
    d=st.integers(1, 6),
    radii=st.lists(st.floats(0.98, 1.02), min_size=6, max_size=6),
    jitter=st.lists(st.floats(-0.2, 0.2), min_size=6, max_size=6),
    edge=st.sampled_from([None, "zero", "minus_one", "near_tie"]),
    with_basis=st.booleans(),
    generators=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    window=st.sampled_from(["1", "8", "2d"]),
    ratio=st.sampled_from([0.5, 0.9, 0.99]),
    max_points=st.sampled_from([0, 1, 3, 48, 1 << 20]),
)
def test_nested_grid_search_matches_fresh_grids(d, radii, jitter, edge, with_basis,
                                                generators, seed, window, ratio,
                                                max_points):
    # rotations by about 2 pi k / d, just off the unit circle
    angles = 2.0 * np.pi * np.arange(d) / d + np.array(jitter[:d])
    lam = np.array(radii[:d]) * np.exp(1j * angles)
    if edge == "zero":
        lam[0] = 0.0  # 0^t is 1 at t = 0 and 0 after
    elif edge == "minus_one":
        lam[0] = -1.0  # on the branch cut
    elif edge == "near_tie" and d > 1:
        lam[1] = lam[0] + 1e-9
    rng = np.random.default_rng(seed)
    A = SpectralOperator(lam, random_unitary(rng, d) if with_basis else None)
    G = random_vectors(rng, generators, d)
    L = 2.0 * d if window == "2d" else float(window)

    path = []
    expected = _outcome(find_discretization_reference, A, G, L, ratio, max_points, path)
    # the reference weighs each time by its own Riemann panel, the search by the
    # scalar L / n; the two may round apart in the last bits, which can flip the
    # acceptance only when a weighted lower bound lies at the target itself
    assume(all(abs(lower - target) > 1e-12 * target for lower, target in path))
    got = _outcome(find_discretization, A, G, L, ratio, max_points)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert isinstance(got, DiscretizationResult)
    assert got.grid.times.tobytes() == expected.grid.times.tobytes()
    assert got.grid.L == expected.grid.L
    assert got.iterations == expected.iterations
    assert got.delta_used == expected.delta_used
    assert got.report == expected.report


# ---------------------------------------------------------------------------
# discrete-to-continuous certificates


def test_verify_shifted_pair_two_times():
    A, G = shifted_pair_system(64)
    T = TimeGrid(np.array([0.0, 1.0]), 2.0)
    cont, analytic = verify_discrete_implies_semicont(A, G, T, 2.0)
    assert analytic == pytest.approx(0.9611238661350814, abs=1e-12)
    assert cont.lower == pytest.approx(1.3879900841107664, abs=1e-9)
    assert cont.upper == pytest.approx(1493.2321150597368, rel=1e-9)
    assert cont.classification == FRAME
    assert analytic <= cont.lower


def test_verify_analytic_constant_is_a_true_lower_bound():
    rng = np.random.default_rng(83)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        A = random_normal_operator(rng, d)
        G = VectorSet(np.eye(d, dtype=complex))
        L = float(rng.choice([0.5, 1.0, 2.0]))
        T = TimeGrid.uniform(int(rng.integers(2, 9)), L)
        cont, analytic = verify_discrete_implies_semicont(A, G, T, L)
        assert analytic > 0.0
        assert analytic <= cont.lower * (1.0 + 1e-9) + 1e-12


def test_verify_rejects_noninvertible_operator():
    A = SpectralOperator(np.array([1.0, 0.0], dtype=complex))
    G = VectorSet(np.eye(2))
    with pytest.raises(NotInvertible):
        verify_discrete_implies_semicont(A, G, TimeGrid.uniform(2, 1.0), 1.0)


def test_verify_rejects_discrete_nonframe():
    A = SpectralOperator(np.array([1.0, 0.5], dtype=complex))
    G = VectorSet(np.array([[1.0, 1.0]], dtype=complex))
    T = TimeGrid(np.array([0.0]), 1.0)  # one time cannot separate two modes
    with pytest.raises(DiscreteNotFrame):
        verify_discrete_implies_semicont(A, G, T, 1.0)


def test_verify_checks_the_discrete_frame_before_the_window_gram():
    # one time cannot separate two modes, and the window Gram over [0, 400]
    # overflows (3^800): the failed hypothesis is reported, not the overflow
    A = SpectralOperator(np.array([3.0, 0.5]))
    G = VectorSet(np.array([[1.0, 1.0]]))
    with pytest.raises(DomainError, match="window integral has non-finite"):
        semicont_gram(A, G, 400.0)
    with pytest.raises(DiscreteNotFrame):
        verify_discrete_implies_semicont(A, G, TimeGrid(np.array([0.0]), 1.0), 400.0)


def test_verify_window_validation():
    A = SpectralOperator(np.ones(2))
    G = VectorSet(np.eye(2))
    with pytest.raises(DomainError):
        verify_discrete_implies_semicont(A, G, TimeGrid.uniform(2, 2.0), 1.0)
    with pytest.raises(DomainError):
        verify_discrete_implies_semicont(A, G, TimeGrid.uniform(2, 1.0), 0.0)


# ---------------------------------------------------------------------------
# window scans


def test_window_scan_identity():
    A = SpectralOperator(np.ones(3))
    G = VectorSet(np.eye(3))
    scan = window_scan(A, G, [0.5, 1.0, 2.0])
    assert scan.lengths == (0.5, 1.0, 2.0)
    np.testing.assert_allclose(scan.lower_bounds, [0.5, 1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(scan.upper_bounds, [0.5, 1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(scan.condition_numbers, [1.0, 1.0, 1.0], atol=1e-9)
    assert scan.classifications == (FRAME, FRAME, FRAME)
    assert scan.invertible_self_adjoint is True


def test_window_scan_flag_semantics():
    G = VectorSet(np.eye(2))
    nonreal = SpectralOperator(np.array([1.0j, 0.5], dtype=complex))
    assert window_scan(nonreal, G, [1.0]).invertible_self_adjoint is False
    singular = SpectralOperator(np.array([1.0, 0.0], dtype=complex))
    assert window_scan(singular, G, [1.0]).invertible_self_adjoint is False


def test_window_scan_never_raises_on_negative_windows():
    A = SpectralOperator(np.array([1.0, 0.5], dtype=complex))
    G = VectorSet(np.array([[1.0, 0.0]], dtype=complex))  # misses one direction
    scan = window_scan(A, G, [0.5, 1.0])
    assert scan.classifications == (INCOMPLETE, INCOMPLETE)
    assert all(math.isinf(c) for c in scan.condition_numbers)


def test_window_scan_all_or_nothing_on_flagged_systems():
    # a single generator in moderate dimension conditions like L^(2(d-1)),
    # so the fixed relative cutoff can flip its verdict between windows even
    # though the underlying system is complete at every L; spanning families
    # keep the ratio far from the cutoff and exhibit the invariance cleanly
    rng = np.random.default_rng(89)
    lengths = [0.25, 1.0, 4.0]
    for _ in range(15):
        d = int(rng.integers(1, 6))
        A = random_self_adjoint_operator(rng, d)
        G = random_vectors(rng, d, d)
        scan = window_scan(A, G, lengths)
        assert scan.invertible_self_adjoint is True
        verdicts = set(scan.classifications)
        assert verdicts == {FRAME}
        # lower bounds grow with the window
        diffs = np.diff(scan.lower_bounds)
        assert np.all(diffs >= -1e-9 * max(scan.upper_bounds))


def test_window_scan_single_generator_conditioning_depends_on_window():
    # regression for the scale sensitivity described above: the first system
    # drawn from this seed is complete, yet its smallest window falls under
    # the relative cutoff while the largest clears it comfortably
    rng = np.random.default_rng(89)
    A = random_self_adjoint_operator(rng, 5)
    G = random_vectors(rng, 1, 5)
    scan = window_scan(A, G, [0.25, 4.0])
    assert scan.classifications == (INCOMPLETE, FRAME)


def test_window_scan_input_validation():
    A = SpectralOperator(np.ones(2))
    G = VectorSet(np.eye(2))
    with pytest.raises(ValueError):
        window_scan(A, G, [])
    with pytest.raises(DomainError):
        window_scan(A, G, [0.0, 1.0])
    with pytest.raises(ValueError):
        window_scan(A, G, [1.0, 0.5])


def _per_length_scan(A, G, lengths):
    """window_scan's bounds and verdicts, one semicont_gram per length."""
    reps = [frame_bounds(semicont_gram(A, G, L)) for L in lengths]
    return (tuple(r.lower for r in reps), tuple(r.upper for r in reps),
            tuple(r.condition_number for r in reps), tuple(r.classification for r in reps))


def test_window_scan_equals_the_per_length_reports_bit_for_bit():
    # one stacked pass gives each length the Gram, the check and the LAPACK
    # call that the length alone gets: a heat cycle (real arithmetic), a
    # random complex basis, a zero eigenvalue and -1 on the branch cut
    rng = np.random.default_rng(97)
    heat = heat_cycle_operator(12, 0.7)
    systems = [
        (heat, VectorSet(np.eye(12)[[0, 5]])),
        (random_normal_operator(rng, 6, max_mod=2.0), random_vectors(rng, 2, 6)),
        (SpectralOperator(np.array([0.0, 0.5, 1.5j, 2.0]), random_unitary(rng, 4)),
         random_vectors(rng, 2, 4)),
        (SpectralOperator(np.array([-1.0, 0.5, -0.7, 1.2]), random_unitary(rng, 4)),
         random_vectors(rng, 3, 4)),
    ]
    assert semicont_gram(*systems[0], 1.0).hat.dtype == np.float64
    for A, G in systems:
        for lengths in ([1.0], [0.25, 1.0, 4.0, 16.0], [1e-300, 0.5, 30.0]):
            scan = window_scan(A, G, lengths)
            expected = _per_length_scan(A, G, lengths)
            got = (scan.lower_bounds, scan.upper_bounds, scan.condition_numbers,
                   scan.classifications)
            assert got == expected


def test_window_scan_of_a_zero_generator_is_incomplete_at_every_length():
    # every Gram of the stack is zero: its scale is 0, and a zero asymmetry
    # within 0 times the tolerance passes the Hermitian check
    for A in (heat_cycle_operator(8, 1.0), SpectralOperator(np.array([0.5, 2j, -1.0]))):
        G = VectorSet(np.zeros((2, A.dimension)))
        scan = window_scan(A, G, [0.5, 1.0, 4.0])
        assert scan.classifications == (INCOMPLETE,) * 3
        assert scan.lower_bounds == scan.upper_bounds == (0.0,) * 3


def test_window_scan_raises_the_first_failing_length_error_as_the_loop_does():
    diag3 = SpectralOperator(np.array([3.0, 0.5]))
    ones = SpectralOperator(np.ones(2))
    cases = [
        # only the last window integral overflows (3^800)
        (diag3, VectorSet(np.array([[1.0, 1.0]])), [1.0, 10.0, 400.0]),
        # W is 1e308 everywhere: the eigenvalues at L = 1 overflow (2e308)
        # before the Gram at L = 2 does
        (ones, VectorSet(np.array([[1e154, 1e154]])), [1.0, 2.0]),
        (ones, VectorSet(np.array([[1e154, 1e154]])), [0.5, 2.0]),
        # W itself overflows
        (heat_cycle_operator(8, 1.0), VectorSet(np.full((2, 8), 1e200)), [0.5, 1.0]),
    ]
    for A, G, lengths in cases:
        with pytest.raises(DomainError) as loop:
            _per_length_scan(A, G, lengths)
        with pytest.raises(type(loop.value), match=f"^{re.escape(str(loop.value))}$"):
            window_scan(A, G, lengths)
    # the finite lengths before the overflow scan as they do alone
    G = VectorSet(np.array([[1.0, 1.0]]))
    scan = window_scan(diag3, G, [1.0, 10.0])
    assert scan.lower_bounds == _per_length_scan(diag3, G, [1.0, 10.0])[0]
