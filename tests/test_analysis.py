import dataclasses
import gc
import math
import os
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynframes.analysis import (
    FRAME,
    INCOMPLETE,
    GroupRank,
    _svd_rank,
    bessel_check_fd,
    bessel_upper_constant,
    brute_force_completeness,
    carleson_check,
    completeness_check,
    frame_bounds,
    multiplier_bounds,
)
from dynframes.discretize import find_discretization, window_scan
from dynframes.errors import DimensionMismatch, DomainError, NonHermitian
from dynframes.gram import TimeGrid, bessel_sum, discrete_gram, quadrature_gram, semicont_gram
from dynframes.reconstruct import Samples, heat_cycle_operator, reconstruct
from dynframes.spectral import (
    SpectralOperator,
    VectorSet,
    apply_power_batch,
    default_tolerance,
    group_eigenspaces,
    pair_integral,
    rank_tolerance_factor,
)
from dynframes.catalog import decaying_reciprocal_system, gaussian_decay_system
from helpers import (
    completeness_per_group,
    jacobi_eigh,
    principal_log,
    random_normal_operator,
    random_self_adjoint_operator,
    random_unitary,
    random_vectors,
    simpson_quadrature,
)


def random_hermitian(rng, d, scale=1.0):
    Z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (Z + Z.conj().T) / 2.0


# ---------------------------------------------------------------------------
# the Jacobi oracle, and frame_bounds against it


def test_jacobi_matches_lapack_on_random_hermitian():
    rng = np.random.default_rng(53)
    for _ in range(50):
        d = int(rng.integers(1, 13))
        H = random_hermitian(rng, d, scale=float(rng.choice([1e-3, 1.0, 1e3])))
        w, V = jacobi_eigh(H)
        ref = np.linalg.eigvalsh(H)
        scale = max(1.0, np.abs(ref).max())
        np.testing.assert_allclose(w, ref, atol=1e-10 * scale)
        # V diagonalizes H and is unitary
        np.testing.assert_allclose(H @ V, V * w, atol=1e-9 * scale)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(d), atol=1e-12)


def test_jacobi_diagonal_input_is_exact():
    w, V = jacobi_eigh(np.diag([3.0, -1.0, 2.0]).astype(complex))
    assert list(w) == [-1.0, 2.0, 3.0]
    np.testing.assert_allclose(np.abs(V), np.eye(3)[:, [1, 2, 0]], atol=0)


def test_jacobi_input_validation():
    with pytest.raises(DimensionMismatch):
        jacobi_eigh(np.ones((2, 3)))
    with pytest.raises(NonHermitian):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    w, V = jacobi_eigh(np.zeros((3, 3)))
    assert list(w) == [0.0, 0.0, 0.0]


def test_jacobi_complex_phase_handling():
    H = np.array([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 3.0]])
    w, V = jacobi_eigh(H)
    ref = np.linalg.eigvalsh(H)
    np.testing.assert_allclose(w, ref, atol=1e-12)


def test_frame_bounds_agrees_with_jacobi_oracle():
    # closed-form and discrete Grams of random systems in random eigenbases:
    # LAPACK's extreme eigenvalues must match the independent Jacobi sweeps.
    # The bounds from hat and from the dense S = U hat U* differ by rounding
    # only, that of forming S and of two eigensolves, each a small multiple
    # of d eps times the norm
    eps = np.finfo(float).eps
    rng = np.random.default_rng(61)
    for k in range(40):
        d = int(rng.integers(1, 13))
        A = random_normal_operator(rng, d, max_mod=2.0)
        G = random_vectors(rng, int(rng.integers(1, 4)), d)
        L = float(rng.uniform(0.25, 2.0))
        if k % 2:
            T = TimeGrid.uniform(int(rng.integers(1, 3 * d + 2)), L)
            gram = discrete_gram(A, G, T)
        else:
            gram = semicont_gram(A, G, L)
        rep = frame_bounds(gram)
        w, _ = jacobi_eigh(gram.matrix, want_vectors=False)
        assert rep.method.startswith("eigvalsh/")
        assert rep.upper == pytest.approx(w[-1], abs=1e-10 * w[-1])
        assert rep.lower == pytest.approx(max(w[0], 0.0), abs=1e-10 * w[-1])
        dense = frame_bounds(gram.matrix)
        assert abs(rep.upper - dense.upper) <= 16 * eps * dense.upper
        assert abs(rep.lower - dense.lower) <= 16 * eps * dense.upper


def _mpmath_window_bounds(mp, lam, ghat, L):
    """Extreme eigenvalues of the window Gram's hat, built and solved in mpmath."""
    # the package's principal log puts the cut at arg -pi, mpmath's at +pi
    logs = [mp.log(mp.mpc(z)) for z in lam]
    logs = [x - 2j * mp.pi if x.imag == mp.pi else x for x in logs]
    gh = [[mp.mpc(z) for z in row] for row in ghat]
    d = len(lam)
    S = mp.matrix(d, d)
    for j in range(d):
        for k in range(d):
            a = logs[j] + mp.conj(logs[k])
            P = (mp.exp(L * a) - 1) / a
            S[j, k] = P * sum(row[j] * mp.conj(row[k]) for row in gh)
    w = mp.eighe(S, eigvals_only=True)
    return float(min(w)), float(max(w))


def test_frame_bounds_agree_with_mpmath_on_ill_conditioned_systems():
    # random d = 8 systems, normal and self-adjoint, whose lower/upper lies
    # in [1e-12, 1e-4] at L = 5, against a 40-digit eigensolve of the hat
    # built from the same eigenvalues and eigen-coordinates. The lower bound
    # must match to 4 eps times the upper bound. The upper bound also carries
    # the window integrals' own rounding, exp(L log lambda) amplifying that
    # of log lambda, which reaches about 6 eps times the upper bound here
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    rng = np.random.default_rng(83)
    L = 5.0
    checked = 0
    while checked < 20:
        if checked % 2:
            A = random_self_adjoint_operator(rng, 8)
        else:
            A = random_normal_operator(rng, 8, min_mod=0.3, max_mod=1.5)
        G = random_vectors(rng, int(rng.integers(1, 3)), 8)
        rep = frame_bounds(semicont_gram(A, G, L))
        if not 1e-12 <= rep.lower / rep.upper <= 1e-4:
            continue
        with mpmath.workdps(40):
            lower, upper = _mpmath_window_bounds(
                mpmath.mp, A.eigenvalues, A.to_eigenbasis(G.vectors), L)
        assert abs(rep.lower - lower) <= 4 * eps * upper
        assert abs(rep.upper - upper) <= 16 * eps * upper
        checked += 1


def test_frame_bounds_near_the_unit_circle_agree_with_mpmath():
    # eigenvalues 1e-5 to 1e-11 inside the unit circle put window exponents
    # of that size on the diagonal, and near-ties put small ones off it,
    # where e^{L alpha} - 1 cancels. Eight rotations r e^{2 pi i k / 8} with
    # g = ones (true lower about 5.9e-14); the pair r e^{+-1e-5 i} with
    # g = (1, 1) (true lower 1.67e-11), at radii where the cancelling kernel
    # gave a 213 times too high lower bound and a significantly negative
    # eigenvalue of a positive semidefinite Gram
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    systems = [(r * np.exp(2j * np.pi * np.arange(8) / 8), np.ones((1, 8)))
               for r in 1.0 - np.logspace(-5, -11, 7)]
    for r in (0.999999992921, 0.999999992057):
        lam = r * np.exp(1e-5j)
        systems.append((np.array([lam, np.conj(lam)]), np.ones((1, 2))))
    for lam, vecs in systems:
        A, G = SpectralOperator(lam), VectorSet(vecs)
        rep = frame_bounds(semicont_gram(A, G, 1.0))
        with mpmath.workdps(40):
            lower, upper = _mpmath_window_bounds(
                mpmath.mp, A.eigenvalues, A.to_eigenbasis(G.vectors), 1.0)
        assert abs(rep.lower - lower) <= 4 * eps * upper
        assert abs(rep.upper - upper) <= 16 * eps * upper


# ---------------------------------------------------------------------------
# frame bounds


def test_frame_bounds_identity_window():
    A = SpectralOperator(np.ones(4))
    G = VectorSet(np.eye(4))
    rep = frame_bounds(semicont_gram(A, G, 1.0))
    assert rep.lower == pytest.approx(1.0, abs=1e-13)
    assert rep.upper == pytest.approx(1.0, abs=1e-13)
    assert rep.classification == FRAME
    assert rep.condition_number == pytest.approx(1.0, abs=1e-12)
    assert rep.dimension == 4
    assert rep.method == "eigvalsh/closed_form"


def test_frame_bounds_decaying_diagonal_closed_form():
    d = 64
    A, G = decaying_reciprocal_system(d)
    rep = frame_bounds(semicont_gram(A, G, 1.0))
    expected = (1.0 - d ** (-2.0)) / (2.0 * math.log(d))
    assert rep.lower == pytest.approx(expected, abs=1e-12)
    assert rep.upper == pytest.approx(1.0, abs=1e-12)
    assert rep.classification == FRAME


def test_frame_bounds_incomplete_system():
    A = SpectralOperator(np.array([1.0, 0.5], dtype=complex))
    G = VectorSet(np.array([[1.0, 1.0]], dtype=complex))
    rep = frame_bounds(discrete_gram(A, G, TimeGrid(np.array([0.0]), 1.0)))
    assert rep.classification == INCOMPLETE
    assert rep.lower <= 1e-12
    assert math.isinf(rep.condition_number)
    assert rep.method == "eigvalsh/discrete"


def test_frame_bounds_of_int_and_bool_arrays_match_their_float_copies():
    for S in (np.array([[2, 1], [1, 2]]), np.eye(3, dtype=np.int8), np.ones((2, 2), dtype=int),
              np.eye(4, dtype=bool), np.ones((3, 3), dtype=bool), np.array([[7]])):
        assert frame_bounds(S) == frame_bounds(S.astype(np.float64))
    with pytest.raises(NonHermitian):
        frame_bounds(np.array([[True, True], [False, True]]))


def test_frame_bounds_rejects_bad_input():
    with pytest.raises(NonHermitian):
        frame_bounds(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        frame_bounds(-np.eye(3))
    # a typed error that names the input, not numpy's zero-size reduction error
    with pytest.raises(DimensionMismatch, match="frame_bounds input is empty"):
        frame_bounds(np.zeros((0, 0)))


def _verdict(S):
    try:
        return frame_bounds(S).classification
    except (NonHermitian, ValueError) as exc:
        return type(exc).__name__


def test_frame_bounds_verdicts_do_not_depend_on_the_scale():
    # the negativity and the Hermitian check are relative to the matrix's
    # own scale: a tiny indefinite or non-Hermitian matrix is rejected, not
    # called incomplete, and a tiny frame stays a frame
    cases = {
        "ValueError": np.diag([1.0, -1.0]),
        "NonHermitian": np.array([[1.0, 10.0], [0.0, 1.0]]),
        FRAME: np.array([[2.0, 1.0j], [-1.0j, 2.0]]),
        INCOMPLETE: np.ones((2, 2)),
    }
    for want, S in cases.items():
        assert [_verdict(scale * S) for scale in (1.0, 2.0**-40, 2.0**-600)] == [want] * 3
    assert _verdict(np.array([[1e-10, 1e-9], [0.0, 1e-10]])) == "NonHermitian"
    assert _verdict(1e-10 * np.diag([1.0, -1.0])) == "ValueError"
    # a zero Gram spans nothing
    rep = frame_bounds(np.zeros((3, 3)))
    assert rep.classification == INCOMPLETE and rep.lower == rep.upper == 0.0


def test_overflowed_gram_raises_domain_error():
    # 3^(2L) overflows at L = 400; the Gram must not reach the eigensolver,
    # which would read the inf/NaN entries as a finite indefinite matrix
    A = SpectralOperator(np.array([3.0, 0.5], dtype=complex))
    G = VectorSet(np.array([[1.0, 1.0]], dtype=complex))
    with pytest.raises(DomainError, match="non-finite"):
        frame_bounds(semicont_gram(A, G, 400.0))
    with pytest.raises(DomainError, match="non-finite"):
        frame_bounds(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_overflow_raises_domain_error_without_warnings():
    # every route to 3^(2L) at L = 400 stops with a typed error where the
    # powers or their sums overflow, before numpy can warn about inf or NaN
    A = SpectralOperator(np.array([3.0, 0.5], dtype=complex))
    G = VectorSet(np.array([[1.0, 1.0]], dtype=complex))
    # at this L the window integral of 3^(2t) is finite, but weighting it by
    # |3|^2 overflows. With ghat = (1.25, 1.25) the Gram is 1.2e308 * ones,
    # finite in eigen-coordinates, but its norm 2.4e308 is not, so its
    # eigenvalues and its rotation out of the eigenbasis overflow
    edge = math.log(1.7e308) / (2.0 * math.log(3.0))
    G3 = VectorSet(np.array([[3.0, 1.0]], dtype=complex))
    H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    rotated = SpectralOperator(np.array([3.0, 3.0], dtype=complex), H)
    g_rotated = VectorSet(np.array([[1.25 * math.sqrt(2.0), 0.0]]))  # ghat = (1.25, 1.25)
    diagonal = SpectralOperator(np.array([3.0, 3.0], dtype=complex))
    g_diagonal = VectorSet(np.array([[1.25, 1.25]], dtype=complex))
    calls = (
        lambda: semicont_gram(A, G3, edge),
        lambda: frame_bounds(semicont_gram(rotated, g_rotated, edge)),
        lambda: semicont_gram(rotated, g_rotated, edge).matrix,
        lambda: frame_bounds(semicont_gram(diagonal, g_diagonal, edge)),
        lambda: frame_bounds(np.full((2, 2), 1.2e308)),
        lambda: bessel_sum(A, G3, edge, np.array([1.0, 0.0])),
        lambda: quadrature_gram(A, G3, edge),
        lambda: semicont_gram(A, G, 400.0),
        lambda: discrete_gram(A, G, TimeGrid.uniform(64, 400.0)),
        lambda: discrete_gram(A, G, TimeGrid.uniform(64, 400.0), weights="riemann"),
        lambda: pair_integral(3.0, 3.0, 400.0),
        lambda: bessel_upper_constant(A, 400.0),
        lambda: apply_power_batch(SpectralOperator([3.0]), [800.0], [1.0]),
    )
    # finite powers whose sampled sums overflow: the normal equations of 64
    # samples on [0, 400], and the doubling search past a finite window Gram
    S64 = Samples(np.ones((1, 64)), TimeGrid.uniform(64, 400.0).times)
    calls += (
        lambda: reconstruct(A, G, S64),
        lambda: reconstruct(A, G, S64, mode="riemann", L=400.0),
        lambda: find_discretization(SpectralOperator([3.0]), VectorSet([[1.0]]),
                                    math.log(1e306) / (2.0 * math.log(3.0)), 0.999),
    )
    # finite generators whose weight products ghat^T conj(ghat) overflow
    cycle = heat_cycle_operator(8, 1.0)
    huge = VectorSet(np.full((2, 8), 1e200))
    T = TimeGrid.uniform(16, 1.0)
    calls += (
        lambda: semicont_gram(cycle, huge, 1.0),
        lambda: discrete_gram(cycle, huge, T),
        lambda: find_discretization(cycle, huge, 1.0, 0.5),
        lambda: window_scan(cycle, huge, [0.5, 1.0]),
        lambda: reconstruct(cycle, huge, Samples(np.ones((2, 16)), T.times)),
        lambda: bessel_check_fd(cycle, huge),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in calls:
            with pytest.raises(DomainError, match="non-finite"):
                call()
        # a finite asymmetry that overflows when formed is still rejected,
        # and so is one whose entry's modulus overflows
        with pytest.raises(NonHermitian):
            frame_bounds(np.array([[0.0, 1e308], [-1e308, 0.0]]))
        with pytest.raises(NonHermitian):
            frame_bounds(np.array([[1.0, 0.0], [1.3e308 + 1.3e308j, 1.0]]))


def test_frame_bounds_unitary_invariance():
    rng = np.random.default_rng(59)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        lam = rng.uniform(0.3, 2.0, d).astype(complex)
        vecs = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
        plain = frame_bounds(semicont_gram(SpectralOperator(lam), VectorSet(vecs), 1.0))
        U = random_unitary(rng, d)
        rotated = frame_bounds(
            semicont_gram(SpectralOperator(lam, U), VectorSet(vecs @ U.T), 1.0)
        )
        assert rotated.lower == pytest.approx(plain.lower, rel=1e-9, abs=1e-12)
        assert rotated.upper == pytest.approx(plain.upper, rel=1e-9, abs=1e-12)
        assert rotated.classification == plain.classification


# ---------------------------------------------------------------------------
# completeness


def test_completeness_standard_basis():
    A = SpectralOperator(np.array([1.0, 2.0, 3.0], dtype=complex))
    cert = completeness_check(A, VectorSet(np.eye(3)))
    assert cert.complete
    assert all(g.achieved == g.required == 1 for g in cert.groups)
    with pytest.raises(DimensionMismatch):
        completeness_check(A, VectorSet(np.eye(4)))


def test_completeness_multiplicity_blocks_single_generator():
    # a repeated eigenvalue needs two directions from the generators
    A = SpectralOperator(np.array([1.0, 1.0], dtype=complex))
    one = completeness_check(A, VectorSet(np.array([[1.0, 1.0]])))
    assert not one.complete
    assert one.groups[0].required == 2
    assert one.groups[0].achieved == 1
    two = completeness_check(
        A, VectorSet(np.array([[1.0, 1.0], [1.0, -1.0]]))
    )
    assert two.complete


def test_completeness_heat_cycle_multiplicity():
    A = heat_cycle_operator(4, 0.7)
    e = np.eye(4, dtype=complex)
    single = completeness_check(A, VectorSet(e[[0]]))
    assert not single.complete
    pair = completeness_check(A, VectorSet(e[[0, 1]]))
    assert pair.complete
    assert brute_force_completeness(A, VectorSet(e[[0]]), 1.0, 64) is False
    assert brute_force_completeness(A, VectorSet(e[[0, 1]]), 1.0, 64) is True


def test_completeness_agrees_with_brute_force_on_random_systems():
    rng = np.random.default_rng(61)
    disagreements = 0
    for trial in range(100):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        if trial % 4 == 0:
            # diagonal operator with one eigen-coordinate zeroed exactly:
            # the system provably misses that direction
            lam = rng.uniform(0.3, 2.0, d).astype(complex)
            A = SpectralOperator(lam)
            vecs = np.array(random_vectors(rng, m, d).vectors)
            vecs[:, int(rng.integers(0, d))] = 0.0
            G = VectorSet(vecs)
        elif trial % 3 == 0:
            # engineered multiplicities: repeat one eigenvalue exactly
            lam = rng.uniform(0.3, 2.0, d).astype(complex)
            if d >= 2:
                lam[1] = lam[0]
            A = SpectralOperator(lam, random_unitary(rng, d))
            G = random_vectors(rng, m, d)
        else:
            A = random_normal_operator(rng, d)
            G = random_vectors(rng, m, d)
        expected = brute_force_completeness(A, G, 1.0, 4 * d * m)
        got = completeness_check(A, G).complete
        if expected != got:
            disagreements += 1
    assert disagreements == 0


BLOCK_KINDS = ("generic", "zero", "rank_one", "near_cutoff")


@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
    m=st.integers(1, 6),
    step=st.sampled_from([0.0, 0.5, 1.0]),
    kinds=st.lists(st.sampled_from(BLOCK_KINDS), min_size=6, max_size=6),
    with_basis=st.booleans(),
    env_tol=st.sampled_from([None, "1e-6"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_completeness_batched_ranks_match_per_group_oracle(
    sizes, m, step, kinds, with_basis, env_tol, seed
):
    # groups of mixed sizes whose members are exact ties (step 0) or sit
    # half or one grouping tolerance apart, so near-ties at the tolerance
    # split some groups; each group's block is generic, all zero, rank one
    # or has a singular value near the rank cutoff
    rng = np.random.default_rng(seed)
    with mock.patch.dict(os.environ):
        os.environ.pop("DYNSAMP_TOL", None)
        if env_tol is not None:
            os.environ["DYNSAMP_TOL"] = env_tol
        tol = default_tolerance()
        lam = np.concatenate([
            (g + 1) * np.exp(1j * g) + step * tol * np.arange(s)
            for g, s in enumerate(sizes)
        ])
        d = lam.size
        ghat = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
        start = 0
        for s, kind in zip(sizes, kinds):
            cols = slice(start, start + s)
            start += s
            if kind == "zero":
                ghat[:, cols] = 0.0
            elif kind == "rank_one":
                ghat[:, cols] = np.outer(rng.normal(size=m), rng.normal(size=s))
            elif kind == "near_cutoff":
                delta = rng.choice([0.3, 1.0, 3.0]) * rank_tolerance_factor()
                ghat[:, cols] = (np.outer(rng.normal(size=m), rng.normal(size=s))
                                 + delta * np.outer(rng.normal(size=m), rng.normal(size=s)))
        # scatter the groups over the indices
        perm = rng.permutation(d)
        A = SpectralOperator(lam[perm], random_unitary(rng, d) if with_basis else None)
        G = VectorSet(A.from_eigenbasis(ghat[:, perm]))
        got = completeness_check(A, G)
        assert got == completeness_per_group(A, G)
    assert all(type(g.achieved) is int for g in got.groups)


def test_completeness_layout_lives_and_dies_with_its_operator():
    A = SpectralOperator(np.array([2.0, 1.0, 2.0, 3.0, 1.0, 2.0]))
    G = VectorSet(np.array([[1.0, 1.0, 0.0, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0, 2.0, 3.0]]))
    first = completeness_check(A, G)
    assert [(g.indices, g.achieved) for g in first.groups] == [
        ((0, 2, 5), 2), ((1, 4), 2), ((3,), 1)]
    # the arrays kept on the operator are read-only
    *_, blocks = A._eigenspaces
    for which, rows in blocks:
        assert not which.flags.writeable and not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0
    # group_eigenspaces hands out its own array, so changing it changes nothing
    labels = group_eigenspaces(A)
    labels[:] = 0
    assert group_eigenspaces(A).tolist() == [0, 1, 0, 2, 1, 0]
    assert completeness_check(A, G) == first
    # nothing outside the operator holds it
    ref = weakref.ref(A)
    del A
    gc.collect()
    assert ref() is None


def test_completeness_reads_the_rank_cutoff_at_call_time(monkeypatch):
    # 2 and 2 + 1e-6 are two groups at the default tolerance and one at 1e-3;
    # the block of the double eigenvalue 1 has singular values 1 and 1e-5
    monkeypatch.delenv("DYNSAMP_TOL", raising=False)
    lam = np.array([1.0, 1.0, 2.0, 2.0 + 1e-6])
    A = SpectralOperator(lam)
    G = VectorSet(np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1e-5, 0.0, 0.0]]))
    before = completeness_check(A, G)
    assert before.complete
    assert [(g.indices, g.achieved) for g in before.groups] == [
        ((0, 1), 2), ((2,), 1), ((3,), 1)]
    monkeypatch.setenv("DYNSAMP_TOL", "1e-3")
    after = completeness_check(A, G)
    # the new cutoff drops the 1e-5 direction; the groups keep A's tolerance
    assert not after.complete
    assert [(g.indices, g.achieved) for g in after.groups] == [
        ((0, 1), 1), ((2,), 1), ((3,), 1)]
    assert after == completeness_per_group(A, G)
    # an operator built now takes the new tolerance and groups 2 with 2 + 1e-6
    fresh = completeness_check(SpectralOperator(lam), G)
    assert [(g.indices, g.achieved) for g in fresh.groups] == [((0, 1), 1), ((2, 3), 1)]


@pytest.mark.parametrize("d", [16, 64, 512])
def test_real_eigen_coordinates_rank_like_the_complex_oracle(d):
    # a real basis and one-hot sensors give real eigen-coordinates, ranked
    # in real arithmetic; the oracle ranks each group with the complex SVD.
    # The antipodal pair leaves every paired eigenspace one direction short,
    # with a second singular value at rounding level
    A = heat_cycle_operator(d, 1.0)
    rng = np.random.default_rng(d)
    sensor_sets = [[3], [0, d // 2], [5, 5 + d // 2]]
    sensor_sets += [sorted(rng.choice(d, 3, replace=False).tolist()) for _ in range(4)]
    for sensors in sensor_sets:
        vecs = np.zeros((len(sensors), d))
        vecs[np.arange(len(sensors)), sensors] = 1.0
        G = VectorSet(vecs)
        assert not A.to_eigenbasis(G.vectors).imag.any()
        cert = completeness_check(A, G)
        assert cert == completeness_per_group(A, G)
        if len(sensors) == 2:
            assert not cert.complete
            assert all(g.achieved == 1 for g in cert.groups)
        if d == 16:
            assert brute_force_completeness(A, G, 1.0, 4 * d * len(sensors)) == cert.complete


def test_imaginary_eigen_coordinates_count_toward_the_rank():
    # the real parts span one direction of the double eigenvalue, the
    # coordinates themselves both, on a standard and on a real basis
    for basis in (None, np.array([[0.6, 0.8], [-0.8, 0.6]])):
        A = SpectralOperator(np.ones(2), basis)
        G = VectorSet(A.from_eigenbasis(np.array([[1.0, 0.0], [0.0, 1.0j]])))
        assert completeness_check(A, G).groups[0].achieved == 2


def test_certificate_groups_are_a_tuple_of_group_ranks():
    A = heat_cycle_operator(16, 1.0)
    cert = completeness_check(A, VectorSet(np.eye(16)[[3, 5]]))
    groups = cert.groups
    assert type(groups) is tuple and len(groups) == 9
    assert all(type(g) is GroupRank for g in groups)
    assert all(type(g.achieved) is int and type(g.required) is int for g in groups)
    # equal to, and hashed like, the certificate the per-group oracle builds
    built = completeness_per_group(A, VectorSet(np.eye(16)[[3, 5]]))
    assert cert == built and hash(cert) == hash(built) and repr(cert) == repr(built)
    assert cert.to_dict() == built.to_dict()
    # a changed group goes into a new certificate, kept as it is
    grp = groups[1]
    changed = grp._replace(achieved=2 - grp.achieved)
    assert type(changed) is GroupRank and changed.indices == grp.indices
    replaced_groups = (groups[0], changed, *groups[2:])
    replaced = dataclasses.replace(cert, groups=replaced_groups)
    assert replaced.groups is replaced_groups and replaced != cert
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.groups = replaced_groups


def _svd_count(B):
    """Rank of each matrix in B by the singular value count, without shortcuts."""
    svals = np.linalg.svd(B, compute_uv=False)
    return np.count_nonzero(svals > rank_tolerance_factor() * svals[..., :1], axis=-1)


def _rank_one_stack(k, rng, dtype):
    """Blocks of k entries: zeros, -0.0, subnormals, entries near 1e308, mixtures."""
    rows = [
        np.zeros(k),
        np.full(k, -0.0),
        np.where(np.arange(k) % 2, 0.0, -0.0),
        np.full(k, 5e-324),
        np.full(k, -5e-324),
        np.full(k, 1e308 / math.sqrt(k)),
        np.full(k, -1.7e308 / k),
        rng.normal(size=k),
    ]
    for j in range(k):
        for x in (5e-324, -5e-324, 1.7e308, -1e308, 1.0):
            row = np.where(np.arange(k) % 2, 0.0, -0.0)
            row[j] = x
            rows.append(row)
    sparse = rng.normal(size=(8, k))
    sparse[rng.random((8, k)) < 0.6] = 0.0
    rows += list(sparse)
    B = np.array(rows)
    if dtype is complex:
        # the same blocks on the imaginary axis, then with both parts, scaled
        # so that no block's norm overflows
        B = np.concatenate((B.astype(complex), 1j * B, 0.6 * B + 0.6j * B[::-1]))
        B[-1] = 0.0 + 5e-324j
        B[-2] = -0.0 - 0.0j
    return B


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_rank_one_blocks_rank_like_the_svd_count(k, dtype):
    # a block with one row or one column is ranked by whether it is nonzero;
    # that matches the singular value count on 1 x k and k x 1 stacks
    rows = _rank_one_stack(k, np.random.default_rng(k), dtype)
    for B in (rows[:, None, :], rows[:, :, None]):
        want = _svd_count(B)
        got = _svd_rank(B)
        assert got.tolist() == want.tolist()
        assert 0 < want.sum() < len(want)
        # one block at a time, as brute_force_completeness passes its matrix
        for block, rank in zip(B, want.tolist()):
            assert int(_svd_rank(block)) == rank and np.ndim(_svd_rank(block)) == 0


def test_rank_one_blocks_run_no_svd():
    B = _rank_one_stack(3, np.random.default_rng(0), complex)
    want = [_svd_count(B[:, None, :]), _svd_count(B[:, :, None])]
    with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("SVD called")):
        got = [_svd_rank(B[:, None, :]), _svd_rank(B[:, :, None])]
        with pytest.raises(AssertionError, match="SVD called"):
            _svd_rank(np.ones((4, 2, 2)))
    assert [r.tolist() for r in got] == [r.tolist() for r in want]


def test_rank_one_blocks_keep_the_svd_count_at_any_cutoff(monkeypatch):
    # a cutoff factor of 1 or more leaves no singular value above it
    B = np.array([[[1.0, 0.0]], [[0.0, 0.0]], [[5e-324, 2.0]]])
    for factor in ("0.5", "0.9", "1", "2"):
        monkeypatch.setenv("DYNSAMP_TOL", factor)
        assert _svd_rank(B).tolist() == _svd_count(B).tolist()
        assert _svd_rank(B.transpose(0, 2, 1)).tolist() == _svd_count(B).tolist()
    assert _svd_rank(B).tolist() == [0, 0, 0]


def test_nonzero_subnormal_block_has_rank_one_below_a_factor_of_one(monkeypatch):
    # 0.5 * 5e-324 rounds (to even) to 0, so the singular value clears that
    # cutoff; 0.9 * 5e-324 rounds back up to 5e-324, so the count reads 0.
    # A nonzero block has rank 1 at every factor below 1
    B = np.array([[[5e-324]], [[0.0]], [[-5e-324]]])
    for factor, count in (("0.5", [1, 0, 1]), ("0.9", [0, 0, 0])):
        monkeypatch.setenv("DYNSAMP_TOL", factor)
        assert _svd_count(B).tolist() == count
        assert _svd_rank(B).tolist() == [1, 0, 1]
    monkeypatch.setenv("DYNSAMP_TOL", "1")
    assert _svd_rank(B).tolist() == [0, 0, 0]


def test_rank_one_block_whose_norm_overflows_has_rank_one():
    # the SVD's one singular value, the norm, overflows to inf and fails
    # inf > factor * inf; the nonzero test still sees a rank-one block
    for B in (np.full((1, 2, 1), 1.7e308), np.full((1, 1, 2), -1.7e308)):
        assert np.isinf(np.linalg.svd(B, compute_uv=False)).all()
        assert _svd_rank(B).tolist() == [1]


def test_completeness_ranks_one_dimensional_and_zero_blocks():
    # single eigenvalues give 1 x |G| blocks and a double eigenvalue with one
    # generator a 2 x 1 block; zero coordinates leave those groups rank 0
    A = SpectralOperator(np.array([1.0, 0.5, 0.5, 0.25, 0.125]))
    G = VectorSet(np.array([[1.0, 0.0, 2.0, -0.0, 5e-324]]))
    cert = completeness_check(A, G)
    assert [(g.indices, g.required, g.achieved) for g in cert.groups] == [
        ((0,), 1, 1), ((1, 2), 2, 1), ((3,), 1, 0), ((4,), 1, 1)]
    assert not cert.complete and cert == completeness_per_group(A, G)
    assert brute_force_completeness(SpectralOperator([0.5]), VectorSet([[2.0]]), 1.0, 1)
    assert not brute_force_completeness(SpectralOperator([0.5]), VectorSet([[0.0]]), 1.0, 1)


def test_overflowed_eigen_coordinates_raise_domain_error():
    # finite generators whose eigen-coordinates overflow: (1.7e308, 1.7e308)
    # on the basis (1, 1)/sqrt 2, (1, -1)/sqrt 2 has first coordinate 2.4e308
    H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    G = VectorSet(np.array([[1.7e308, 1.7e308]]))
    one_hot_nan = np.zeros(16)
    one_hot_nan[5] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for basis in (H, H * np.array([1.0, 1j])):
            A = SpectralOperator(np.array([0.5, 0.7]), basis)
            for call in (completeness_check, bessel_check_fd, lambda A, G: A.to_eigenbasis(G.vectors)):
                with pytest.raises(DomainError,
                                   match=r"^eigen-coordinates have non-finite entries \(overflow\)$"):
                    call(A, G)
            # a NaN or inf input is still the input's fault
            for bad in ([np.nan, 0.0], [np.inf, -np.inf], [1.7e308, np.inf]):
                with pytest.raises(ValueError, match="^vectors must be finite$"):
                    A.to_eigenbasis(np.array(bad))
            # at 1e308 and 0 the coordinates, about 7.1e307 each, are finite
            assert completeness_check(A, VectorSet(np.array([[1e308, 0.0]]))).complete
        # also when the row gather keeps only the bad entry's basis row
        with pytest.raises(ValueError, match="^vectors must be finite$"):
            heat_cycle_operator(16, 1.0).to_eigenbasis(one_hot_nan)


def test_frame_implies_complete():
    # the classifier uses a relative spectral cutoff, so a barely complete
    # system may still be reported incomplete; the implication only runs
    # from frame to complete
    rng = np.random.default_rng(67)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        A = random_normal_operator(rng, d)
        G = random_vectors(rng, int(rng.integers(1, 4)), d)
        rep = frame_bounds(semicont_gram(A, G, 1.0))
        cert = completeness_check(A, G)
        if rep.classification == FRAME:
            assert cert.complete


def test_complete_well_conditioned_systems_are_frames():
    rng = np.random.default_rng(68)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        A = random_normal_operator(rng, d)
        G = VectorSet(np.eye(d, dtype=complex))
        assert completeness_check(A, G).complete
        rep = frame_bounds(semicont_gram(A, G, 1.0))
        assert rep.classification == FRAME
        assert rep.lower > 0.0


def test_brute_force_grid_requirement():
    A = SpectralOperator(np.ones(3))
    G = VectorSet(np.eye(3))
    with pytest.raises(ValueError):
        brute_force_completeness(A, G, 1.0, 8)  # below d * |G|
    # a count that is not an integer is an error: 9.7 would pass the
    # d * |G| check and then sample 9 times
    for points in (9.7, 9.0):
        with pytest.raises(TypeError):
            brute_force_completeness(A, G, 1.0, points)
    assert brute_force_completeness(A, G, 1.0, np.int64(9))


# ---------------------------------------------------------------------------
# bessel diagnostics


def test_bessel_check_energies():
    # e^{-25} sits below the operator tolerance, so modes n >= 5 are outside
    # the visible range and only 1 + 4 + 9 + 16 survives, at every d >= 5
    for d in (8, 16):
        A, G, _ = gaussian_decay_system(d)
        assert bessel_check_fd(A, G) == pytest.approx(30.0, rel=1e-12)
        raw = float(np.sum(np.abs(G.vectors) ** 2))
        assert raw == d * (d + 1) * (2 * d + 1) / 6.0  # unmasked energy differs


def test_bessel_check_masks_null_directions():
    A = SpectralOperator(np.array([1.0, 0.0], dtype=complex))
    G = VectorSet(np.array([[3.0, 4.0]], dtype=complex))
    assert bessel_check_fd(A, G) == pytest.approx(9.0)  # the dead direction does not count
    with pytest.raises(DimensionMismatch):
        bessel_check_fd(A, VectorSet(np.ones((1, 3))))


def test_bessel_upper_constant_values():
    A = SpectralOperator(np.array([2.0, 0.5], dtype=complex))
    assert bessel_upper_constant(A, 1.0) == pytest.approx(3.0 / math.log(4.0))
    B = SpectralOperator(np.ones(2))
    assert bessel_upper_constant(B, 2.5) == 2.5


# ---------------------------------------------------------------------------
# multiplier bounds


def test_multiplier_bounds_gaussian_decay_frozen():
    A, _, _ = gaussian_decay_system(8)
    m, M = multiplier_bounds(A, 2.0)  # window clips to ell = 1/2
    assert m == pytest.approx(0.015624999999999802, abs=1e-15)
    assert M == pytest.approx(0.3934693402873666, abs=1e-15)
    # same values at L = 1/2 because of the clip
    m2, M2 = multiplier_bounds(A, 0.5)
    assert (m2, M2) == (m, M)


def test_multiplier_bounds_clip_the_window_and_reject_bad_lengths():
    A = SpectralOperator(np.array([-1.0, 0.5j, 2.0]))
    assert multiplier_bounds(A, 2.0) == multiplier_bounds(A, 0.5)
    m, M = multiplier_bounds(A, 0.25)  # below 1/2 the window is kept
    moduli = [abs(pair_integral(z, 1.0, 0.25)) for z in A.eigenvalues]
    assert (m, M) == pytest.approx((min(moduli), max(moduli)), rel=1e-14)
    assert (m, M) != multiplier_bounds(A, 0.5)
    for L in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="positive and finite"):
            multiplier_bounds(A, L)


def test_multiplier_bounds_match_quadrature():
    rng = np.random.default_rng(71)
    for _ in range(20):
        d = int(rng.integers(1, 7))
        A = random_normal_operator(rng, d, min_mod=0.2, max_mod=3.0)
        L = float(rng.choice([0.3, 1.0, 2.0]))
        ell = min(L, 0.5)
        m, M = multiplier_bounds(A, L)
        t = np.linspace(0.0, ell, 513)
        vals = []
        for z in A.eigenvalues:
            vals.append(abs(simpson_quadrature(np.exp(t * principal_log(z)), ell)))
        assert m == pytest.approx(min(vals), abs=1e-10)
        assert M == pytest.approx(max(vals), abs=1e-10)
        assert m > 0.0


# ---------------------------------------------------------------------------
# carleson diagnostics


def test_carleson_dyadic_accumulation_frozen():
    lam = np.array([1.0 - 2.0 ** (-k) for k in range(1, 21)], dtype=complex)
    report = carleson_check(lam, P_norms=np.ones(20))
    assert report.inf_product == pytest.approx(0.014829531235271073, abs=1e-12)
    first = [0.181687, 0.058978, 0.032352, 0.022994, 0.018903]
    np.testing.assert_allclose(report.per_index_products[:5], first, atol=5e-7)
    assert int(np.argmin(report.per_index_products)) == 10
    assert report.conditions["ii"] == "pass"
    assert report.conditions["iv"] == "pass"
    assert report.conditions["v"] == "pass"
    assert report.conditions["i"] == "assumed"
    assert report.conditions["iii"] == "undecidable"
    assert report.verdict == "consistent_at_truncation"
    assert report.tail_increasing


def test_carleson_scaled_projection_bounds():
    report = carleson_check(np.array([0.5 + 0.0j]), P_norms=[2.0])
    expected = 2.0 / math.sqrt(1.0 - 0.25)
    assert report.c_v == pytest.approx(expected)
    assert report.C_v == pytest.approx(expected)


def test_carleson_failures_and_domain():
    with pytest.raises(DomainError):
        carleson_check(np.array([1.0 + 0.0j]), P_norms=[1.0])
    with pytest.raises(DomainError):
        carleson_check(np.array([0.5, 1.0 - 1e-15]), P_norms=[1.0, 1.0])
    # an eigenvalue outside the disk breaks condition (ii)
    outside = carleson_check(np.array([0.5, 1.5]), P_norms=[1.0, 1.0])
    assert outside.conditions["ii"] == "fail"
    assert outside.verdict == "not_frameable"
    # a repeated eigenvalue collapses the separation product
    repeated = carleson_check(np.array([0.5, 0.5]), P_norms=[1.0, 1.0])
    assert repeated.inf_product == 0.0
    assert repeated.conditions["iv"] == "fail"
    assert repeated.verdict == "not_frameable"
    # a generator with a dead coordinate loses the lower scaling bound
    dead = carleson_check(np.array([0.3, 0.6]), P_norms=[1.0, 0.0])
    assert dead.c_v == 0.0
    assert dead.conditions["v"] == "fail"
    assert dead.verdict == "not_frameable"
    with pytest.raises(DimensionMismatch):
        carleson_check(np.array([0.3, 0.6]), P_norms=[1.0])
    with pytest.raises(ValueError, match="^need at least one eigenvalue$"):
        carleson_check([], [])
    # with no eigenvalue inside the disk there is no scaled projection to bound
    none_inside = carleson_check(np.array([1.5, 2.5]), P_norms=[1.0, 1.0])
    assert math.isnan(none_inside.c_v) and math.isnan(none_inside.C_v)
    assert none_inside.conditions["v"] == "fail"
    assert none_inside.verdict == "not_frameable"


def test_carleson_all_factors_inside_disk_are_contractive():
    rng = np.random.default_rng(73)
    mods = rng.uniform(0.05, 0.95, 8)
    args = rng.uniform(-np.pi, np.pi, 8)
    lam = mods * np.exp(1j * args)
    report = carleson_check(lam, P_norms=np.ones(8))
    assert all(0.0 < p <= 1.0 for p in report.per_index_products)
