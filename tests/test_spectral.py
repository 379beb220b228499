import cmath
import functools
import itertools
import json
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dynframes.analysis import (
    bessel_upper_constant,
    brute_force_completeness,
    completeness_check,
    multiplier_bounds,
)
from dynframes.discretize import (
    find_discretization,
    verify_discrete_implies_semicont,
    window_scan,
)
from dynframes.errors import DimensionMismatch, DomainError
from dynframes.gram import (
    TimeGrid,
    bessel_sum,
    discrete_gram,
    quadrature_gram,
    semicont_gram,
)
from dynframes.catalog import repro_catalog, run_entry
from dynframes.reconstruct import (
    SampleRecord,
    Samples,
    heat_cycle_operator,
    reconstruct,
    sample,
)
from dynframes.spectral import (
    SpectralOperator,
    VectorSet,
    _power_profile,
    _principal_log,
    _product,
    _window_integral,
    apply_power_batch,
    default_tolerance,
    group_eigenspaces,
    load_operator,
    load_vectors,
    operator_from_dict,
    operator_to_dict,
    pair_integral,
    pair_integral_matrix,
    rank_tolerance_factor,
    save_operator,
    save_vectors,
    vectors_from_dict,
    vectors_to_dict,
)
from helpers import (
    dense_matrix,
    group_eigenspaces_pairwise,
    groups_from_labels,
    operator_arrays_by_element,
    operator_to_dict_by_element,
    random_normal_operator,
    random_unitary,
    simpson_pair_integral,
    vectors_array_by_element,
    vectors_to_dict_by_element,
)

nonzero_complex = st.builds(
    lambda r, a: cmath.rect(r, a),
    st.floats(0.2, 3.0),
    st.floats(-math.pi, math.pi, exclude_max=True),
)
times = st.floats(-2.0, 2.0)


# ---------------------------------------------------------------------------
# principal branch, through the powers of a 1 x 1 operator


def power(z, t):
    """z^t as the orbit of the unit vector under the operator diag(z)."""
    return complex(apply_power_batch(SpectralOperator([z]), [t], [1.0])[0, 0])


def test_branch_argument_on_the_cut():
    # z^(1/2) = sqrt|z| exp(i arg(z) / 2): the cut maps to arg = -pi, so
    # every point of it, with either sign of zero, has root -i sqrt|z|
    for z in (-1.0, complex(-2.0, 0.0), complex(-2.0, -0.0)):
        root = power(z, 0.5)
        assert abs(root - (-1j) * math.sqrt(abs(z))) < 1e-15
        assert root.imag < 0.0
    assert power(1.0, 0.5) == 1.0


@pytest.mark.parametrize("z", [0.0, 1.0, -1.0, 1j, 2.0 - 3.0j, 1e-300])
def test_power_at_time_zero_is_one(z):
    assert power(z, 0.0) == 1.0 + 0.0j


def test_zero_base_powers():
    assert power(0.0, 2.5) == 0.0
    with pytest.raises(DomainError):
        power(0.0, -1.0)


def test_negative_one_half_power_uses_lower_branch():
    # arg(-1) = -pi, so (-1)^(1/2) = exp(-i pi / 2) = -i
    val = power(-1.0, 0.5)
    assert abs(val - (-1j)) < 1e-15


def test_integer_powers_match_multiplication():
    z = 1.7 - 0.3j
    assert abs(power(z, 1.0) - z) < 1e-15
    assert abs(power(z, 3.0) - z**3) < 1e-13


@given(z=nonzero_complex, s=times, t=times)
def test_power_semigroup(z, s, t):
    lhs = power(z, s + t)
    rhs = power(z, s) * power(z, t)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@given(z=nonzero_complex, t=st.floats(0.0, 2.0))
def test_power_modulus(z, t):
    assert abs(abs(power(z, t)) - abs(z) ** t) <= 1e-12 * abs(z) ** t


# ---------------------------------------------------------------------------
# pair integral


def test_pair_integral_trivial_cases():
    assert pair_integral(1.0, 1.0, 2.5) == 2.5
    assert pair_integral(0.0, 2.0, 1.0) == 0.0
    assert pair_integral(2.0, 0.0, 1.0) == 0.0
    with pytest.raises(DomainError):
        pair_integral(1.0, 1.0, 0.0)
    # an infinite window is rejected, also where the improper integral
    # converges, rather than reported as an overflow or returned
    for lam in (1.0, 0.5):
        with pytest.raises(DomainError, match="interval length must be positive and finite"):
            pair_integral(lam, lam, math.inf)
    with pytest.raises(DomainError, match="interval length must be positive and finite"):
        pair_integral_matrix(SpectralOperator([0.5, 0.25j]), math.inf)


def test_pair_integral_on_the_cut_is_real_window():
    # both arguments sit on the branch cut; the two branch angles cancel
    # exactly, so the integrand is |z|^(2t)
    assert pair_integral(-1.0, -1.0, 1.0) == 1.0
    val = pair_integral(-2.0, -2.0, 1.0)
    expected = (4.0 - 1.0) / (2.0 * math.log(2.0))
    assert abs(val - expected) < 1e-14
    assert val.imag == 0.0


def test_pair_integral_known_value():
    # integral of 2^t * 3^t over [0, 1] = 5 / ln 6
    val = pair_integral(2.0, 3.0, 1.0)
    assert abs(val - 5.0 / math.log(6.0)) < 1e-14


def test_pair_integral_near_zero_exponent_matches_mpmath():
    # (e^{L alpha} - 1) / alpha where e^{L alpha} - 1 would cancel: |alpha|
    # in [1e-12, 1e-4], real, imaginary and mixed. mu = 1 adds nothing to the
    # exponent, so alpha is lam's principal log, formed here as the package
    # forms it, and the 40-digit reference is taken at that float alpha
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    L = 1.5
    for size in np.geomspace(1e-12, 1e-4, 9):
        for direction in (1.0, -1.0, 1j, -1j, cmath.exp(0.7j), cmath.exp(-2.1j)):
            lam = np.array([cmath.exp(size * direction)])
            alpha = complex(np.log(np.abs(lam))[0], np.arctan2(lam.imag, lam.real)[0])
            with mpmath.workdps(40):
                a = mpmath.mpc(alpha)
                want = complex((mpmath.exp(L * a) - 1) / a)
            got = pair_integral(complex(lam[0]), 1.0, L)
            assert abs(got - want) <= 4 * eps * abs(want), (size, direction)
    # an exponent whose product with L is subnormal or underflows to 0
    assert pair_integral(complex(1.0, 1e-310), 1.0, 0.3) == 0.3
    assert pair_integral(complex(1.0, 5e-324), 1.0, 0.3) == 0.3


@given(lam=nonzero_complex, mu=nonzero_complex, L=st.sampled_from([0.5, 1.0, 2.0]))
def test_pair_integral_hermitian_symmetry(lam, mu, L):
    a = pair_integral(lam, mu, L)
    b = pair_integral(mu, lam, L)
    assert abs(a - b.conjugate()) <= 1e-12 * max(1.0, abs(a))


@given(lam=nonzero_complex, L=st.sampled_from([0.5, 1.0, 2.0]))
def test_pair_integral_diagonal_is_positive(lam, L):
    val = pair_integral(lam, lam, L)
    assert val.imag == 0.0
    assert val.real > 0.0


def test_pair_integral_against_quadrature():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        lam = cmath.rect(rng.uniform(0.2, 3.0), rng.uniform(-math.pi, math.pi))
        mu = cmath.rect(rng.uniform(0.2, 3.0), rng.uniform(-math.pi, math.pi))
        L = rng.choice([0.5, 1.0, 2.0])
        closed = pair_integral(lam, mu, L)
        quad = simpson_pair_integral(lam, mu, L)
        worst = max(worst, abs(closed - quad))
    assert worst <= 1e-9


def test_pair_integral_matrix_matches_scalar():
    rng = np.random.default_rng(11)
    lam = np.concatenate(
        [
            rng.uniform(0.2, 3.0, 5) * np.exp(1j * rng.uniform(-np.pi, np.pi, 5)),
            [0.0, 1.0, -1.0],
        ]
    )
    P = pair_integral_matrix(SpectralOperator(lam), 1.5)
    for j in range(lam.size):
        for k in range(lam.size):
            assert abs(P[j, k] - pair_integral(lam[j], lam[k], 1.5)) < 1e-13


# ---------------------------------------------------------------------------
# the power integral (the multiplier symbol): the pair integral with mu = 1


def test_power_integral_window_and_domain():
    assert pair_integral(1.0, 1.0, 0.5) == 0.5
    assert pair_integral(0.0, 1.0, 0.25) == 0.0
    with pytest.raises(DomainError):
        pair_integral(2.0, 1.0, 0.0)


def test_power_integral_at_minus_one():
    # |integral of (-1)^t over [0, 1/2]| = sqrt(2) / pi on the lower branch
    val = pair_integral(-1.0, 1.0, 0.5)
    assert abs(abs(val) - math.sqrt(2.0) / math.pi) < 1e-15


@given(z=nonzero_complex, ell=st.floats(0.05, 0.5))
def test_power_integral_is_pair_integral_with_one(z, ell):
    # multiplier_bounds computes the same integral on its own route
    m, M = multiplier_bounds(SpectralOperator([z]), ell)
    b = abs(pair_integral(z, 1.0, ell))
    assert m == M
    assert abs(m - b) <= 1e-13 * max(1.0, b)


# ---------------------------------------------------------------------------
# a spectrum in [0, inf) takes real power kernels


def _complex_route(lam):
    """An operator stand-in whose kept log is the complex principal log."""
    return types.SimpleNamespace(_log=_principal_log(lam))


def _within_ulps(real, cplx):
    return bool(np.all(np.abs(real - cplx) <= 4 * np.finfo(np.float64).eps * np.abs(cplx)))


# e^x over sixty e-folds, exact zeros and ones, and exact ties
real_spectra = st.lists(
    st.one_of(st.floats(-30.0, 30.0).map(math.exp), st.just(0.0), st.just(1.0)),
    min_size=1,
    max_size=10,
).map(lambda v: v + v[: len(v) // 2])


def test_power_kernels_are_real_for_a_heat_cycle():
    A = heat_cycle_operator(8, 1.0)
    M = _power_profile(A, np.arange(16) / 16)
    assert A._log.dtype == M.dtype == np.float64
    assert not A._log.flags.writeable
    assert pair_integral_matrix(A, 1.0).dtype == np.float64
    # a one-hot sensor has real eigen-coordinates, so the power sum stays real
    T = TimeGrid(np.arange(16) / 16, 1.0)
    assert discrete_gram(A, VectorSet(np.eye(8)[[0]]), T).hat.dtype == np.float64


@pytest.mark.parametrize("lam", [[0.5, -1.0], [0.5, 1j]], ids=["minus_one", "non_real"])
def test_power_kernels_stay_complex_off_the_half_line(lam):
    A = SpectralOperator(lam)
    M = _power_profile(A, [0.0, 0.5, 1.0])
    P = pair_integral_matrix(A, 2.0)
    shat = discrete_gram(A, VectorSet(np.eye(2)[[0]]), TimeGrid([0.0, 0.5, 1.0], 2.0)).hat
    assert M.dtype == P.dtype == shat.dtype == np.complex128
    if lam[1] == -1.0:
        # arg(-1) = -pi: (-1)^(1/2) = -i, and conj(-1)^t cancels (-1)^t
        assert abs(M[1, 1] - (-1j)) < 1e-15
        assert P[1, 1] == 2.0


def test_negative_zero_eigenvalue_takes_the_complex_route_with_the_same_values():
    # arg(-0.0) = pi, so -0.0 keeps the log complex; its powers are the +0.0
    # spectrum's, and its pair integrals too up to the last bits, which
    # numpy's complex division rounds through a reciprocal
    pos, neg = SpectralOperator([0.0, 0.5, 1.0, 2.0]), SpectralOperator([-0.0, 0.5, 1.0, 2.0])
    assert pos._log.dtype == np.float64 and neg._log.dtype == np.complex128
    t = [0.0, 0.25, 1.0, 1.5]
    M, P = _power_profile(neg, t), pair_integral_matrix(neg, 1.5)
    assert M.dtype == P.dtype == np.complex128
    assert not M.imag.any() and not P.imag.any()
    assert np.array_equal(M.real, _power_profile(pos, t))
    real = pair_integral_matrix(pos, 1.5)
    assert _within_ulps(real, P) and not P[0].any() and not P[:, 0].any()


@given(lam=real_spectra, t=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5))
@example(lam=[0.0, 1.0, 0.0], t=[0.0, 1.0])
def test_real_power_profile_agrees_with_the_complex_route(lam, t):
    A = SpectralOperator(lam)
    real = _power_profile(A, t)
    cplx = _power_profile(_complex_route(lam), t)
    assert real.dtype == np.float64 and cplx.dtype == np.complex128
    assert _within_ulps(real, cplx)
    zero = np.asarray(lam) == 0
    # 0^0 = 1 and 0^t = 0 for t > 0
    assert np.array_equal(real[:, zero], np.repeat(np.asarray(t)[:, None] == 0, zero.sum(), 1))
    if zero.any():
        for B in (A, _complex_route(lam)):
            with pytest.raises(DomainError, match="0\\^t is undefined"):
                _power_profile(B, [*t, -0.5])


@given(lam=real_spectra, L=st.floats(0.01, 10.0))
@example(lam=[1.0, 1.0, 0.0], L=3.0)
def test_real_pair_integrals_agree_with_the_complex_route(lam, L):
    P = pair_integral_matrix(SpectralOperator(lam), L)
    log = _principal_log(lam)
    Q = _window_integral(log[:, None] + np.conj(log)[None, :], L)
    assert P.dtype == np.float64 and Q.dtype == np.complex128
    assert _within_ulps(P, Q)
    lam = np.asarray(lam)
    zero, one = lam == 0, lam == 1
    assert not P[zero].any() and not P[:, zero].any()
    assert np.all(P[np.ix_(one, one)] == L)  # alpha = 0 exactly
    # tied eigenvalues give equal rows
    assert all(np.array_equal(P[j], P[k]) for j, k in itertools.combinations(range(lam.size), 2)
               if lam[j] == lam[k])


# below and above ln(max float) = 709.78, away from the last ulps of the threshold
near_overflow = st.one_of(st.floats(690.0, 709.7), st.floats(709.9, 730.0))


@given(s=st.floats(0.5, 30.0), c=near_overflow)
def test_powers_near_overflow_agree_or_raise_on_both_routes(s, c):
    # t ln(lambda) = c for the power, L (2 ln lambda) = c for the window
    # integral; a RuntimeWarning fails the test, so overflow stays silent
    lam = [math.exp(s), 0.0, 0.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for route in (SpectralOperator(lam), _complex_route(lam)):
            kernels = (
                lambda: _power_profile(route, [0.0, c / s]),
                lambda: _window_integral(route._log[:, None] + np.conj(route._log), c / (2 * s)),
            )
            for kernel in kernels:
                if c > 709.8:
                    with pytest.raises(DomainError, match="overflowed powers"):
                        kernel()
                else:
                    assert np.isfinite(kernel()).all()


# ---------------------------------------------------------------------------
# the window-length rule: every entry point that takes a window [0, L]


_WINDOW_ENTRY_POINTS = {
    "pair_integral": lambda A, G, S, L: pair_integral(1.0, 0.5, L),
    "semicont_gram": lambda A, G, S, L: semicont_gram(A, G, L),
    "quadrature_gram": lambda A, G, S, L: quadrature_gram(A, G, L),
    "bessel_sum": lambda A, G, S, L: bessel_sum(A, G, L, np.ones(2)),
    "bessel_upper_constant": lambda A, G, S, L: bessel_upper_constant(A, L),
    "multiplier_bounds": lambda A, G, S, L: multiplier_bounds(A, L),
    "TimeGrid": lambda A, G, S, L: TimeGrid(np.array([0.0]), L),
    "TimeGrid.uniform": lambda A, G, S, L: TimeGrid.uniform(4, L),
    "brute_force_completeness": lambda A, G, S, L: brute_force_completeness(A, G, L, 8),
    "find_discretization": lambda A, G, S, L: find_discretization(A, G, L, 0.5),
    "verify_discrete_implies_semicont": lambda A, G, S, L: verify_discrete_implies_semicont(
        A, G, TimeGrid(S.times, 1.0), L),
    "window_scan": lambda A, G, S, L: window_scan(A, G, [L]),
    "reconstruct unweighted": lambda A, G, S, L: reconstruct(A, G, S, L=L),
    "reconstruct riemann": lambda A, G, S, L: reconstruct(A, G, S, mode="riemann", L=L),
}


@pytest.mark.parametrize("L", [0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", list(_WINDOW_ENTRY_POINTS))
def test_every_window_entry_point_rejects_a_bad_length(entry, L):
    # one rule and one message in every layer; an infinite window never
    # reaches numpy arithmetic, so no RuntimeWarning is raised first
    A = SpectralOperator(np.array([1.0, 0.5]))
    G = VectorSet(np.eye(2))
    S = sample(A, G, np.array([1.0, -1.0]), TimeGrid(np.array([0.0, 0.5]), 1.0))
    with pytest.raises(DomainError, match="^interval length must be positive and finite$"):
        _WINDOW_ENTRY_POINTS[entry](A, G, S, L)


@pytest.mark.parametrize("entry", list(_WINDOW_ENTRY_POINTS))
def test_every_window_entry_point_checks_the_window_before_the_generators(entry):
    # finite generators whose eigen-coordinates overflow (1.5e308 * 1.4) meet
    # an infinite window: each route names the window, not the coordinates
    A = SpectralOperator(np.array([1.0, 0.5]), np.array([[0.8, 0.6], [-0.6, 0.8]]))
    G = VectorSet([[1.5e308, 1.5e308]])
    S = sample(A, VectorSet([[1.0, 0.0]]), np.array([1.0, -1.0]),
               TimeGrid(np.array([0.0, 0.5]), 1.0))
    with pytest.raises(DomainError, match="^interval length must be positive and finite$"):
        _WINDOW_ENTRY_POINTS[entry](A, G, S, math.inf)


# ---------------------------------------------------------------------------
# operators and powers


def test_apply_power_identity_at_zero():
    rng = np.random.default_rng(3)
    A = random_normal_operator(rng, 6)
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    (out,) = apply_power_batch(A, [0.0], f)
    np.testing.assert_allclose(out, f, atol=1e-12)


def test_apply_power_zero_eigenvalue():
    A = SpectralOperator(np.array([0.0, 2.0], dtype=complex))
    f = np.array([1.0, 1.0], dtype=complex)
    at_zero, later = apply_power_batch(A, [0.0, 1.5], f)
    np.testing.assert_allclose(at_zero, f, atol=0)
    np.testing.assert_allclose(later, [0.0, 2.0**1.5], atol=1e-12)
    with pytest.raises(DomainError):
        apply_power_batch(A, [1.0, -0.5], f)


def test_apply_power_matches_dense_matrix():
    rng = np.random.default_rng(5)
    A = random_normal_operator(rng, 5)
    f = rng.normal(size=5) + 1j * rng.normal(size=5)
    M = dense_matrix(A)
    one, two = apply_power_batch(A, [1.0, 2.0], f)
    np.testing.assert_allclose(one, M @ f, atol=1e-12)
    np.testing.assert_allclose(two, M @ (M @ f), atol=1e-11)


def test_apply_power_batch_matches_singles():
    rng = np.random.default_rng(9)
    A = random_normal_operator(rng, 4)
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    ts = [0.0, 0.3, 1.0, 1.7]
    batch = apply_power_batch(A, ts, f)
    for i, t in enumerate(ts):
        np.testing.assert_allclose(batch[i], apply_power_batch(A, [t], f)[0], atol=1e-13)


def test_power_entries_reject_non_finite_input():
    # NaN or inf is a bad input, not an overflowed power
    A = SpectralOperator(np.array([1.0, 0.5]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^times must be finite$"):
            apply_power_batch(A, [0.0, bad], np.ones(2))
        with pytest.raises(ValueError, match="^lam must be finite$"):
            pair_integral(bad, 1.0, 1.0)
        with pytest.raises(ValueError, match="^mu must be finite$"):
            pair_integral(0.5, complex(0.5, bad), 1.0)
    with pytest.raises(ValueError, match=r"^times must lie on one axis, got shape \(1, 2\)$"):
        apply_power_batch(A, [[0.0, 1.0]], np.ones(2))
    assert apply_power_batch(A, 1.0, np.ones(2)).tolist() == [[1.0, 0.5]]


def test_operator_validation():
    with pytest.raises(ValueError):
        SpectralOperator(np.array([]))
    with pytest.raises(ValueError):
        SpectralOperator(np.array([np.inf + 0j]))
    with pytest.raises(DimensionMismatch):
        SpectralOperator(np.ones(3), np.eye(2))
    skew = np.eye(3) * 2.0  # columns not unit norm
    with pytest.raises(ValueError):
        SpectralOperator(np.ones(3), skew)
    # a real basis stored as complex is checked by the complex product
    rng = np.random.default_rng(11)
    Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    SpectralOperator(np.ones(4), Q.astype(complex))
    with pytest.raises(ValueError):
        SpectralOperator(np.ones(4), (Q + 1e-6 * rng.normal(size=(4, 4))).astype(complex))
    # an orthonormal real part does not make a basis orthonormal
    with pytest.raises(ValueError):
        SpectralOperator(np.ones(4), Q + 1e-6j * rng.normal(size=(4, 4)))
    # NaN fails every comparison; a non-finite basis must still be rejected, by
    # name, on the real and on the complex product
    for dtype in (float, complex):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="eigenbasis must be finite"):
                SpectralOperator(np.ones(2), np.array([[bad, 0.0], [0.0, 1.0]], dtype=dtype))
        # a basis whose Gram overflows is rejected without a numpy warning
        with pytest.raises(ValueError, match="not orthonormal"):
            SpectralOperator(np.ones(2), np.array([[1e200, 0.0], [0.0, 1.0]], dtype=dtype))


def test_real_basis_check_keeps_one_gram():
    # the orthonormality check holds one d x d product beside the stored copy
    # of the basis, and its difference from the identity is made in place
    rng = np.random.default_rng(53)
    d = 1024
    Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    lam = np.arange(d, dtype=float)
    tracemalloc.start()
    try:
        A = SpectralOperator(lam, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.eigenbasis.dtype == np.float64
    assert peak < 2.5 * Q.nbytes


# each held input array: (build a holder from it, read it back, a valid input, its message)
_HELD_ARRAYS = {
    "eigenvalues": (SpectralOperator, lambda A: A.eigenvalues,
                    np.array([1.0, 0.5j, 0.25]), "eigenvalues"),
    "vectors": (VectorSet, lambda G: G.vectors, np.array([[1.0, 2j], [0.0, 3.0]]), "vectors"),
    "time grid times": (lambda t: TimeGrid(t, 1.0), lambda T: T.times,
                        np.array([0.0, 0.25, 0.5]), "time grid times"),
    "sample values": (lambda v: Samples(v, [0.0, 0.5]), lambda S: S.values,
                      np.array([[1.0, 2j], [3.0, 4.0]]), "sample values"),
    "sample times": (lambda t: Samples(np.ones((2, 3)), t), lambda S: S.times,
                     np.array([0.0, 0.25, 0.5]), "sample times"),
}


@pytest.mark.parametrize("name", list(_HELD_ARRAYS))
def test_held_arrays_are_finite_read_only_copies(name):
    build, read, given, what = _HELD_ARRAYS[name]
    for bad in (np.nan, np.inf, -np.inf):
        broken = given.copy()
        broken.flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{what} must be finite$"):
            build(broken)
    given = given.copy()
    held = read(build(given))
    assert not held.flags.writeable and held.tolist() == given.tolist()
    with pytest.raises(ValueError):
        held.flat[0] = 7.0
    # the holder keeps its own copy, also of an input already in its dtype
    given.flat[0] = 7.0
    assert held.flat[0] != 7.0


def test_a_non_finite_entry_is_reported_before_a_wrong_shape():
    with pytest.raises(ValueError, match="^sample values must be finite$"):
        Samples([np.nan], [0.0, 0.5])
    with pytest.raises(ValueError, match="^vectors must be finite$"):
        VectorSet(np.full((2, 2, 2), np.inf))


def test_eigenvalues_and_grid_times_lie_on_one_axis():
    # read flat, an identity matrix would be the spectrum 1, 0, 0, 1
    with pytest.raises(ValueError, match=r"^eigenvalues must lie on one axis, got shape \(2, 2\)$"):
        SpectralOperator(np.eye(2))
    with pytest.raises(ValueError, match=r"^time grid times must lie on one axis, got shape"):
        TimeGrid([[0.0, 0.5]], 1.0)
    # a scalar and a one-axis array are read as they were
    assert SpectralOperator(0.5).eigenvalues.tolist() == [0.5]
    assert TimeGrid(0.0, 1.0).times.tolist() == [0.0]
    assert TimeGrid(np.array([0.0, 0.5]), 1.0).times.tolist() == [0.0, 0.5]


def _bool_sites():
    A = heat_cycle_operator(4, 1.0)
    G = VectorSet(np.eye(4)[:1])
    return {
        "TimeGrid.uniform n": lambda b: TimeGrid.uniform(b, 1.0),
        "TimeGrid L": lambda b: TimeGrid([0.0], b),
        "quadrature_gram panels": lambda b: quadrature_gram(A, G, 1.0, panels=b),
        "brute_force_completeness grid_points": lambda b: brute_force_completeness(
            A, G, 1.0, grid_points=b),
        "heat_cycle_operator d": lambda b: heat_cycle_operator(b, 1.0),
        "heat_cycle_operator diffusion": lambda b: heat_cycle_operator(4, b),
        "Samples.from_records generators": lambda b: Samples.from_records(
            [SampleRecord(1, 0.0, 1.0)], b),
        "find_discretization max_points": lambda b: find_discretization(
            A, G, 1.0, 0.5, max_points=b),
        "SampleRecord generator_index": lambda b: SampleRecord(b, 0.0, 1.0),
        "pair_integral L": lambda b: pair_integral(0.5, 0.5, b),
        "semicont_gram L": lambda b: semicont_gram(A, G, b),
        "window_scan lengths": lambda b: window_scan(A, G, [b, 2.0]),
        "SpectralOperator tolerance": lambda b: SpectralOperator([1.0], tolerance=b),
        "run_entry d": lambda b: run_entry("example-frlrbd", d=b),
        **{f"run_entry {entry.name} L": functools.partial(run_entry, entry.name, 8)
           for entry in repro_catalog()},
    }


@pytest.mark.parametrize("site", list(_bool_sites()))
@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy bool"])
def test_a_bool_is_not_a_count_a_window_length_or_a_tolerance(site, flag):
    # int(True) == 1 and float(True) == 1.0, but a bool is a flag, not a number
    with pytest.raises(TypeError, match="bool"):
        _bool_sites()[site](flag)


def test_catalog_truncation_is_an_integer_count():
    # as the other counts: a float is a TypeError here, not deep inside numpy
    for entry in ("example-frlrbd", "example-4.4"):
        for d in (2.5, 16.5, 16.0):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                run_entry(entry, d=d)
    ok, _ = run_entry("example-frlrbd", d=np.int64(4))
    assert ok


def test_array_holders_compare_by_identity():
    # == on arrays is elementwise, so these compare and hash as objects
    rng = np.random.default_rng(59)
    Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    A = SpectralOperator([1.0, 0.5, 0.25], Q)
    B = SpectralOperator(A.eigenvalues, A.eigenbasis)
    G = VectorSet(np.ones((2, 3)))
    T = TimeGrid.uniform(4, 1.0)
    gram = semicont_gram(A, G, 1.0)
    result = reconstruct(A, G, sample(A, G, np.arange(3.0), T))
    for x, y in ((A, B), (G, VectorSet(G.vectors)), (T, TimeGrid(T.times, T.L)),
                 (gram, semicont_gram(A, G, 1.0)),
                 (result, reconstruct(A, G, sample(A, G, np.arange(3.0), T)))):
        assert x == x and x != y
        assert x in [y, x] and y not in [x]
        assert {x: 1, y: 2}[x] == 1
    # results that hold such objects compare without raising
    first, second = (find_discretization(A, G, 1.0, 0.5) for _ in range(2))
    assert first == first and first != second
    assert first.grid.times.tolist() == second.grid.times.tolist()


def test_operator_properties_and_adjoint():
    rng = np.random.default_rng(13)
    U = random_unitary(rng, 4)
    lam = np.array([2.0, -0.5, 1j, 0.25 - 0.25j])
    A = SpectralOperator(lam, U)
    assert A.dimension == 4
    assert abs(A.operator_norm - 2.0) < 1e-15
    assert abs(A.min_modulus - abs(lam[3])) < 1e-15
    assert A.is_invertible
    assert not A.is_self_adjoint
    # arrays are locked
    with pytest.raises(ValueError):
        A.eigenvalues[0] = 5.0


def test_eigenbasis_round_trip():
    rng = np.random.default_rng(17)
    A = random_normal_operator(rng, 6)
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    np.testing.assert_allclose(A.from_eigenbasis(A.to_eigenbasis(f)), f, atol=1e-12)
    with pytest.raises(DimensionMismatch, match="^coordinate length 5 does not match"):
        A.from_eigenbasis(f[:5])


def test_to_eigenbasis_rejects_non_finite_vectors():
    rng = np.random.default_rng(29)
    for basis in (None, random_unitary(rng, 3)):
        A = SpectralOperator(np.ones(3), basis)
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
            for shape in ((3,), (2, 3)):
                v = np.ones(shape, dtype=complex)
                v[..., 1] = bad
                with pytest.raises(ValueError, match="vectors must be finite"):
                    A.to_eigenbasis(v)


def _one_zero_column(v):
    """v with its second column zeroed, so a gather would copy all but one row."""
    v = v.copy()
    v[..., 1] = 0.0
    return v


def test_to_eigenbasis_does_not_copy_the_basis():
    rng = np.random.default_rng(19)
    d = 512
    A = SpectralOperator(np.arange(d, dtype=complex), random_unitary(rng, d))
    v = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
    for vecs in (v, _one_zero_column(v[0])):
        tracemalloc.start()
        try:
            A.to_eigenbasis(vecs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < A.eigenbasis.nbytes / 4


@pytest.mark.parametrize("d", [1, 2, 7, 64, 200])
def test_to_eigenbasis_bitwise_equals_conjugated_basis_product(d):
    rng = np.random.default_rng(23 + d)
    U = random_unitary(rng, d)
    A = SpectralOperator(np.ones(d), U)
    for shape in [(d,), (1, d), (5, d)]:
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert A.to_eigenbasis(v).tobytes() == (v @ np.conj(U)).tobytes()
    # a real basis is multiplied in real arithmetic, which rounds
    # differently from the complex product; the two agree to a GEMM bound
    Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    v = rng.normal(size=(3, d))
    got = SpectralOperator(np.ones(d), Q).to_eigenbasis(v)
    _assert_within_gemm_bound(got, v @ np.conj(Q.astype(complex)), v, Q)


def _assert_within_gemm_bound(got, want, v, Q):
    """got and want are two roundings of v @ Q for real Q.

    Each part of each entry is a sum of at most 2d products, so both lie
    within gamma_2d (|part of v| @ |Q|) of the exact value, gamma_n =
    n u / (1 - n u) with u the unit roundoff: they differ by at most twice that.
    """
    u = np.finfo(np.float64).eps / 2
    n = 2 * Q.shape[0]
    gamma = n * u / (1 - n * u)
    for part in (np.real, np.imag):
        bound = 2 * gamma * (np.abs(part(v)) @ np.abs(Q))
        assert (np.abs(part(got) - part(want)) <= bound).all()


def test_eigenbasis_dtype_follows_the_input(tmp_path):
    rng = np.random.default_rng(31)
    Q = np.linalg.qr(rng.normal(size=(5, 5)))[0]
    # (basis, its stored dtype, the dtype of real vectors' coordinates): the
    # coordinates are float64 exactly when they have no imaginary part, so a
    # complex-typed real basis gives real ones too
    for basis, dtype, coords in [(Q, np.float64, np.float64),
                                 (Q.tolist(), np.float64, np.float64),
                                 (np.eye(5, dtype=int), np.float64, np.float64),
                                 (Q.astype(complex), np.complex128, np.float64),
                                 (random_unitary(rng, 5), np.complex128, np.complex128),
                                 (None, None, np.float64)]:
        A = SpectralOperator(np.arange(1.0, 6.0), basis)
        if basis is not None:
            assert A.eigenbasis.dtype == dtype
            assert not A.eigenbasis.flags.writeable
        for vecs in (np.ones(5), np.eye(5)[[0, 3]]):
            assert A.to_eigenbasis(vecs).dtype == coords
            assert A.to_eigenbasis(vecs + 0j).dtype == coords
        # the rule reads the values, not the basis: zero vectors have zero coordinates
        assert A.to_eigenbasis(np.zeros((2, 5), dtype=complex)).dtype == np.float64
        assert A.to_eigenbasis(np.ones(5) + 0.5j).dtype == np.complex128
        assert A.to_eigenbasis(np.eye(5)[[1]] * 1j).dtype == np.complex128
        # back from real coordinates, numpy's rule: the basis's dtype
        assert A.from_eigenbasis(np.ones(5)).dtype == (dtype or np.complex128)
    # a saved file holds the basis's own dtype: a real basis reloads float64
    # with the same bytes, and the loaded operator writes the same document
    # again; a document of [re, im] pairs loads it complex
    A = SpectralOperator(np.arange(1.0, 6.0), Q)
    path = tmp_path / "op.json"
    save_operator(A, path)
    text = path.read_text(encoding="utf-8")
    B = load_operator(path)
    assert B.eigenbasis.dtype == np.float64
    assert B.eigenbasis.tobytes() == Q.tobytes()
    save_operator(B, path)
    assert path.read_text(encoding="utf-8") == text
    C = operator_from_dict(json.loads(json.dumps(operator_to_dict_by_element(A))))
    assert C.eigenbasis.dtype == np.complex128
    assert C.eigenbasis.tobytes() == Q.astype(complex).tobytes()


@pytest.mark.parametrize("d", [1, 2, 7, 64, 200, 513])
def test_real_basis_products_agree_with_the_complex_basis_products(d):
    rng = np.random.default_rng(37 + d)
    Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    A = SpectralOperator(np.ones(d), Q)
    B = SpectralOperator(np.ones(d), Q.astype(complex))
    for shape in [(d,), (1, d), (3, d), (2, 3, d)]:
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = A.to_eigenbasis(v)
        assert got.shape == shape
        _assert_within_gemm_bound(got, B.to_eigenbasis(v), v, Q)
        got = A.from_eigenbasis(v)
        assert got.shape == shape
        _assert_within_gemm_bound(got, B.from_eigenbasis(v), v, Q.T)


def test_real_basis_products_do_not_copy_the_basis():
    rng = np.random.default_rng(41)
    d = 512
    A = SpectralOperator(np.arange(d, dtype=float), np.linalg.qr(rng.normal(size=(d, d)))[0])
    v = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
    for product, vecs in ((A.to_eigenbasis, v), (A.from_eigenbasis, v),
                          (A.to_eigenbasis, _one_zero_column(v[0]))):
        tracemalloc.start()
        try:
            product(vecs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < A.eigenbasis.nbytes / 4


def _full_product(v, U):
    """v conj(U) over every column of v: the product without the support gather."""
    if np.isrealobj(U):
        return _product(v, U)
    return v @ np.conj(U)


def _assert_within_complex_gemm_bound(got, want, v, U):
    """got and want are two roundings of v conj(U).

    Each part of each entry is a sum of at most 2d products whose moduli
    add up to at most (|v| @ |U|), so both lie within gamma_2d times that of
    the exact value.
    """
    u = np.finfo(np.float64).eps / 2
    n = 2 * U.shape[0]
    bound = 2 * n * u / (1 - n * u) * (np.abs(v) @ np.abs(U))
    for part in (np.real, np.imag):
        assert (np.abs(part(got) - part(want)) <= bound).all()


@pytest.mark.parametrize("real", [True, False], ids=["real_basis", "complex_basis"])
def test_to_eigenbasis_multiplies_only_the_support(real):
    rng = np.random.default_rng(43)
    d = 96
    U = np.linalg.qr(rng.normal(size=(d, d)))[0] if real else random_unitary(rng, d)
    A = SpectralOperator(np.ones(d), U)

    # one-hot rows, with real, negative and imaginary weights: a row gather
    onehot = np.zeros((4, d), dtype=complex)
    onehot[np.arange(4), [5, 17, 17, 90]] = [1.0, -2.5, 1j, 0.5 - 2j]
    for v in (onehot, onehot[:1], onehot[0], onehot[:2].real, 1j * onehot[:2].real):
        assert A.to_eigenbasis(v).tobytes() == _full_product(v, U).tobytes()

    # general sparse rows, some with imaginary nonzeros only: the same sum
    # without its zero terms
    sparse = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
    sparse[rng.random((3, d)) < 0.7] = 0.0
    sparse[:, 40:60] = 0.0
    # nonzero in at most a quarter of the columns, so gathered
    narrow = sparse.copy()
    narrow[:, d // 4:] = 0.0
    for v in (sparse, sparse.real, sparse[1], 1j * sparse.imag, narrow, narrow[0]):
        got = A.to_eigenbasis(v)
        assert got.shape == np.shape(v)
        _assert_within_complex_gemm_bound(got, _full_product(v, U), v, U)

    # an all-zero input gathers nothing, and an all-zero row comes out zero
    # (its zeros' signs may differ from the full product's)
    for v in (np.zeros(d), np.zeros((2, d)), np.zeros((0, d)), 1j * onehot.real):
        got = A.to_eigenbasis(v)
        assert got.shape == v.shape and np.array_equal(got, _full_product(v, U))

    # a NaN outside the other rows' support is still found
    for bad in (np.nan, complex(0.0, np.inf)):
        v = onehot.copy()
        v[2, 60] = bad
        with pytest.raises(ValueError, match="vectors must be finite"):
            A.to_eigenbasis(v)


@pytest.mark.parametrize("d", [512, 1024, 2048])
def test_real_basis_completeness_certificates_match_the_complex_basis(d):
    # the span benchmark's systems: one sensor, two antipodal, three; A is
    # checked again and again, as the benchmark does, and each B is new
    A = heat_cycle_operator(d, 1.0)
    assert A.eigenbasis.dtype == np.float64
    s = d // 3
    for sensors in ([s], [s, s + d // 2], [1, s, d - 5]):
        vecs = np.zeros((len(sensors), d), dtype=complex)
        vecs[np.arange(len(sensors)), sensors] = 1.0
        G = VectorSet(vecs)
        B = SpectralOperator(A.eigenvalues, A.eigenbasis.astype(complex))
        fresh = completeness_check(B, G)
        assert completeness_check(A, G) == fresh
        assert completeness_check(A, G) == fresh


def test_tolerance_default_and_env(monkeypatch):
    A = SpectralOperator(np.ones(2))
    assert A.tolerance == 1e-10
    monkeypatch.setenv("DYNSAMP_TOL", "1e-6")
    assert default_tolerance() == 1e-6
    B = SpectralOperator(np.ones(2))
    assert B.tolerance == 1e-6
    # explicit tolerance wins over the environment
    C = SpectralOperator(np.ones(2), tolerance=1e-12)
    assert C.tolerance == 1e-12


def test_tolerance_must_be_finite(monkeypatch):
    for tol in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="positive and finite"):
            SpectralOperator(np.ones(2), tolerance=tol)
    for value in ("inf", "nan", "0", "-1e-9"):
        monkeypatch.setenv("DYNSAMP_TOL", value)
        with pytest.raises(ValueError, match="DYNSAMP_TOL must be positive and finite"):
            default_tolerance()
        with pytest.raises(ValueError, match="DYNSAMP_TOL must be positive and finite"):
            rank_tolerance_factor()


# ---------------------------------------------------------------------------
# eigenvalue grouping


def test_group_eigenspaces_distinct_and_repeated():
    A = SpectralOperator(np.array([1.0, 2.0, 1.0, 3.0], dtype=complex))
    assert group_eigenspaces(A).tolist() == [0, 1, 0, 2]
    # a fully degenerate spectrum is one group, found without pairwise work
    assert group_eigenspaces(SpectralOperator(np.ones(4096))).tolist() == [0] * 4096


def test_group_eigenspaces_near_tie_cluster_is_one_group():
    # 4096 distinct values, all within the tolerance of each other: one
    # group, found without comparing every pair
    A = SpectralOperator(1 + 1e-14 * np.arange(4096))
    assert group_eigenspaces(A).tolist() == [0] * 4096
    # a chain 20 tolerances long on the real axis is one group too
    A = SpectralOperator(1 + 5e-13 * np.arange(4096))
    assert group_eigenspaces(A).tolist() == [0] * 4096


def test_group_eigenspaces_transitive_chain():
    lam = np.array([1.0, 1.0 + 0.9e-10, 1.0 + 1.8e-10, 2.0], dtype=complex)
    A = SpectralOperator(lam, tolerance=1e-10)
    assert group_eigenspaces(A).tolist() == [0, 0, 0, 1]
    # with a tighter tolerance the chain splits apart
    B = SpectralOperator(lam, tolerance=1e-12)
    assert group_eigenspaces(B).tolist() == [0, 1, 2, 3]


GROUP_TOL = 1e-10
# clusters around a few centres, one of them zero and one on the branch cut
# at -1; members sit at 0, 0.3, 0.7 or 2 tolerances from their centre, so
# pairs fall on both sides of the tolerance and chains form through centres
clustered_eigenvalue = st.builds(
    lambda c, step, u: c + step * GROUP_TOL * u,
    st.sampled_from([0j, -1 + 0j, 1 + 0j, 0.5 + 0.5j, -0.25 + 2j]),
    st.sampled_from([0.0, 0.3, 0.7, 2.0]),
    st.sampled_from([1, -1, 1j, -1j, (0.6 + 0.8j)]),
)


# a few clusters of exact ties, up to 64 copies each, in shuffled order
tied_spectrum = st.lists(
    st.tuples(clustered_eigenvalue, st.integers(1, 64)), min_size=1, max_size=3
).flatmap(lambda cl: st.permutations([z for z, k in cl for _ in range(k)]))


@given(lam=st.one_of(st.lists(clustered_eigenvalue, min_size=1, max_size=16), tied_spectrum))
@example(lam=[1.0, 1.0, 2.0, 1.0])  # exact ties
@example(lam=[0.0, 0.5e-10, 0.2e-10 + 5j])  # a tie split by a far value in real order
@example(lam=[0.0, 0.7e-10, 1.4e-10, 3e-10])  # a chain and a zero eigenvalue
@example(lam=[-1.0, 2.0, -1.0 - 1e-11j])  # a tie across the branch cut
@example(lam=[0.5 + 0.5j] * 64)  # a fully degenerate spectrum
@example(lam=[1.0, 1.0 + 0.7e-10] * 32 + [1.0 + 1.4e-10])  # tied clusters chained
@example(lam=[0.0, -0.0, complex(-0.0, 0.0), 1e-11])  # signed zeros are one value
@example(lam=[1.0 + 0.6e-10 * k for k in range(40)])  # a chain many tolerances long
@example(lam=[0.6e-10j * k for k in range(40)])  # a vertical chain
@example(lam=[1.0 + (0.6 + 0.8j) * 0.9e-10 * k for k in range(40)])  # a diagonal chain
# no gap along either axis, until the cut along the imaginary axis opens a
# gap along the real axis: a third cut
@example(lam=[0.0, 0.9e-10 + 5e-10j, 1.8e-10])
# no gap along either axis, yet the two values are farther apart than tol
@example(lam=[0.0, 0.9e-10 + 0.9e-10j])
# gaps between these overflow to inf
@example(lam=[1.7e308, -1.7e308, 1.7e308j, -1.7e308j])
# near 1e5 one ulp is 2^-36, so 6 ulps are within the tolerance and 7 are not
@example(lam=[1e5 + k * 2.0**-36 for k in (0, 6, 13, 20, 30)] + [1e5 + (4 + 5j) * 2.0**-36])
# a far value of modulus 1e12 next to near ties
@example(lam=[3.0, 3.0 + 0.5e-10, 3.0 + 2.5e-10, 3.0 + 1e-10j, 1e12])
def test_group_eigenspaces_matches_pairwise_oracle(lam):
    A = SpectralOperator(np.array(lam, dtype=complex), tolerance=GROUP_TOL)
    labels = group_eigenspaces(A)
    assert labels.shape == (A.dimension,) and labels.dtype.kind == "i"
    groups = groups_from_labels(A.eigenvalues, labels)
    assert groups == group_eigenspaces_pairwise(A.eigenvalues, GROUP_TOL)


# ---------------------------------------------------------------------------
# vector sets and JSON interchange


def test_vector_set_shapes():
    V = VectorSet(np.ones(3))
    assert len(V) == 1 and V.dimension == 3
    with pytest.raises(ValueError, match="^vectors must form a nonempty 2-D array$"):
        VectorSet(np.empty((0, 3)))
    with pytest.raises(ValueError, match="^vectors must be finite$"):
        VectorSet(np.array([[1.0, np.nan]]))


def test_operator_json_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    A = random_normal_operator(rng, 4)
    path = tmp_path / "op.json"
    save_operator(A, path)
    B = load_operator(path)
    np.testing.assert_allclose(B.eigenvalues, A.eigenvalues, atol=0)
    np.testing.assert_allclose(B.eigenbasis, A.eigenbasis, atol=0)
    assert B.tolerance == A.tolerance


def test_diagonal_operator_json_keeps_null_basis(tmp_path):
    A = SpectralOperator(np.array([1.0, 2.0], dtype=complex))
    doc = operator_to_dict(A)
    assert doc["eigenbasis"] is None
    B = operator_from_dict(json.loads(json.dumps(doc)))
    assert B.eigenbasis is None


def test_vectors_json_round_trip(tmp_path):
    V = VectorSet(np.array([[1.0, 2.0j], [3.0, -1.0]]))
    path = tmp_path / "vecs.json"
    save_vectors(V, path)
    W = load_vectors(path)
    np.testing.assert_allclose(W.vectors, V.vectors, atol=0)
    # a "labels" key, which older files carry, is ignored like any unknown key
    doc = {**vectors_to_dict(V), "labels": ["a", "b"]}
    assert np.array_equal(vectors_from_dict(doc).vectors, V.vectors)


# signed zeros, subnormals and the extremes of the double range, among
# arbitrary finite values
json_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _complex_array(draw, shape):
    parts = np.array(draw(st.lists(json_parts, min_size=2 * math.prod(shape),
                                   max_size=2 * math.prod(shape))))
    z = np.empty(shape, dtype=np.complex128)
    z.real, z.imag = parts[0::2].reshape(shape), parts[1::2].reshape(shape)
    return z


@st.composite
def json_systems(draw):
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["none", "real", "signed permutation", "complex"]))
    basis = {
        "none": None,
        "real": np.linalg.qr(rng.normal(size=(d, d)))[0],
        "signed permutation": -np.eye(d)[rng.permutation(d)],  # -0.0 off the support
        "complex": random_unitary(rng, d),
    }[kind]
    tol = draw(st.none() | st.floats(1e-14, 1e-3))
    A = SpectralOperator(_complex_array(draw, (d,)), basis, tol)
    m = draw(st.integers(1, 4))
    return A, VectorSet(_complex_array(draw, (m, d)))


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@given(json_systems())
def test_json_documents_match_the_element_by_element_oracle(system):
    # documents of [re, im] pairs, written and read one element at a time,
    # load through the package's decoder to the same bits
    A, G = system
    doc = json.loads(json.dumps(operator_to_dict_by_element(A)))
    B = operator_from_dict(doc)
    lam, basis = operator_arrays_by_element(doc)
    assert np.array_equal(B.eigenvalues, A.eigenvalues)
    assert _bitwise_equal(B.eigenvalues, lam)
    assert B.tolerance == A.tolerance
    if A.eigenbasis is None:
        assert B.eigenbasis is None and basis is None
    else:
        assert np.array_equal(B.eigenbasis, A.eigenbasis)
        assert _bitwise_equal(B.eigenbasis, basis)

    doc = json.loads(json.dumps(vectors_to_dict_by_element(G)))
    W = vectors_from_dict(doc)
    assert np.array_equal(W.vectors, G.vectors)
    assert _bitwise_equal(W.vectors, vectors_array_by_element(doc))


@given(json_systems())
def test_saved_documents_reload_bit_for_bit(tmp_path_factory, system):
    # save_* write every array as its own bytes: -0.0, subnormals and the
    # extremes of the range come back exactly, a real basis as float64
    A, G = system
    path = tmp_path_factory.getbasetemp() / "saved-doc.json"
    save_operator(A, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["eigenvalues"]["dtype"] == "<c16"
    B = load_operator(path)
    assert _bitwise_equal(B.eigenvalues, A.eigenvalues)
    assert B.tolerance == A.tolerance
    if A.eigenbasis is None:
        assert doc["eigenbasis"] is None and B.eigenbasis is None
    else:
        assert doc["eigenbasis"]["dtype"] == A.eigenbasis.dtype.str
        assert B.eigenbasis.dtype == A.eigenbasis.dtype
        assert B.eigenbasis.tobytes() == A.eigenbasis.tobytes()

    save_vectors(G, path)
    W = load_vectors(path)
    assert _bitwise_equal(W.vectors, G.vectors)


def test_json_validation_errors():
    with pytest.raises(ValueError):
        operator_from_dict({"dimension": 2, "eigenvalues": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        operator_from_dict({"dimension": 1})
    with pytest.raises(ValueError):
        vectors_from_dict({"dimension": 2, "vectors": [[[1.0, 0.0]]]})
    with pytest.raises(ValueError):
        vectors_from_dict({"dimension": 2, "vectors": []})
    with pytest.raises(ValueError, match="^operator document must be a JSON object$"):
        operator_from_dict([[1.0, 0.0]])
    with pytest.raises(ValueError, match="^vector document must be a JSON object$"):
        vectors_from_dict([[[1.0, 0.0]]])
    with pytest.raises(ValueError, match="^vector document missing key 'vectors'$"):
        vectors_from_dict({"dimension": 1})


def test_json_dimension_is_optional():
    # without "dimension" the eigenvalue count or the first vector's length
    # sets it; a stated dimension must still match the data
    A = operator_from_dict({"eigenvalues": [[1.0, 0.0], [0.5, 0.0]], "eigenbasis": None})
    assert A.dimension == 2
    G = vectors_from_dict({"vectors": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})
    assert G.dimension == 2 and len(G) == 2
    with pytest.raises(ValueError, match="length 1, expected 2"):
        vectors_from_dict({"vectors": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]})
    with pytest.raises(ValueError, match="dimension field is 3"):
        operator_from_dict({"dimension": 3, "eigenvalues": [[1.0, 0.0], [0.5, 0.0]]})
    with pytest.raises(ValueError, match="expected 3"):
        vectors_from_dict({"dimension": 3, "vectors": [[[1.0, 0.0], [0.0, 0.0]]]})
