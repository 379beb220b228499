import math
import warnings

import numpy as np
import pytest

from dynframes.errors import DimensionMismatch, DomainError, NonHermitian
from dynframes.gram import (
    Gram,
    TimeGrid,
    _check_hermitian,
    bessel_sum,
    discrete_gram,
    quadrature_gram,
    semicont_gram,
)
from dynframes.analysis import frame_bounds
from dynframes.reconstruct import heat_cycle_operator
from dynframes.spectral import (
    SpectralOperator,
    VectorSet,
    load_operator,
    load_vectors,
    operator_from_dict,
    save_operator,
    save_vectors,
)
from dynframes.catalog import gap_pair_system, gaussian_decay_system
from helpers import (
    operator_to_dict_by_element,
    random_normal_operator,
    random_unitary,
    random_vectors,
)


# ---------------------------------------------------------------------------
# time grids


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.5, 1.0]), 2.0)  # must start at 0
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 1.0, 1.0]), 2.0)  # strictly increasing
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 2.0]), 2.0)  # strictly below L
    with pytest.raises(DomainError):
        TimeGrid(np.array([0.0]), 0.0)
    with pytest.raises(ValueError, match="^a time grid needs at least one point$"):
        TimeGrid(np.array([]), 1.0)
    # a non-finite time is named as such, not blamed on the ordering
    for times in ([0.0, np.nan], [0.0, np.inf], [np.nan], [0.0, -np.inf, 0.5]):
        with pytest.raises(ValueError, match="^time grid times must be finite$"):
            TimeGrid(np.array(times), 1.0)
    with pytest.raises(ValueError, match="^uniform grid needs n >= 1 points$"):
        TimeGrid.uniform(0, 1.0)
    # a count that is not an integer is an error, not truncated to 2 points
    for n in (2.7, 2.0, np.float64(3.0)):
        with pytest.raises(TypeError):
            TimeGrid.uniform(n, 1.0)
    for n in (3, np.int64(3), np.uint8(3)):
        assert len(TimeGrid.uniform(n, 1.0)) == 3


def test_time_grid_gaps_and_weights():
    T = TimeGrid(np.array([0.0, 0.25, 1.0]), 2.0)
    assert T.max_gap == 1.0  # the final gap up to L counts
    np.testing.assert_allclose(T.riemann_weights(), [0.25, 0.75, 1.0])
    assert T.riemann_weights().sum() == pytest.approx(2.0)

    U = TimeGrid.uniform(4, 1.0)
    np.testing.assert_allclose(U.times, [0.0, 0.25, 0.5, 0.75])
    assert U.max_gap == pytest.approx(0.25)
    single = TimeGrid(np.array([0.0]), 3.0)
    assert single.max_gap == 3.0


# ---------------------------------------------------------------------------
# closed-form gram


def test_identity_system_gram_is_window_times_identity():
    d = 5
    A = SpectralOperator(np.ones(d))
    G = VectorSet(np.eye(d))
    for L in (0.5, 1.0, 4.0):
        S = semicont_gram(A, G, L)
        np.testing.assert_allclose(S.matrix, L * np.eye(d), atol=1e-15)
        assert S.method == "closed_form"


def test_gram_dimension_mismatch():
    A = SpectralOperator(np.ones(3))
    G = VectorSet(np.eye(4))
    with pytest.raises(DimensionMismatch):
        semicont_gram(A, G, 1.0)
    with pytest.raises(DimensionMismatch):
        discrete_gram(A, G, TimeGrid.uniform(4, 1.0))
    with pytest.raises(DimensionMismatch):
        bessel_sum(A, G, 1.0, np.ones(3))


def test_gram_basis_covariance():
    rng = np.random.default_rng(31)
    d, m = 5, 3
    lam = rng.uniform(0.3, 2.0, d) * np.exp(1j * rng.uniform(-np.pi, np.pi, d))
    vecs = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
    diag_S = semicont_gram(SpectralOperator(lam), VectorSet(vecs), 1.0).matrix

    U = random_unitary(rng, d)
    rotated = SpectralOperator(lam, U)
    rotated_vecs = VectorSet(vecs @ U.T)  # rows become U @ g
    S = semicont_gram(rotated, rotated_vecs, 1.0).matrix
    np.testing.assert_allclose(S, U @ diag_S @ U.conj().T, atol=1e-9)


def test_closed_form_matches_quadrature_on_random_systems():
    rng = np.random.default_rng(37)
    for _ in range(30):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        A = random_normal_operator(rng, d)
        G = random_vectors(rng, m, d)
        L = float(rng.choice([0.5, 1.0, 2.0]))
        closed = semicont_gram(A, G, L).matrix
        quad = quadrature_gram(A, G, L, panels=4096).matrix
        assert np.max(np.abs(closed - quad)) <= 1e-8


def test_quadrature_gram_validation_and_identity():
    A = SpectralOperator(np.ones(3))
    G = VectorSet(np.eye(3))
    with pytest.raises(ValueError):
        quadrature_gram(A, G, 1.0, panels=3)
    with pytest.raises(ValueError):
        quadrature_gram(A, G, 1.0, panels=0)
    S = quadrature_gram(A, G, 2.0, panels=2)
    np.testing.assert_allclose(S.matrix, 2.0 * np.eye(3), atol=1e-14)
    assert S.method == "quadrature"
    # a panel count that is not an integer is an error, not truncated to 2 panels
    for panels in (2.5, 2.0):
        with pytest.raises(TypeError):
            quadrature_gram(A, G, 2.0, panels=panels)
    assert np.array_equal(quadrature_gram(A, G, 2.0, panels=np.int64(2)).hat, S.hat)


def test_gram_monotone_in_window():
    rng = np.random.default_rng(41)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        A = random_normal_operator(rng, d)
        G = random_vectors(rng, int(rng.integers(1, 4)), d)
        small = semicont_gram(A, G, 0.7).matrix
        big = semicont_gram(A, G, 1.9).matrix
        gap_eigs = np.linalg.eigvalsh(big - small)
        assert gap_eigs.min() >= -1e-10 * max(1.0, np.abs(big).max())


# ---------------------------------------------------------------------------
# bessel sums


def test_bessel_sum_matches_quadratic_form():
    rng = np.random.default_rng(43)
    for _ in range(20):
        d = int(rng.integers(1, 7))
        A = random_normal_operator(rng, d)
        G = random_vectors(rng, int(rng.integers(1, 5)), d)
        f = rng.normal(size=d) + 1j * rng.normal(size=d)
        L = float(rng.choice([0.5, 1.0, 2.0]))
        S = semicont_gram(A, G, L).matrix
        direct = float(np.vdot(f, S @ f).real)
        streamed = bessel_sum(A, G, L, f)
        assert abs(direct - streamed) <= 1e-10 * max(1.0, abs(direct))


def test_bessel_sum_rejects_a_non_finite_state():
    A, G, _ = gaussian_decay_system(4)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="vectors must be finite"):
            bessel_sum(A, G, 1.0, np.array([1.0, bad, 0.0, 0.0]))


def test_bessel_sum_overflow_is_a_domain_error():
    # the Gram is finite; only the energy of this finite state overflows
    A, G = gap_pair_system(0.5)
    with pytest.raises(DomainError, match=r"^energy sum is non-finite \(overflowed powers\)$"):
        bessel_sum(A, G, 1.0, np.array([1e200, 1e200]))


def test_bessel_sum_gaussian_decay_frozen_values():
    # independent scalar series sum (1 - e^{-2n^2}) / (2 n^2) over the modes
    # whose eigenvalue e^{-n^2} is representable (n >= 28 underflows to zero
    # and is silent in the stored spectrum, so the series drops it too)
    frozen = {
        8: 0.696001450784193,
        16: 0.724463691429589,
        32: 0.7365776425292616,
    }
    halves = {
        8: 0.7637110260770975,
        16: 0.7921732667224936,
        32: 0.8070836314139621,
    }
    for d, value in frozen.items():
        A, G, f = gaussian_decay_system(d)
        measured = bessel_sum(A, G, 1.0, f)
        series = sum(
            (1.0 - math.exp(-2.0 * n * n)) / (2.0 * n * n)
            for n in range(1, d + 1)
            if math.exp(-float(n * n)) > 0.0
        )
        assert measured == pytest.approx(series, abs=1e-12)
        assert measured == pytest.approx(value, abs=1e-12)
        energy = float(np.vdot(f, f).real)
        assert 0.5 * energy == pytest.approx(halves[d], abs=1e-12)
        assert measured < 0.5 * energy


# ---------------------------------------------------------------------------
# discrete grams


def test_discrete_gram_at_zero_time_is_outer_product_sum():
    rng = np.random.default_rng(47)
    d, m = 4, 3
    A = random_normal_operator(rng, d)
    G = random_vectors(rng, m, d)
    T = TimeGrid(np.array([0.0]), 1.0)
    S = discrete_gram(A, G, T).matrix
    manual = np.zeros((d, d), dtype=complex)
    for g in G:
        manual += np.outer(g, g.conj())
    np.testing.assert_allclose(S, manual, atol=1e-10)


def test_discrete_gram_weight_options():
    A = SpectralOperator(np.array([0.5, 2.0], dtype=complex))
    G = VectorSet(np.eye(2))
    T = TimeGrid(np.array([0.0, 0.5]), 1.0)
    plain = discrete_gram(A, G, T)
    riemann = discrete_gram(A, G, T, weights="riemann")
    assert plain.method == riemann.method == "discrete"
    np.testing.assert_allclose(riemann.matrix, 0.5 * plain.matrix, atol=1e-14)
    # the weighting is named, never given as an array
    for other in ("simpson", [0.5, 0.5], np.array([0.5, 0.5]), np.array([0.5])):
        with pytest.raises(ValueError, match="unknown weighting"):
            discrete_gram(A, G, T, weights=other)


def test_left_rule_overshoots_for_decaying_diagonal():
    # decreasing integrand: every left Riemann sum sits above the integral,
    # and refining the grid walks down toward it from above
    A = SpectralOperator(np.array([0.5], dtype=complex))
    G = VectorSet(np.array([[1.0]], dtype=complex))
    exact = (1.0 - 0.25) / (2.0 * math.log(2.0))
    frozen = {1: 1.0, 2: 0.75, 4: 0.640165, 8: 0.589239}
    prev = math.inf
    for n, value in frozen.items():
        T = TimeGrid.uniform(n, 1.0)
        S = discrete_gram(A, G, T, weights="riemann").matrix
        got = float(S[0, 0].real)
        assert got == pytest.approx(value, abs=1e-6)
        assert got < prev
        assert got > exact
        prev = got
    # first-order convergence: halving the mesh halves the error
    errs = []
    for n in (512, 1024, 2048):
        S = discrete_gram(A, G, TimeGrid.uniform(n, 1.0), weights="riemann").matrix
        errs.append(float(S[0, 0].real) - exact)
    assert errs[0] > errs[1] > errs[2] > 0
    assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.05)
    assert errs[2] / errs[1] == pytest.approx(0.5, abs=0.05)


def test_riemann_gram_tracks_window_gram_on_gap_system():
    A, G = gap_pair_system(0.25)
    S_window = semicont_gram(A, G, 1.0).matrix
    diffs = []
    for n in (256, 512):
        S_n = discrete_gram(A, G, TimeGrid.uniform(n, 1.0), weights="riemann").matrix
        diffs.append(float(np.max(np.abs(S_n - S_window))))
    assert diffs[0] <= 2.5e-3
    assert diffs[1] / diffs[0] == pytest.approx(0.5, abs=0.15)


# ---------------------------------------------------------------------------
# container validation and interchange


def test_gram_containers_reject_asymmetry():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    for method in ("closed_form", "discrete", "quadrature"):
        with pytest.raises(NonHermitian):
            Gram(bad, method)
    with pytest.raises(DimensionMismatch):
        Gram(np.ones((2, 3)), "closed_form")
    with pytest.raises(DimensionMismatch):
        Gram(np.eye(2), "discrete", eigenbasis=np.eye(3))
    # a non-finite hat is named after the route that built it
    inf = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError, match="^semi-continuous gram has non-finite"):
        Gram(inf, "closed_form")
    with pytest.raises(DomainError, match="^discrete gram has non-finite"):
        Gram(inf, "discrete")
    # in one triangle of a real or a complex matrix, with no numpy warning: the
    # Hermitian check's scale is finite exactly when the matrix is, and it halves
    # inside its errstate, since 0.5 * complex(inf, 0) has a NaN part
    for dtype, entries in ((float, (np.inf, -np.inf, np.nan)),
                           (complex, (np.inf, complex(0.0, np.inf), complex(np.nan, 0.0),
                                      complex(0.0, np.nan), complex(np.inf, np.nan)))):
        for bad in entries:
            S = np.eye(3, dtype=dtype)
            S[2, 0] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(DomainError, match="^discrete gram has non-finite"):
                    Gram(S, "discrete")
                with pytest.raises(DomainError, match="^frame_bounds input has non-finite"):
                    frame_bounds(S)


def test_stacked_hermitian_check_scales_each_matrix_on_its_own():
    rng = np.random.default_rng(5)
    for dtype in (float, complex):
        mats = [random_hermitian_noise(rng, 4, dtype) for _ in range(3)]
        mats[1] *= 1e-200  # its asymmetry is tiny next to the others, and so is its scale
        mats.append(np.zeros((4, 4), dtype=dtype))  # scale 0 passes, with no NaN
        stack = np.stack(mats)
        hats = _check_hermitian(stack, "stack", stack=True)
        assert hats.dtype == stack.dtype
        for hat, S in zip(hats, mats):
            assert hat.tobytes() == _check_hermitian(S, "one").tobytes()
        # each matrix against its own scale, and the first failure names the error
        skew = np.eye(4, dtype=dtype)
        skew[0, 1] = 1e-3
        bad = stack.copy()
        bad[1] = 1e-200 * skew
        bad[3, 2, 0] = np.inf
        with pytest.raises(NonHermitian, match=r"^stack asymmetry 1\.000e-203 exceeds tolerance$"):
            _check_hermitian(bad, "stack", stack=True)
        with pytest.raises(DomainError, match="^stack has non-finite entries"):
            _check_hermitian(bad[2:], "stack", stack=True)
    # a stack is no Gram, and a plain matrix is no stack
    with pytest.raises(DimensionMismatch, match="must be square"):
        Gram(np.stack([np.eye(2)] * 2), "closed_form")
    with pytest.raises(DimensionMismatch, match="must be square"):
        frame_bounds(np.stack([np.eye(2)] * 2))
    with pytest.raises(DimensionMismatch, match="must be square"):
        _check_hermitian(np.eye(2), "stack", stack=True)


def test_grams_hold_eigen_coordinates_and_build_the_matrix_on_request():
    rng = np.random.default_rng(71)
    eps = np.finfo(float).eps
    for k in range(12):
        d = int(rng.integers(1, 9))
        A = random_normal_operator(rng, d, max_mod=2.0, with_basis=k % 3 != 0)
        G = random_vectors(rng, int(rng.integers(1, 4)), d)
        L = float(rng.uniform(0.25, 2.0))
        T = TimeGrid.uniform(d + 2, L)
        for gram in (semicont_gram(A, G, L), discrete_gram(A, G, T),
                     discrete_gram(A, G, T, weights="riemann")):
            frame_bounds(gram)
            assert "matrix" not in vars(gram)
            assert gram.eigenbasis is A.eigenbasis
            assert not gram.hat.flags.writeable
            S = gram.matrix
            assert gram.matrix is S
            assert not S.flags.writeable
            with pytest.raises(ValueError):
                S[0, 0] = 0.0
            if A.eigenbasis is None:
                assert S is gram.hat
            else:
                U = A.eigenbasis
                np.testing.assert_allclose(
                    S, U @ gram.hat @ U.conj().T, rtol=0, atol=4 * eps * np.abs(S).max())
    # the quadrature oracle is built dense, in the standard basis
    quad = quadrature_gram(A, G, 1.0, panels=16)
    assert quad.eigenbasis is None
    assert quad.matrix is quad.hat


def random_hermitian_noise(rng, d, dtype):
    """A Hermitian matrix plus an asymmetry well inside the Hermitian tolerance."""
    Z = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if dtype is complex else 0)
    return (Z @ Z.conj().T + 1e-12 * rng.normal(size=(d, d))).astype(dtype)


def test_every_route_stores_the_hermitian_part_once():
    # the hat is the checked Hermitian part, so it equals its own conjugate
    # transpose bit for bit (array_equal: up to the sign of zeros), and
    # passed again as a plain array it gets the same check and bounds; a
    # Gram built from an array within the tolerance of Hermitian stores
    # 0.5 S + 0.5 S^H, bit for bit, and the eigensolver reads it as it is
    rng = np.random.default_rng(83)
    heat = heat_cycle_operator(12, 0.7)
    systems = [(heat, VectorSet(np.eye(12)[[0, 5, 9]])),
               (heat, random_vectors(rng, 2, 12)),
               (SpectralOperator(np.exp(2j * np.pi * np.arange(6) / 6)), VectorSet(np.eye(6)[:2])),
               (random_normal_operator(rng, 5, max_mod=2.0), random_vectors(rng, 2, 5))]
    for A, G in systems:
        T = TimeGrid.uniform(2 * A.dimension, 1.5)
        for gram in (semicont_gram(A, G, 1.5), discrete_gram(A, G, T),
                     discrete_gram(A, G, T, weights="riemann"), quadrature_gram(A, G, 1.5, 16)):
            assert np.array_equal(gram.hat, gram.hat.conj().T)
            rep, plain = frame_bounds(gram), frame_bounds(gram.hat)
            assert (rep.lower, rep.upper) == (plain.lower, plain.upper)
    for S in (random_hermitian_noise(rng, 5, complex), random_hermitian_noise(rng, 5, float)):
        gram = Gram(S, "discrete")
        assert gram.hat.dtype == S.dtype
        assert np.array_equal(gram.hat, gram.hat.conj().T)
        assert gram.hat.tobytes() == (0.5 * S + 0.5 * S.conj().T).tobytes()


def test_heat_kernels_with_real_sensors_stay_real(tmp_path):
    # a spectrum in [0, inf) on a real basis, sensed by one-hot vectors: the
    # eigen-coordinates and both hats are float64, also after a file round
    # trip, which keeps the basis float64, and from a document of [re, im]
    # pairs, which loads it complex-typed with zero imaginary parts
    A = heat_cycle_operator(16, 1.0)
    G = VectorSet(np.eye(16)[[0, 5, 11]])
    save_operator(A, tmp_path / "op.json")
    save_vectors(G, tmp_path / "vectors.json")
    B, H = load_operator(tmp_path / "op.json"), load_vectors(tmp_path / "vectors.json")
    assert B.eigenbasis.dtype == np.float64
    C = operator_from_dict(operator_to_dict_by_element(A))
    assert C.eigenbasis.dtype == np.complex128
    T = TimeGrid.uniform(8, 1.0)
    for op, vecs in ((A, G), (B, H), (C, H)):
        assert op.to_eigenbasis(vecs.vectors).dtype == np.float64
        for gram in (semicont_gram(op, vecs, 1.0), discrete_gram(op, vecs, T)):
            assert gram.hat.dtype == np.float64
        assert np.allclose(semicont_gram(op, vecs, 1.0).hat, semicont_gram(A, G, 1.0).hat,
                           rtol=0, atol=1e-15)
    # a rotation spectrum keeps complex powers, so its hats stay complex
    R = SpectralOperator(np.exp(2j * np.pi * np.arange(8) / 8))
    S = VectorSet(np.eye(8)[[0, 3]])
    assert R.to_eigenbasis(S.vectors).dtype == np.float64
    for gram in (semicont_gram(R, S, 1.0), discrete_gram(R, S, T)):
        assert gram.hat.dtype == np.complex128
    Q = random_unitary(np.random.default_rng(5), 8)
    assert SpectralOperator(R.eigenvalues, Q).to_eigenbasis(S.vectors).dtype == np.complex128
