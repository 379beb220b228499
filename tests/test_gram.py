import math

import numpy as np
import pytest

from dynframes.errors import DimensionMismatch, DomainError, NonHermitian
from dynframes.gram import (
    DiscreteGram,
    SemiContGram,
    TimeGrid,
    bessel_sum,
    discrete_gram,
    quadrature_gram,
    semicont_gram,
)
from dynframes.analysis import frame_bounds
from dynframes.spectral import SpectralOperator, VectorSet
from dynframes.catalog import gap_pair_system, gaussian_decay_system
from helpers import random_normal_operator, random_unitary, random_vectors


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
        assert S.generator_count == d


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
    assert plain.weights is None
    riemann = discrete_gram(A, G, T, weights="riemann")
    np.testing.assert_allclose(riemann.weights, [0.5, 0.5])
    np.testing.assert_allclose(riemann.matrix, 0.5 * plain.matrix, atol=1e-14)
    custom = discrete_gram(A, G, T, weights=[1.0, 3.0])
    np.testing.assert_allclose(custom.weights, [1.0, 3.0])
    with pytest.raises(DimensionMismatch):
        discrete_gram(A, G, T, weights=[1.0])
    with pytest.raises(ValueError):
        discrete_gram(A, G, T, weights="simpson")


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
    with pytest.raises(NonHermitian):
        SemiContGram(bad, 1.0, 1)
    with pytest.raises(NonHermitian):
        DiscreteGram(bad, TimeGrid(np.array([0.0]), 1.0))
    with pytest.raises(ValueError):
        SemiContGram(np.eye(2), 1.0, 1, method="guesswork")
    with pytest.raises(DimensionMismatch):
        SemiContGram(np.ones((2, 3)), 1.0, 1)
    with pytest.raises(DimensionMismatch):
        DiscreteGram(np.eye(2), TimeGrid(np.array([0.0]), 1.0), eigenbasis=np.eye(3))


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
