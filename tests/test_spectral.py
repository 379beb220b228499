import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dynframes.errors import DimensionMismatch, DomainError
from dynframes.spectral import (
    SpectralOperator,
    TimeInterval,
    VectorSet,
    apply_power,
    apply_power_batch,
    branch_argument,
    default_tolerance,
    group_eigenspaces,
    load_operator,
    load_vectors,
    operator_from_dict,
    operator_to_dict,
    pair_integral,
    pair_integral_matrix,
    power_integral,
    principal_power,
    save_operator,
    save_vectors,
    vectors_from_dict,
    vectors_to_dict,
)
from helpers import (
    group_eigenspaces_pairwise,
    random_normal_operator,
    random_unitary,
    simpson_pair_integral,
)

nonzero_complex = st.builds(
    lambda r, a: cmath.rect(r, a),
    st.floats(0.2, 3.0),
    st.floats(-math.pi, math.pi, exclude_max=True),
)
times = st.floats(-2.0, 2.0)


# ---------------------------------------------------------------------------
# principal branch


def test_branch_argument_on_the_cut():
    assert branch_argument(-1.0) == -math.pi
    assert branch_argument(complex(-2.0, 0.0)) == -math.pi
    assert branch_argument(complex(-2.0, -0.0)) == -math.pi
    assert branch_argument(1.0) == 0.0


@pytest.mark.parametrize("z", [0.0, 1.0, -1.0, 1j, 2.0 - 3.0j, 1e-300])
def test_power_at_time_zero_is_one(z):
    assert principal_power(z, 0.0) == 1.0 + 0.0j


def test_zero_base_powers():
    assert principal_power(0.0, 2.5) == 0.0
    with pytest.raises(DomainError):
        principal_power(0.0, -1.0)


def test_negative_one_half_power_uses_lower_branch():
    # arg(-1) = -pi, so (-1)^(1/2) = exp(-i pi / 2) = -i
    val = principal_power(-1.0, 0.5)
    assert abs(val - (-1j)) < 1e-15


def test_integer_powers_match_multiplication():
    z = 1.7 - 0.3j
    assert abs(principal_power(z, 1.0) - z) < 1e-15
    assert abs(principal_power(z, 3.0) - z**3) < 1e-13


@given(z=nonzero_complex, s=times, t=times)
def test_power_semigroup(z, s, t):
    lhs = principal_power(z, s + t)
    rhs = principal_power(z, s) * principal_power(z, t)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@given(z=nonzero_complex, t=st.floats(0.0, 2.0))
def test_power_modulus(z, t):
    assert abs(abs(principal_power(z, t)) - abs(z) ** t) <= 1e-12 * abs(z) ** t


# ---------------------------------------------------------------------------
# pair integral


def test_pair_integral_trivial_cases():
    assert pair_integral(1.0, 1.0, 2.5) == 2.5
    assert pair_integral(0.0, 2.0, 1.0) == 0.0
    assert pair_integral(2.0, 0.0, 1.0) == 0.0
    with pytest.raises(DomainError):
        pair_integral(1.0, 1.0, 0.0)


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
    P = pair_integral_matrix(lam, 1.5)
    for j in range(lam.size):
        for k in range(lam.size):
            assert abs(P[j, k] - pair_integral(lam[j], lam[k], 1.5)) < 1e-13


# ---------------------------------------------------------------------------
# power_integral (the multiplier symbol)


def test_power_integral_window_and_domain():
    assert power_integral(1.0, 0.5) == 0.5
    assert power_integral(0.0, 0.25) == 0.0
    with pytest.raises(DomainError):
        power_integral(2.0, 0.0)
    with pytest.raises(DomainError):
        power_integral(2.0, 0.6)


def test_power_integral_at_minus_one():
    # |integral of (-1)^t over [0, 1/2]| = sqrt(2) / pi on the lower branch
    val = power_integral(-1.0, 0.5)
    assert abs(abs(val) - math.sqrt(2.0) / math.pi) < 1e-15


@given(z=nonzero_complex, ell=st.floats(0.05, 0.5))
def test_power_integral_is_pair_integral_with_one(z, ell):
    a = power_integral(z, ell)
    b = pair_integral(z, 1.0, ell)
    assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


# ---------------------------------------------------------------------------
# operators and powers


def test_apply_power_identity_at_zero():
    rng = np.random.default_rng(3)
    A = random_normal_operator(rng, 6)
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    out = apply_power(A, 0.0, f)
    np.testing.assert_allclose(out, f, atol=1e-12)


def test_apply_power_zero_eigenvalue():
    A = SpectralOperator(np.array([0.0, 2.0], dtype=complex))
    f = np.array([1.0, 1.0], dtype=complex)
    np.testing.assert_allclose(apply_power(A, 0.0, f), f, atol=0)
    np.testing.assert_allclose(apply_power(A, 1.5, f), [0.0, 2.0**1.5], atol=1e-12)
    with pytest.raises(DomainError):
        apply_power(A, -0.5, f)


def test_apply_power_matches_dense_matrix():
    rng = np.random.default_rng(5)
    A = random_normal_operator(rng, 5)
    f = rng.normal(size=5) + 1j * rng.normal(size=5)
    np.testing.assert_allclose(apply_power(A, 1.0, f), A.matrix() @ f, atol=1e-12)
    two = A.matrix() @ (A.matrix() @ f)
    np.testing.assert_allclose(apply_power(A, 2.0, f), two, atol=1e-11)


def test_apply_power_batch_matches_singles():
    rng = np.random.default_rng(9)
    A = random_normal_operator(rng, 4)
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    ts = [0.0, 0.3, 1.0, 1.7]
    batch = apply_power_batch(A, ts, f)
    for i, t in enumerate(ts):
        np.testing.assert_allclose(batch[i], apply_power(A, t, f), atol=1e-13)


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
    # a real basis stored as complex is checked in real arithmetic
    rng = np.random.default_rng(11)
    Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    SpectralOperator(np.ones(4), Q.astype(complex))
    with pytest.raises(ValueError):
        SpectralOperator(np.ones(4), (Q + 1e-6 * rng.normal(size=(4, 4))).astype(complex))
    # an orthonormal real part does not make a basis orthonormal
    with pytest.raises(ValueError):
        SpectralOperator(np.ones(4), Q + 1e-6j * rng.normal(size=(4, 4)))


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
    np.testing.assert_allclose(A.adjoint().matrix(), A.matrix().conj().T, atol=1e-12)
    # arrays are locked
    with pytest.raises(ValueError):
        A.eigenvalues[0] = 5.0


def test_eigenbasis_round_trip():
    rng = np.random.default_rng(17)
    A = random_normal_operator(rng, 6)
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    np.testing.assert_allclose(A.from_eigenbasis(A.to_eigenbasis(f)), f, atol=1e-12)


def test_to_eigenbasis_does_not_copy_the_basis():
    rng = np.random.default_rng(19)
    d = 512
    A = SpectralOperator(np.arange(d, dtype=complex), random_unitary(rng, d))
    v = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
    tracemalloc.start()
    try:
        A.to_eigenbasis(v)
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
    # a real basis and real vectors give equal values; only the sign of
    # the zero imaginary parts may differ
    Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    v = rng.normal(size=(3, d))
    got = SpectralOperator(np.ones(d), Q).to_eigenbasis(v)
    assert np.array_equal(got, v @ np.conj(Q.astype(complex)))


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


# ---------------------------------------------------------------------------
# eigenvalue grouping


def test_group_eigenspaces_distinct_and_repeated():
    A = SpectralOperator(np.array([1.0, 2.0, 1.0, 3.0], dtype=complex))
    groups = group_eigenspaces(A)
    assert [g.indices for g in groups] == [(0, 2), (1,), (3,)]
    # a fully degenerate spectrum is one group, found without pairwise work
    (only,) = group_eigenspaces(SpectralOperator(np.ones(4096)))
    assert only.value == 1.0 and only.indices == tuple(range(4096))


def test_group_eigenspaces_transitive_chain():
    lam = np.array([1.0, 1.0 + 0.9e-10, 1.0 + 1.8e-10, 2.0], dtype=complex)
    A = SpectralOperator(lam, tolerance=1e-10)
    groups = group_eigenspaces(A)
    assert [g.indices for g in groups] == [(0, 1, 2), (3,)]
    # with a tighter tolerance the chain splits apart
    B = SpectralOperator(lam, tolerance=1e-12)
    assert len(group_eigenspaces(B)) == 4


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
def test_group_eigenspaces_matches_pairwise_oracle(lam):
    A = SpectralOperator(np.array(lam, dtype=complex), tolerance=GROUP_TOL)
    groups = [(g.value, g.indices) for g in group_eigenspaces(A)]
    assert groups == group_eigenspaces_pairwise(A.eigenvalues, GROUP_TOL)


def test_time_interval_clips_ell():
    assert TimeInterval(2.0).ell == 0.5
    assert TimeInterval(0.25).ell == 0.25
    with pytest.raises(DomainError):
        TimeInterval(0.0)


# ---------------------------------------------------------------------------
# vector sets and JSON interchange


def test_vector_set_shapes_and_labels():
    V = VectorSet(np.ones(3))
    assert len(V) == 1 and V.dimension == 3
    with pytest.raises(DimensionMismatch):
        VectorSet(np.ones((2, 3)), labels=("only one",))


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
    V = VectorSet(np.array([[1.0, 2.0j], [3.0, -1.0]]), labels=("a", "b"))
    path = tmp_path / "vecs.json"
    save_vectors(V, path)
    W = load_vectors(path)
    np.testing.assert_allclose(W.vectors, V.vectors, atol=0)
    assert W.labels == ("a", "b")


def test_json_validation_errors():
    with pytest.raises(ValueError):
        operator_from_dict({"dimension": 2, "eigenvalues": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        operator_from_dict({"dimension": 1})
    with pytest.raises(ValueError):
        vectors_from_dict({"dimension": 2, "vectors": [[[1.0, 0.0]]]})
    with pytest.raises(ValueError):
        vectors_from_dict({"dimension": 2, "vectors": []})


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
