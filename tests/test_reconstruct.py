import numpy as np
import pytest

from dynframes.errors import DimensionMismatch, NotAFrame
from dynframes.gram import TimeGrid
from dynframes.reconstruct import (
    ReconstructionResult,
    SampleRecord,
    heat_cycle_operator,
    reconstruct,
    sample,
    samples_from_csv_rows,
    samples_to_csv_rows,
    samples_to_dicts,
)
from dynframes.spectral import SpectralOperator, VectorSet
from helpers import random_normal_operator, random_self_adjoint_operator, random_vectors


def cycle_laplacian(d):
    lap = 2.0 * np.eye(d)
    for i in range(d):
        lap[i, (i + 1) % d] -= 1.0
        lap[i, (i - 1) % d] -= 1.0
    return lap


# ---------------------------------------------------------------------------
# sampling


def test_sample_identity_operator_is_constant_in_time():
    A = SpectralOperator(np.ones(3))
    G = VectorSet(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0j]]))
    f = np.array([1.0j, 1.0, 2.0])
    T = TimeGrid(np.array([0.0, 0.3, 0.6]), 1.0)
    recs = sample(A, G, f, T)
    assert len(recs) == 6
    # generator-major layout
    assert [r.generator_index for r in recs] == [1, 1, 1, 2, 2, 2]
    assert [r.time for r in recs] == [0.0, 0.3, 0.6] * 2
    for r in recs[:3]:
        assert r.value == pytest.approx(1.0j + 2.0)
    for r in recs[3:]:
        assert r.value == pytest.approx(1.0 + 2.0 * (-1.0j))


def test_sample_diagonal_decay_closed_form():
    # diag(e^{-n^2}) with generator n e_n: <A^t e_k, g_n> = n e^{-t n^2} [n=k]
    n = np.arange(1, 5)
    A = SpectralOperator(np.exp(-(n.astype(float) ** 2)).astype(complex))
    G = VectorSet(np.diag(n.astype(complex)))
    T = TimeGrid(np.array([0.0, 0.5]), 1.0)
    recs = sample(A, G, np.eye(4)[2], T)
    by_key = {(r.generator_index, r.time): r.value for r in recs}
    assert by_key[(3, 0.0)] == pytest.approx(3.0)
    assert by_key[(3, 0.5)] == pytest.approx(3.0 * np.exp(-4.5))
    assert by_key[(1, 0.0)] == 0.0
    assert by_key[(2, 0.5)] == 0.0


def test_sample_heat_cycle_frozen_regression():
    A = heat_cycle_operator(8, 1.0)
    e = np.eye(8, dtype=complex)
    T = TimeGrid(np.arange(16) / 16.0, 1.0)
    recs = sample(A, VectorSet(e[[0]]), e[2], T)
    vals = np.array([r.value for r in recs])
    assert np.abs(vals.imag).max() == 0.0
    assert vals.real[0] == pytest.approx(0.0, abs=1e-15)
    assert vals.real[1] == pytest.approx(1.72587224e-03, abs=1e-10)
    assert vals.real[-1] == pytest.approx(8.96009765e-02, abs=1e-10)
    # independent route: eigendecomposition of the dense cycle Laplacian
    w, V = np.linalg.eigh(cycle_laplacian(8))
    expected = [
        (V @ (np.exp(-t * w) * (V.T @ np.eye(8)[2])))[0] for t in T.times
    ]
    np.testing.assert_allclose(vals.real, expected, atol=1e-12)


def test_sample_dimension_validation():
    A = SpectralOperator(np.ones(3))
    with pytest.raises(DimensionMismatch):
        sample(A, VectorSet(np.eye(3)), np.ones(4), TimeGrid(np.array([0.0]), 1.0))
    with pytest.raises(DimensionMismatch):
        sample(A, VectorSet(np.eye(2)), np.ones(3), TimeGrid(np.array([0.0]), 1.0))


def test_sample_record_validation():
    with pytest.raises(ValueError):
        SampleRecord(0, 0.0, 1.0)  # indices are 1-based
    rec = SampleRecord(2, 0.5, 1.0 - 2.0j)
    assert rec.generator_index == 2 and rec.value == 1.0 - 2.0j


# ---------------------------------------------------------------------------
# heat cycle operator


def test_heat_cycle_matches_dense_laplacian():
    for d, sigma in ((5, 0.7), (8, 1.0)):
        A = heat_cycle_operator(d, sigma)
        w, V = np.linalg.eigh(sigma * cycle_laplacian(d))
        dense = V @ np.diag(np.exp(-w)) @ V.T
        np.testing.assert_allclose(A.matrix().real, dense, atol=1e-12)
        np.testing.assert_allclose(A.matrix().imag, 0.0, atol=1e-15)


def test_heat_cycle_structure():
    A = heat_cycle_operator(6, 0.5)
    U = A.eigenbasis
    np.testing.assert_allclose(U.conj().T @ U, np.eye(6), atol=1e-12)
    lam = A.eigenvalues.real
    assert lam[0] == 1.0  # constant vector is invariant
    # conjugate wavenumbers share an eigenvalue
    assert lam[1] == pytest.approx(lam[5], abs=1e-15)
    assert lam[2] == pytest.approx(lam[4], abs=1e-15)
    M = A.matrix().real
    # circulant: every row is a rotation of the first
    for i in range(6):
        np.testing.assert_allclose(M[i], np.roll(M[0], i), atol=1e-12)
    np.testing.assert_allclose(M.sum(axis=1), 1.0, atol=1e-12)


def test_heat_cycle_validation():
    with pytest.raises(ValueError):
        heat_cycle_operator(1, 1.0)
    with pytest.raises(ValueError):
        heat_cycle_operator(4, 0.0)
    with pytest.raises(ValueError):
        heat_cycle_operator(4, -2.0)


# ---------------------------------------------------------------------------
# reconstruction round trips


def round_trip(A, G, f, times, **kwargs):
    T = TimeGrid(times, float(times[-1]) + 1.0 / len(times))
    recs = sample(A, G, f, T)
    return reconstruct(A, G, recs, truth=f, **kwargs)


def test_round_trip_self_adjoint():
    rng = np.random.default_rng(97)
    A = random_self_adjoint_operator(rng, 5)
    G = random_vectors(rng, 2, 5)
    f = rng.normal(size=5) + 1j * rng.normal(size=5)
    result = round_trip(A, G, f, np.linspace(0.0, 1.0, 12, endpoint=False))
    assert result.residual <= 1e-8
    np.testing.assert_allclose(result.estimate, f, atol=1e-7)


def test_round_trip_complex_spectrum_uses_adjoint_family():
    # the measurements involve (A*)^t on the analysis side; a complex
    # spectrum breaks any implementation that forgets the conjugation
    rng = np.random.default_rng(101)
    A = random_normal_operator(rng, 4)
    assert np.abs(A.eigenvalues.imag).max() > 1e-3
    G = random_vectors(rng, 2, 4)
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    result = round_trip(A, G, f, np.linspace(0.0, 1.0, 10, endpoint=False))
    assert result.residual <= 1e-8
    np.testing.assert_allclose(result.estimate, f, atol=1e-7)


def test_round_trip_riemann_and_direct_agree():
    rng = np.random.default_rng(103)
    A = random_self_adjoint_operator(rng, 4)
    G = random_vectors(rng, 2, 4)
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    times = np.linspace(0.0, 1.0, 8, endpoint=False)
    T = TimeGrid(times, 1.0)
    recs = sample(A, G, f, T)
    plain = reconstruct(A, G, recs, truth=f)
    weighted = reconstruct(A, G, recs, mode="riemann", L=1.0, truth=f)
    for result in (plain, weighted):
        assert result.residual <= 1e-8
        assert result.solver_iterations == 0
    # least squares straight on the sample matrix, no normal equations:
    # column j holds the samples of the basis vector e_j
    M = np.column_stack([[r.value for r in sample(A, G, e, T)] for e in np.eye(4)])
    direct = np.linalg.lstsq(M, np.array([r.value for r in recs]), rcond=None)[0]
    np.testing.assert_allclose(weighted.estimate, plain.estimate, atol=1e-7)
    np.testing.assert_allclose(direct, plain.estimate, atol=1e-7)


def test_reconstruct_is_linear_in_the_samples():
    rng = np.random.default_rng(107)
    A = random_self_adjoint_operator(rng, 4)
    G = random_vectors(rng, 2, 4)
    T = TimeGrid(np.linspace(0.0, 1.0, 8, endpoint=False), 1.0)
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    h = rng.normal(size=4) + 1j * rng.normal(size=4)
    rf = sample(A, G, f, T)
    rh = sample(A, G, h, T)
    mixed = [
        SampleRecord(a.generator_index, a.time, 2.0 * a.value - 0.5j * b.value)
        for a, b in zip(rf, rh)
    ]
    est = reconstruct(A, G, mixed).estimate
    np.testing.assert_allclose(est, 2.0 * f - 0.5j * h, atol=1e-7)


def test_reconstruct_without_truth_reports_normal_equation_residual():
    A = SpectralOperator(np.ones(2))
    G = VectorSet(np.eye(2))
    T = TimeGrid(np.array([0.0, 0.5]), 1.0)
    recs = sample(A, G, np.array([1.0, 2.0]), T)
    result = reconstruct(A, G, recs)
    assert result.residual <= 1e-10
    np.testing.assert_allclose(result.estimate, [1.0, 2.0], atol=1e-10)


# ---------------------------------------------------------------------------
# sensor placement on the cycle


def test_single_sensor_cannot_determine_the_state():
    A = heat_cycle_operator(4, 0.8)
    e = np.eye(4, dtype=complex)
    T = TimeGrid(np.arange(16) / 16.0, 1.0)
    recs = sample(A, VectorSet(e[[0]]), e[1], T)
    with pytest.raises(NotAFrame):
        reconstruct(A, VectorSet(e[[0]]), recs)


def test_antipodal_sensor_pair_is_still_blind():
    # antipodal sensors on the 16-cycle see identical averages of the two
    # conjugate Fourier modes at every wavenumber, so the pair never spans
    # the two-dimensional eigenspaces
    A = heat_cycle_operator(16, 1.0)
    e = np.eye(16, dtype=complex)
    sensors = VectorSet(e[[0, 8]])
    T = TimeGrid(np.arange(32) / 32.0, 1.0)
    recs = sample(A, sensors, e[3], T)
    with pytest.raises(NotAFrame):
        reconstruct(A, sensors, recs)


def test_three_sensor_demo_recovers_states():
    A = heat_cycle_operator(8, 1.0)
    e = np.eye(8, dtype=complex)
    sensors = VectorSet(e[[0, 2, 5]])
    T = TimeGrid(np.arange(32) / 32.0, 1.0)
    rng = np.random.default_rng(109)
    for _ in range(5):
        f = rng.normal(size=8) + 1j * rng.normal(size=8)
        recs = sample(A, sensors, f, T)
        result = reconstruct(A, sensors, recs, truth=f)
        assert result.residual <= 1e-6


# ---------------------------------------------------------------------------
# input validation


def test_reconstruct_coverage_validation():
    A = SpectralOperator(np.ones(2))
    G = VectorSet(np.eye(2))
    T = TimeGrid(np.array([0.0, 0.5]), 1.0)
    recs = sample(A, G, np.array([1.0, 2.0]), T)
    with pytest.raises(ValueError, match="cover"):
        reconstruct(A, G, recs[:-1])
    with pytest.raises(ValueError, match="duplicate"):
        reconstruct(A, G, recs + [recs[0]])
    with pytest.raises(ValueError, match="outside"):
        reconstruct(A, G, recs + [SampleRecord(3, 0.25, 1.0)])
    with pytest.raises(ValueError, match="no samples"):
        reconstruct(A, G, [])
    with pytest.raises(ValueError):
        reconstruct(A, G, recs, mode="midpoint")
    with pytest.raises(ValueError, match="window length"):
        reconstruct(A, G, recs, mode="riemann")


# ---------------------------------------------------------------------------
# interchange


def test_samples_csv_round_trip():
    recs = [
        SampleRecord(1, 0.0, 1.5 - 2.0j),
        SampleRecord(1, 0.5, 0.25),
        SampleRecord(2, 0.0, -1.0j),
    ]
    rows = samples_to_csv_rows(recs)
    assert rows[0] == ["generator_index", "time", "re", "im"]
    back = samples_from_csv_rows([[str(c) for c in row] for row in rows])
    assert back == recs
    # headerless input works too
    no_header = samples_from_csv_rows([["1", "0.25", "2.0", "0.0"]])
    assert no_header == [SampleRecord(1, 0.25, 2.0)]
    with pytest.raises(ValueError):
        samples_from_csv_rows([["1", "0.25", "2.0"]])


def test_samples_to_dicts_shape():
    blobs = samples_to_dicts([SampleRecord(2, 0.125, 3.0 + 4.0j)])
    assert blobs == [
        {"generator_index": 2, "time": 0.125, "value": [3.0, 4.0]}
    ]


def test_reconstruction_result_freezes_estimate():
    res = ReconstructionResult(np.array([1.0, 2.0j]), 0.0, 3)
    with pytest.raises(ValueError):
        res.estimate[0] = 5.0
