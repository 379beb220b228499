import math
import warnings

import numpy as np
import pytest

from dynframes.errors import DimensionMismatch, DomainError, NotAFrame
from dynframes.gram import TimeGrid
from dynframes.reconstruct import (
    ReconstructionResult,
    SampleRecord,
    Samples,
    heat_cycle_operator,
    reconstruct,
    sample,
)
from dynframes.spectral import SpectralOperator, VectorSet, apply_power_batch
from helpers import (
    dense_matrix,
    heat_cycle_basis_by_column,
    random_normal_operator,
    random_self_adjoint_operator,
    random_vectors,
)


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


def test_sample_matches_the_standard_basis_orbit():
    # sample works in eigen-coordinates; the orbit A^t f in the standard
    # basis, paired with each generator, is the reference
    rng = np.random.default_rng(113)
    for d in (1, 3, 8):
        for with_basis in (False, True):
            A = random_normal_operator(rng, d, with_basis=with_basis)
            G = random_vectors(rng, 3, d)
            f = rng.normal(size=d) + 1j * rng.normal(size=d)
            T = TimeGrid(np.linspace(0.0, 2.0, 17, endpoint=False), 2.0)
            values = np.array([r.value for r in sample(A, G, f, T)]).reshape(3, -1)
            expected = (apply_power_batch(A, T.times, f) @ np.conj(G.vectors).T).T
            err = np.max(np.abs(values - expected))
            assert err <= 1e-12 * np.max(np.abs(expected))


def test_sample_dimension_validation():
    A = SpectralOperator(np.ones(3))
    with pytest.raises(DimensionMismatch):
        sample(A, VectorSet(np.eye(3)), np.ones(4), TimeGrid(np.array([0.0]), 1.0))
    with pytest.raises(DimensionMismatch):
        sample(A, VectorSet(np.eye(2)), np.ones(3), TimeGrid(np.array([0.0]), 1.0))


def test_non_finite_states_and_samples_are_value_errors():
    A = heat_cycle_operator(6, 1.0)
    G = VectorSet(np.eye(6, dtype=complex)[[0, 2, 3]])
    T = TimeGrid.uniform(16, 1.0)
    f = np.arange(6, dtype=complex)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="vectors must be finite"):
            sample(A, G, np.where(f == 1, bad, f), T)
    records = sample(A, G, f, T)
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        broken = list(records)
        broken[5] = SampleRecord(broken[5].generator_index, broken[5].time, bad)
        with pytest.raises(ValueError, match="sample values must be finite"):
            reconstruct(A, G, broken)
        with pytest.raises(ValueError, match="truth vector must be finite"):
            reconstruct(A, G, records, truth=np.where(f == 1, bad, f))
    with pytest.raises(DimensionMismatch, match="^truth vector has the wrong length$"):
        reconstruct(A, G, records, truth=f[:5])


def test_non_finite_sample_times_are_rejected_when_samples_are_built():
    A = heat_cycle_operator(6, 1.0)
    G = VectorSet(np.eye(6, dtype=complex)[[0, 2, 3]])
    records = list(sample(A, G, np.arange(6, dtype=complex), TimeGrid.uniform(4, 1.0)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^sample times must be finite$"):
            Samples(np.ones((1, 2)), [0.0, bad])
        # a record's time reaches Samples before any grid or power sees it
        broken = [SampleRecord(r.generator_index, bad if r.time == 0.5 else r.time, r.value)
                  for r in records]
        with pytest.raises(ValueError, match="^sample times must be finite$"):
            reconstruct(A, G, broken)


def test_sample_record_validation():
    with pytest.raises(ValueError):
        SampleRecord(0, 0.0, 1.0)  # indices are 1-based
    with pytest.raises(ValueError, match="1-based"):
        SampleRecord(generator_index=0, time=0.0, value=1.0)
    rec = SampleRecord(2, 0.5, 1.0 - 2.0j)
    assert rec.generator_index == 2 and rec.value == 1.0 - 2.0j
    # fields are coerced to int, float and complex; a record is a tuple
    rec = SampleRecord(np.int64(3), np.float32(0.25), 2)
    assert [type(x) for x in rec] == [int, float, complex]
    assert rec == (3, 0.25, 2 + 0j)
    # an index that is not an integer is an error, not truncated to generator 1
    for index in (1.7, 1.0, np.float64(2.0)):
        with pytest.raises(TypeError):
            SampleRecord(index, 0.0, 1.0)


def _bits(x):
    return np.asarray(x).view(np.uint64)


def test_samples_records_are_the_per_value_records_bit_for_bit():
    rng = np.random.default_rng(131)
    A = random_normal_operator(rng, 5, with_basis=True)
    G = random_vectors(rng, 3, 5)
    f = rng.normal(size=5) + 1j * rng.normal(size=5)
    T = TimeGrid(np.linspace(0.0, 1.0, 7, endpoint=False), 1.0)
    samples = sample(A, G, f, T)
    assert samples.values.shape == (3, 7) and np.array_equal(samples.times, T.times)
    # one record per value, generator-major, as a list of records was built
    expected = list(map(SampleRecord, np.repeat(np.arange(1, 4), 7).tolist(),
                        np.tile(T.times, 3).tolist(), samples.values.ravel().tolist()))
    for got in (list(samples), [samples[k] for k in range(len(samples))],
                samples[:], [samples[k - len(samples)] for k in range(len(samples))]):
        assert all(type(r) is SampleRecord for r in got)
        assert [r.generator_index for r in got] == [r.generator_index for r in expected]
        assert np.array_equal(_bits([r.time for r in got]), _bits([r.time for r in expected]))
        assert np.array_equal(_bits([r.value for r in got]), _bits([r.value for r in expected]))
    assert samples[3:9:2] == expected[3:9:2]
    with pytest.raises(IndexError):
        samples[len(samples)]


def test_samples_values_are_read_only():
    samples = Samples(np.ones((2, 3)), [0.0, 0.25, 0.5])
    assert samples.values.dtype == np.complex128 and len(samples) == 6
    with pytest.raises(ValueError):
        samples.values[0, 0] = 2.0
    with pytest.raises(ValueError):
        samples.times[0] = 1.0
    with pytest.raises(ValueError, match="m x n"):
        Samples(np.ones((2, 3)), [0.0, 0.5])
    with pytest.raises(ValueError, match="m x n"):
        Samples(np.ones(3), [0.0, 0.25, 0.5])


# ---------------------------------------------------------------------------
# heat cycle operator


def test_heat_cycle_matches_dense_laplacian():
    for d, sigma in ((5, 0.7), (8, 1.0)):
        A = heat_cycle_operator(d, sigma)
        w, V = np.linalg.eigh(sigma * cycle_laplacian(d))
        dense = V @ np.diag(np.exp(-w)) @ V.T
        np.testing.assert_allclose(dense_matrix(A).real, dense, atol=1e-12)
        np.testing.assert_allclose(dense_matrix(A).imag, 0.0, atol=1e-15)


@pytest.mark.parametrize("d", [*range(2, 10), 64, 512])
def test_heat_cycle_basis_equals_the_column_by_column_construction(d):
    A = heat_cycle_operator(d, 1.0)
    assert A.eigenbasis.tobytes() == heat_cycle_basis_by_column(d).tobytes()


def test_heat_cycle_structure():
    A = heat_cycle_operator(6, 0.5)
    U = A.eigenbasis
    np.testing.assert_allclose(U.conj().T @ U, np.eye(6), atol=1e-12)
    lam = A.eigenvalues.real
    assert lam[0] == 1.0  # constant vector is invariant
    # conjugate wavenumbers share an eigenvalue
    assert lam[1] == pytest.approx(lam[5], abs=1e-15)
    assert lam[2] == pytest.approx(lam[4], abs=1e-15)
    M = dense_matrix(A).real
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
    # rejected before any arithmetic: -inf * 0 would warn first
    for diffusion in (math.inf, math.nan):
        with pytest.raises(ValueError, match="diffusion must be positive and finite"):
            heat_cycle_operator(4, diffusion)
    # a vertex count that is not an integer is an error, not the 16-cycle
    for d in (16.9, 16.0, np.float64(16.0)):
        with pytest.raises(TypeError):
            heat_cycle_operator(d, 1.0)
    for d in (np.int64(6), np.uint8(6)):
        assert heat_cycle_operator(d, 1.0).dimension == 6


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


def test_only_a_given_window_constrains_the_sample_times():
    # without L no grid is built, so times need not start at 0; with L the
    # times must form a grid on [0, L]
    rng = np.random.default_rng(109)
    A = random_self_adjoint_operator(rng, 3)
    G = random_vectors(rng, 2, 3)
    f = rng.normal(size=3) + 1j * rng.normal(size=3)
    recs = sample(A, G, f, TimeGrid.uniform(6, 1.5))
    shifted = Samples(recs.values[:, 1:], recs.times[1:])  # from t = 0.25 on
    assert reconstruct(A, G, shifted, truth=f).residual <= 1e-8
    with pytest.raises(ValueError, match="^time grids must start at t = 0$"):
        reconstruct(A, G, shifted, L=2.0)
    with pytest.raises(ValueError, match="^all grid times must lie strictly below L$"):
        reconstruct(A, G, recs, L=0.5)


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


def test_reconstruct_reads_samples_as_its_records():
    # the array path and the record path give bitwise-equal results
    rng = np.random.default_rng(137)
    A = random_normal_operator(rng, 5, with_basis=True)
    G = random_vectors(rng, 3, 5)
    f = rng.normal(size=5) + 1j * rng.normal(size=5)
    T = TimeGrid(np.linspace(0.0, 1.0, 9, endpoint=False), 1.0)
    samples = sample(A, G, f, T)
    for kwargs in ({}, {"L": 1.0}, {"mode": "riemann", "L": 1.0}):
        for truth in (None, f):
            direct = reconstruct(A, G, samples, truth=truth, **kwargs)
            records = reconstruct(A, G, list(samples), truth=truth, **kwargs)
            assert np.array_equal(_bits(direct.estimate), _bits(records.estimate))
            assert direct.residual == records.residual


def test_reconstruct_rejects_samples_of_another_generator_count():
    A = SpectralOperator(np.ones(2))
    G = VectorSet(np.eye(2))
    times = [0.0, 0.5]
    with pytest.raises(ValueError, match="generator_index 3 outside 1..2"):
        reconstruct(A, G, Samples(np.ones((3, 2)), times))
    with pytest.raises(ValueError, match="cover"):
        reconstruct(A, G, Samples(np.ones((1, 2)), times))
    with pytest.raises(ValueError, match="sample values must be finite"):
        reconstruct(A, G, Samples([[1.0, np.nan], [1.0, 1.0]], times))


def test_overflowing_samples_end_in_a_domain_error_without_warnings():
    # the projected samples of 1e307 overflow; before, the estimate and the
    # residual came back NaN after numpy's warnings
    A = heat_cycle_operator(8, 1.0)
    G = VectorSet(np.eye(8)[[0, 1, 2, 4, 5]])
    T = TimeGrid.uniform(64, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        huge = Samples(np.full((5, 64), 1e307), T.times)
        with pytest.raises(DomainError, match="^projected samples have non-finite"):
            reconstruct(A, G, huge, L=1.0)
        # weighted by 1/64 they do not overflow, and the state is 1e307 throughout
        result = reconstruct(A, G, huge, "riemann", L=1.0)
        np.testing.assert_allclose(result.estimate, 1e307, rtol=1e-12)
        assert result.residual < 1e-12
        # samples of 1e160 give a finite answer whose norms' squares overflow
        f = np.arange(8.0)
        noisy = Samples(sample(A, G, f, T).values + 1e160, T.times)
        for truth in (None, f):
            result = reconstruct(A, G, noisy, L=1.0, truth=truth)
            assert np.isfinite(result.estimate).all() and math.isfinite(result.residual)
        assert 1e155 < result.residual < 1e165
        # an error relative to a subnormal truth overflows
        with pytest.raises(DomainError, match="^estimate or residual is non-finite"):
            reconstruct(A, G, sample(A, G, np.full(8, 1e10), T), truth=np.full(8, 5e-324))


def test_an_error_relative_to_a_zero_truth_is_rejected():
    A = heat_cycle_operator(8, 1.0)
    G = VectorSet(np.eye(8)[[0, 1, 2, 4, 5]])
    samples = sample(A, G, np.ones(8), TimeGrid.uniform(64, 1.0))
    for zero in (np.zeros(8), np.full(8, -0.0)):
        with pytest.raises(ValueError, match="^truth vector must be nonzero$"):
            reconstruct(A, G, samples, truth=zero)
    # a zero right-hand side still gives the zero state and residual 0
    result = reconstruct(A, G, Samples(np.zeros((5, 64)), samples.times))
    assert not result.estimate.any() and result.residual == 0.0


def test_overflowing_products_of_finite_inputs_are_a_domain_error():
    # finite generators and state of 1e200: each coefficient overflows, and
    # the input is not to blame
    A = heat_cycle_operator(8, 1.0)
    T = TimeGrid.uniform(16, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="^sample values have non-finite entries"):
            sample(A, VectorSet(np.full((2, 8), 1e200)), np.full(8, 1e200), T)
    with pytest.raises(ValueError, match="^state vectors must be finite$"):
        sample(A, VectorSet(np.full((2, 8), 1e200)), np.full(8, np.inf), T)


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
        reconstruct(A, G, [*recs, recs[0]])
    with pytest.raises(ValueError, match="outside"):
        reconstruct(A, G, [*recs, SampleRecord(3, 0.25, 1.0)])
    with pytest.raises(ValueError, match="no samples"):
        reconstruct(A, G, [])
    with pytest.raises(ValueError):
        reconstruct(A, G, recs, mode="midpoint")
    with pytest.raises(ValueError, match="window length"):
        reconstruct(A, G, recs, mode="riemann")


def test_samples_from_no_records_is_a_named_error():
    # records of no generator/time pair name the empty input, whatever the
    # generator count, before any array is reduced
    for records in ([], (), Samples(np.empty((2, 0)), np.empty(0))):
        for generators in (1, 2):
            with pytest.raises(ValueError, match="^no samples given$"):
                Samples.from_records(records, generators)


def test_samples_from_records_reads_the_generator_count_first():
    # a count that is no integer is a TypeError before any record is read,
    # as for the other counts; a record without fields would fail otherwise
    for generators in (1.5, 2.0, "2"):
        with pytest.raises(TypeError):
            Samples.from_records([object()], generators)
    records = [SampleRecord(1, 0.0, 1.0), SampleRecord(2, 0.0, 2.0)]
    assert Samples.from_records(records, np.int64(2)).values.tolist() == [[1.0], [2.0]]


def test_reconstruct_ignores_record_order():
    rng = np.random.default_rng(127)
    A = random_normal_operator(rng, 5)
    G = random_vectors(rng, 3, 5)
    f = rng.normal(size=5) + 1j * rng.normal(size=5)
    T = TimeGrid(np.linspace(0.0, 1.0, 9, endpoint=False), 1.0)
    recs = sample(A, G, f, T)
    shuffled = [recs[i] for i in rng.permutation(len(recs))]
    for kwargs in ({}, {"truth": f}, {"mode": "riemann", "L": 1.0}):
        ordered = reconstruct(A, G, recs, **kwargs)
        result = reconstruct(A, G, shuffled, **kwargs)
        assert np.array_equal(result.estimate, ordered.estimate)
        assert result.residual == ordered.residual
    bad_inputs = {
        "cover": recs[1:],
        "duplicate": [*recs, recs[7]],
        "outside": [*recs, SampleRecord(4, 0.5, 1.0)],
        f"{2**70} outside": [*recs, SampleRecord(2**70, 0.5, 1.0)],  # beyond int64
    }
    for message, bad in bad_inputs.items():
        with pytest.raises(ValueError, match=message):
            reconstruct(A, G, [bad[i] for i in rng.permutation(len(bad))])


# ---------------------------------------------------------------------------
# results


def test_reconstruction_result_freezes_estimate():
    res = ReconstructionResult(np.array([1.0, 2.0j]), 0.0, 3)
    with pytest.raises(ValueError):
        res.estimate[0] = 5.0
