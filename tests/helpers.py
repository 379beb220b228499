"""Shared random-system builders and oracles.

The oracles: dense operators, quadrature, eigen, grouping, rank, the grid
search and JSON documents.
"""

import math

import numpy as np

from dynframes.analysis import FRAME, CompletenessCertificate, GroupRank, frame_bounds
from dynframes.discretize import DiscretizationResult
from dynframes.errors import DimensionMismatch, NoConvergence, NotAFrame
from dynframes.gram import TimeGrid, _check_hermitian, discrete_gram, semicont_gram
from dynframes.spectral import (
    SpectralOperator,
    VectorSet,
    group_eigenspaces,
    rank_tolerance_factor,
)


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def _draw_separated(rng, draw, min_sep, tries=500):
    # stay out of the ambiguous zone between the grouping tolerance and
    # rounding noise: eigenvalues are either well separated or exactly equal
    for _ in range(tries):
        lam = draw()
        n = lam.size
        if n == 1:
            return lam
        diff = np.abs(lam[:, None] - lam[None, :])
        diff[np.eye(n, dtype=bool)] = np.inf
        if diff.min() >= min_sep:
            return lam
    raise RuntimeError("could not draw separated eigenvalues")


def random_normal_operator(rng, d, min_mod=0.2, max_mod=3.0, with_basis=True,
                           min_sep=1e-3):
    def draw():
        mods = np.exp(rng.uniform(np.log(min_mod), np.log(max_mod), size=d))
        args = rng.uniform(-np.pi, np.pi, size=d)
        return mods * np.exp(1j * args)

    lam = _draw_separated(rng, draw, min_sep)
    basis = random_unitary(rng, d) if with_basis else None
    return SpectralOperator(lam, basis)


def random_self_adjoint_operator(rng, d, min_mod=0.3, max_mod=2.5,
                                 with_basis=True, min_sep=1e-3):
    def draw():
        mods = np.exp(rng.uniform(np.log(min_mod), np.log(max_mod), size=d))
        signs = rng.choice([-1.0, 1.0], size=d)
        return (mods * signs).astype(complex)

    lam = _draw_separated(rng, draw, min_sep)
    basis = random_unitary(rng, d) if with_basis else None
    return SpectralOperator(lam, basis)


def dense_matrix(A):
    """The d x d matrix U diag(lambda) U* of a spectral operator."""
    if A.eigenbasis is None:
        return np.diag(A.eigenvalues)
    return (A.eigenbasis * A.eigenvalues) @ A.eigenbasis.conj().T


def random_vectors(rng, m, d):
    v = (rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))) / np.sqrt(2.0)
    return VectorSet(v)


# ---------------------------------------------------------------------------
# element-by-element JSON documents, the oracle for the package's array
# conversion


def complex_to_pair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def pair_to_complex(pair):
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected a [re, im] pair, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def operator_to_dict_by_element(A):
    basis = None
    if A.eigenbasis is not None:
        basis = [
            [complex_to_pair(A.eigenbasis[i, j]) for i in range(A.dimension)]
            for j in range(A.dimension)
        ]
    return {
        "dimension": A.dimension,
        "eigenvalues": [complex_to_pair(z) for z in A.eigenvalues],
        "eigenbasis": basis,
        "tolerance": A.tolerance,
    }


def operator_arrays_by_element(data):
    """Eigenvalues and basis (None for null) of an operator document."""
    lam = np.array([pair_to_complex(p) for p in data["eigenvalues"]], dtype=np.complex128)
    basis = None
    if data.get("eigenbasis") is not None:
        basis = np.empty((lam.size, lam.size), dtype=np.complex128)
        for j, col in enumerate(data["eigenbasis"]):
            basis[:, j] = [pair_to_complex(p) for p in col]
    return lam, basis


def vectors_to_dict_by_element(G):
    return {
        "dimension": G.dimension,
        "vectors": [[complex_to_pair(x) for x in g] for g in G],
    }


def vectors_array_by_element(data):
    return np.array([[pair_to_complex(p) for p in vec] for vec in data["vectors"]],
                    dtype=np.complex128)


def simpson_quadrature(values, L):
    """Composite Simpson over uniform nodes; len(values) must be odd."""
    n = len(values) - 1
    assert n >= 2 and n % 2 == 0
    h = L / n
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return (h / 3.0) * np.sum(w * values)


def principal_log(z):
    """ln|z| + i arg z with arg z in [-pi, pi), straight from the definition."""
    arg = math.atan2(z.imag, z.real)
    return math.log(abs(z)) + 1j * (-math.pi if arg == math.pi else arg)


def simpson_pair_integral(lam, mu, L, panels=1 << 14):
    """Quadrature of lam^t conj(mu^t) using only the branch definition."""
    t = np.linspace(0.0, L, panels + 1)
    log_lam = principal_log(lam)
    log_mu = principal_log(mu)
    vals = np.exp(t * log_lam) * np.conj(np.exp(t * log_mu))
    return simpson_quadrature(vals, L)


def heat_cycle_basis_by_column(d):
    """The real Fourier basis of the d-cycle, one wavenumber at a time.

    The oracle for the basis ``heat_cycle_operator`` builds in one outer
    product: constant, cosine and sine pairs, and the alternating vector
    when d is even.
    """
    j = np.arange(d)
    basis = np.zeros((d, d))
    basis[:, 0] = 1.0 / math.sqrt(d)
    for kk in range(1, (d + 1) // 2):
        basis[:, kk] = math.sqrt(2.0 / d) * np.cos(2.0 * np.pi * kk * j / d)
        basis[:, d - kk] = math.sqrt(2.0 / d) * np.sin(2.0 * np.pi * kk * j / d)
    if d % 2 == 0:
        basis[:, d // 2] = np.where(j % 2 == 0, 1.0, -1.0) / math.sqrt(d)
    return basis


def group_eigenspaces_pairwise(lam, tol):
    """Eigenvalue groups by comparing every pair of indices: the grouping oracle.

    Union-find over all pairs with abs(lam[i] - lam[j]) <= tol. Returns
    (value, indices) pairs ordered by first index, with value the eigenvalue
    at that index, as ``group_eigenspaces`` does.
    """
    lam = np.asarray(lam, dtype=np.complex128)
    d = lam.size
    parent = list(range(d))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # a gap between values near -+max float overflows to inf, beyond any tol
    with np.errstate(over="ignore"):
        for i in range(d):
            for j in range(i + 1, d):
                if abs(lam[i] - lam[j]) <= tol:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[rj] = ri

    groups: dict = {}
    for i in range(d):
        groups.setdefault(find(i), []).append(i)
    return [(complex(lam[m[0]]), tuple(m)) for m in sorted(groups.values(), key=lambda m: m[0])]


def groups_from_labels(lam, labels):
    """(value, indices) per group label 0, 1, ..., one label at a time.

    The value is the eigenvalue at the group's first index, the form
    ``group_eigenspaces_pairwise`` returns.
    """
    out = []
    for g in range(int(labels.max()) + 1):
        indices = tuple(np.flatnonzero(labels == g).tolist())
        out.append((complex(lam[indices[0]]), indices))
    return out


def completeness_per_group(A, G):
    """Spanning certificate with one SVD per eigenvalue group: the rank oracle.

    Each group's (size, |G|) block of eigen-coordinates is ranked on its own,
    counting singular values above rank_tolerance_factor() times the largest
    (0 for an all-zero block), as ``completeness_check`` does for whole
    stacks of blocks at once.
    """
    ghat = A.to_eigenbasis(G.vectors)
    entries = []
    complete = True
    for value, indices in groups_from_labels(A.eigenvalues, group_eigenspaces(A)):
        block = ghat[:, list(indices)].T
        svals = np.linalg.svd(block, compute_uv=False)
        achieved = int(np.count_nonzero(svals > rank_tolerance_factor() * svals[0]))
        required = len(indices)
        if achieved < required:
            complete = False
        entries.append(GroupRank(value, indices, required, achieved))
    return CompletenessCertificate(tuple(entries), complete)


def jacobi_eigh(
    H: np.ndarray, want_vectors: bool = True, tol_factor: float = 1e-12,
    max_sweeps: int = 60,
):
    """Eigendecomposition of a Hermitian matrix by cyclic-by-row Jacobi.

    The oracle that ``frame_bounds``' LAPACK route is tested against.

    Returns (eigenvalues ascending, eigenvector columns or None). Sweeps stop
    once the largest off-diagonal modulus falls below tol_factor times the
    largest initial modulus.
    """
    A = np.asarray(H, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch("eigensolver needs a square matrix")
    _check_hermitian(A, "eigensolver input")
    d = A.shape[0]
    A = 0.5 * (A + A.conj().T)
    V = np.eye(d, dtype=np.complex128) if want_vectors else None

    scale = float(np.max(np.abs(A))) if d else 0.0
    if scale == 0.0 or d == 1:
        w = A.diagonal().real.copy()
        order = np.argsort(w, kind="stable")
        return w[order], (V[:, order] if want_vectors else None)
    threshold = tol_factor * scale

    for _ in range(max_sweeps):
        off = np.abs(A - np.diag(A.diagonal()))
        if float(off.max()) <= threshold:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = A[p, q]
                absa = abs(apq)
                if absa == 0.0:
                    continue
                app = A[p, p].real
                aqq = A[q, q].real
                u = apq / absa
                tau = (aqq - app) / (2.0 * absa)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                ubar = np.conj(u)

                colp = A[:, p].copy()
                colq = A[:, q].copy()
                A[:, p] = c * colp - ubar * s * colq
                A[:, q] = s * colp + ubar * c * colq
                rowp = A[p, :].copy()
                rowq = A[q, :].copy()
                A[p, :] = c * rowp - u * s * rowq
                A[q, :] = s * rowp + u * c * rowq
                A[p, p] = app - t * absa
                A[q, q] = aqq + t * absa
                A[p, q] = 0.0
                A[q, p] = 0.0

                if want_vectors:
                    vp = V[:, p].copy()
                    vq = V[:, q].copy()
                    V[:, p] = c * vp - ubar * s * vq
                    V[:, q] = s * vp + ubar * c * vq

    off = np.abs(A - np.diag(A.diagonal()))
    if float(off.max()) > threshold:
        raise NoConvergence(
            f"jacobi sweep budget exhausted at off-diagonal {off.max():.3e}"
        )

    w = A.diagonal().real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], (V[:, order] if want_vectors else None)


def find_discretization_reference(A, G, L, target_ratio, max_points=1 << 20, path=None):
    """The doubling grid search with every grid built afresh: the search oracle.

    Each doubling builds ``TimeGrid.uniform(n, L)`` and its Riemann-weighted
    ``discrete_gram``, and the accepted grid's plain Gram is built once more
    for the report; ``find_discretization`` forms only that plain Gram on
    each nested grid and scales its lower bound by L / n. When ``path`` is a
    list, each doubling appends (weighted lower bound, target).
    """
    target_ratio = float(target_ratio)
    if not 0.0 < target_ratio < 1.0:
        raise ValueError("target_ratio must lie strictly between 0 and 1")
    sc = frame_bounds(semicont_gram(A, G, L))
    if sc.classification != FRAME:
        raise NotAFrame(
            f"semi-continuous lower bound {sc.lower:.3e} is below tolerance"
        )
    target = target_ratio * sc.lower

    n = 2
    iterations = 0
    last = -math.inf
    while n <= max_points:
        grid = TimeGrid.uniform(n, L)
        weighted = frame_bounds(discrete_gram(A, G, grid, weights="riemann"))
        iterations += 1
        last = weighted.lower
        if path is not None:
            path.append((weighted.lower, target))
        if weighted.lower >= target:
            plain = frame_bounds(discrete_gram(A, G, grid))
            return DiscretizationResult(grid, plain, L / n, iterations)
        n *= 2
    raise NoConvergence(
        f"no uniform grid up to {max_points} points reached "
        f"{target_ratio} of the continuous lower bound (last {last:.3e})"
    )
