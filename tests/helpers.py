"""Shared random-system builders and the quadrature, eigen and grouping oracles."""

import math

import numpy as np

from dynframes.errors import DimensionMismatch, NoConvergence
from dynframes.gram import _check_hermitian
from dynframes.spectral import SpectralOperator, VectorSet


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


def random_vectors(rng, m, d):
    v = (rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))) / np.sqrt(2.0)
    return VectorSet(v)


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
