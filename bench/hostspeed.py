"""Host speed measured alongside the program, so that times can be scaled to it.

On a shared two-core virtual machine the speed of the same code drifts by
20-40% over tens of seconds, with no CPU time stolen, so runs made a few
minutes apart disagree by more than any useful regression bound. After each
task the runner spends a tenth of that task's time on a fixed calibration
kernel, written here and independent of dynframes. Its rate in the bursts
just before and after a task is the host's speed during that task; a time
multiplied by ``speed / REFERENCE_SPEED`` is the time the same work takes
at the reference speed. A slower program stays slower by the same factor; a slower
host slows the kernel too and cancels out.

The kernel mixes what dynframes spends its time on: Python loops over numpy
scalars and small arrays (like a Jacobi sweep or an eigenvalue-grouping
loop), and building small Python objects (like sample records).
"""

from __future__ import annotations

import time

import numpy as np

# Calibration units per second on the two-core box the benchmark was defined
# on (median over its runs); it only sets the scale of the reported times.
REFERENCE_SPEED = 600.0
SHARE = 0.1


def _matrix():
    rng = np.random.default_rng(20180130)
    H = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    return H + H.conj().T


_H = _matrix()


def unit() -> None:
    """One unit of calibration work: a rotation sweep, a scalar loop, some objects."""
    A = _H.copy()
    d = A.shape[0]
    for p in range(d - 1):
        for q in range(p + 1, d):
            apq = A[p, q]
            absa = abs(apq)
            u = apq / absa
            tau = (A[q, q].real - A[p, p].real) / (2.0 * absa)
            t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            colp = A[:, p].copy()
            colq = A[:, q].copy()
            A[:, p] = c * colp - np.conj(u) * s * colq
            A[:, q] = s * colp + np.conj(u) * c * colq
    total = 0
    for i in range(5000):
        total += i * i
    table = {}
    for i in range(1000):
        table[(i, float(i))] = complex(i, 1.0)


class Calibrator:
    """Runs the kernel for SHARE of each timed piece of work; reports a speed per piece."""

    def __init__(self):
        self.bursts = []
        self.log = []  # every take()'s bursts as (units, seconds), for the run record

    def after(self, seconds: float) -> None:
        start = time.perf_counter()
        units = 0
        while True:
            unit()
            units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= SHARE * seconds:
                break
        self.bursts.append((units, elapsed))

    def take(self) -> list:
        """Speed factor of each timed piece since the last call, in order.

        A piece's factor is the kernel's rate over the bursts just before and
        just after it, divided by REFERENCE_SPEED; the first piece of a call
        has only the burst after it.
        """
        bursts, self.bursts = self.bursts, []
        self.log.append(bursts)
        factors = []
        for k in range(len(bursts)):
            window = bursts[max(0, k - 1): k + 1]
            rate = sum(u for u, _ in window) / sum(s for _, s in window)
            factors.append(rate / REFERENCE_SPEED)
        return factors
