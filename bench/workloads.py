"""The four benchmark workloads, each a fixed task list drawn from the seed.

``make(name, seed, workdir)`` draws the raw inputs and computes their
reference answers with numpy alone; neither is timed. ``Workload.setup()``
is the timed set-up: it turns the raw inputs into dynframes objects and
input files and returns the tasks. A task's ``run`` calls only the public
API of dynframes; its ``check`` compares what ``run`` returned with the
reference, after the pass, outside the timed region.

Every task list is made of the same operations for every seed. Its tasks
fall into cost classes of odd total count, arranged so that the middle task
of a pass sits in the middle of a class: the median latency of a run then
stays inside one class instead of jumping between two.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import dynframes as D
from dynframes import cli

import checks

@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


class Workload:
    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.systems = self.prepare()

    def prepare(self) -> list:
        raise NotImplementedError

    def setup(self) -> list:
        raise NotImplementedError


def random_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_vectors(rng, m: int, d: int) -> np.ndarray:
    return (rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))) / np.sqrt(2.0)


def overlap_family(rng, d: int):
    """diag(1, 3, 1, 3, ...) with generators e_n + e_{n+1}, in a random eigenbasis."""
    lam = np.where(np.arange(d) % 2 == 0, 1.0, 3.0).astype(complex)
    coords = np.zeros((d - 1, d), dtype=complex)
    for n in range(d - 1):
        coords[n, n] = coords[n, n + 1] = 1.0
    U = random_unitary(rng, d)
    return lam, U, coords @ U.T


def random_system(rng, d: int, m: int):
    """Moduli in [1/2, 2], arguments anywhere, random eigenbasis and generators."""
    lam = np.exp(rng.uniform(np.log(0.5), np.log(2.0), d) + 1j * rng.uniform(-np.pi, np.pi, d))
    return lam, random_unitary(rng, d), random_vectors(rng, m, d)


def repeated_eigenvalue_system(rng, d: int, m: int):
    """One eigenvalue of multiplicity m + 1 seen by only m generators: incomplete."""
    lam, U, vecs = random_system(rng, d, m)
    lam[: m + 1] = lam[0]
    return lam, U, vecs


def eigen_coords(U, vecs) -> np.ndarray:
    return vecs if U is None else vecs @ np.conj(U)


# ---------------------------------------------------------------------------
# bounds: the CLI's analyze and complete on JSON files


class Bounds(Workload):
    """analyze then complete, in-process through ``cli.main``, at d = 32, 64, 128."""

    L = 1.0

    def prepare(self):
        rng = self.rng
        # one system at each end and three of like cost in the middle, so
        # the median latency is the middle of the d = 64 class
        systems = [
            repeated_eigenvalue_system(rng, 32, 8),
            overlap_family(rng, 64),
            random_system(rng, 64, 32),
            random_system(rng, 64, 32),
            overlap_family(rng, 128),
        ]
        out = []
        for lam, U, vecs in systems:
            ghat = eigen_coords(U, vecs)
            lower, upper = checks.extreme_eigenvalues(checks.window_gram_hat(lam, ghat, self.L))
            ranks = checks.group_ranks(lam, ghat)
            complete = all(req == got for req, got in ranks)
            if complete != checks.is_frame(lower, upper):
                raise RuntimeError("bounds input whose verdict and completeness disagree")
            ref = {"d": lam.size, "lower": lower, "upper": upper,
                   "ranks": ranks, "complete": complete}
            out.append((lam, U, vecs, ref))
        return out

    def setup(self):
        tasks = []
        for i, (lam, U, vecs, ref) in enumerate(self.systems):
            op = self.workdir / f"op{i}.json"
            gens = self.workdir / f"gens{i}.json"
            D.save_operator(D.SpectralOperator(lam, U), op)
            D.save_vectors(D.VectorSet(vecs), gens)
            files = ["--op", str(op), "--vectors", str(gens), "--format", "json"]
            out_a = self.workdir / f"analyze{i}.json"
            out_c = self.workdir / f"complete{i}.json"
            argv_a = ["analyze", *files, "--L", repr(self.L), "--out", str(out_a)]
            argv_c = ["complete", *files, "--out", str(out_c)]

            def run(argv_a=argv_a, argv_c=argv_c):
                return cli.main(argv_a), cli.main(argv_c)

            def check(codes, out_a=out_a, out_c=out_c, ref=ref):
                checks.check_bounds_task(json.loads(out_a.read_text()), codes[0],
                                         json.loads(out_c.read_text()), codes[1], ref)

            tasks.append(Task(f"bounds/d{lam.size}/{i}", run, check))
        return tasks


# ---------------------------------------------------------------------------
# design: window scans, doubling searches and window certificates


class Design(Workload):
    """window_scan, find_discretization at two ratios, then the certificate."""

    RATIOS = (0.9, 0.99)

    def prepare(self):
        rng = self.rng
        specs = []
        # rotation spectra: equispaced unit-circle eigenvalues (off the branch
        # cut) in a random eigenbasis; the search must resolve every frequency
        # gap, so it doubles up to about L points. Cost classes run 2 + 3 + 2
        # (gap pair and d = 4; three d = 8; overlap and d = 16), so the median
        # latency is a d = 8 system.
        for d, m, L in ((4, 1, 64.0), (8, 1, 128.0), (8, 1, 128.0), (8, 1, 128.0),
                        (16, 2, 512.0)):
            theta = -np.pi + 2.0 * np.pi * (np.arange(d) + 0.5) / d
            specs.append((np.exp(1j * theta), random_unitary(rng, d), random_vectors(rng, m, d),
                          L, (1.0, 8.0, 32.0, L)))
        specs.append((np.array([1.0, 0.75], dtype=complex), None,
                      np.array([[1.0, 1.0]], dtype=complex), 1.0, (0.5, 1.0, 2.0, 4.0)))
        lam, U, vecs = overlap_family(rng, 16)
        specs.append((lam, U, vecs, 1.0, (0.5, 1.0, 2.0, 4.0)))

        out = []
        for lam, U, vecs, L, lengths in specs:
            ghat = eigen_coords(U, vecs)
            windows = [checks.extreme_eigenvalues(checks.window_gram_hat(lam, ghat, x))
                       for x in lengths]
            ref = {
                "L": L,
                "lengths": lengths,
                "windows": windows,
                "window": checks.extreme_eigenvalues(checks.window_gram_hat(lam, ghat, L)),
                "self_adjoint_invertible": bool(np.all(lam.imag == 0) and np.all(np.abs(lam) > 0)),
                "ghat": ghat,
                "lam": lam,
            }
            out.append((lam, U, vecs, ref))
        return out

    def setup(self):
        tasks = []
        for i, (lam, U, vecs, ref) in enumerate(self.systems):
            A = D.SpectralOperator(lam, U)
            G = D.VectorSet(vecs)
            L, lengths = ref["L"], ref["lengths"]

            def run(A=A, G=G, L=L, lengths=lengths):
                scan = D.window_scan(A, G, lengths)
                found = [D.find_discretization(A, G, L, r) for r in self.RATIOS]
                certs = [D.verify_discrete_implies_semicont(A, G, f.grid, L) for f in found]
                return scan, found, certs

            tasks.append(Task(f"design/d{lam.size}/{i}", run, self._checker(ref)))
        return tasks

    def _checker(self, ref):
        lam, ghat, L = ref["lam"], ref["ghat"], ref["L"]
        memo = {}

        def weighted_lower(n):
            if n not in memo:
                times = np.arange(n) * (L / n)
                S = checks.sampled_gram_hat(lam, ghat, times, np.full(n, L / n))
                memo[n] = checks.extreme_eigenvalues(S)[0]
            return memo[n]

        def plain(n):
            key = ("plain", n)
            if key not in memo:
                times = np.arange(n) * (L / n)
                memo[key] = checks.extreme_eigenvalues(checks.sampled_gram_hat(lam, ghat, times))
            return memo[key]

        def check(output):
            scan, found, certs = output
            checks.check_scan(scan, ref["windows"], ref["self_adjoint_invertible"])
            for ratio, result, (cont, analytic) in zip(self.RATIOS, found, certs):
                n = len(result.grid)
                checks.check_discretization(n, result.grid.times, L, ratio * ref["window"][0],
                                            weighted_lower, plain(n), result.report.to_dict())
                checks.check_transfer(cont.to_dict(), analytic, ref["window"])

        return check


# ---------------------------------------------------------------------------
# recover: sample a state on a heat-kernel cycle and reconstruct it


class Recover(Workload):
    """sample + reconstruct on d-cycles, d = 8, 12, 16, sensors that certify."""

    DIFFUSION = 1.0
    L = 1.0
    NOISE = 1e-6
    # (samples per sensor, noise) per cycle; three per cycle keeps the count odd
    RUNS = ((256, 0.0), (1024, 0.0), (1024, NOISE))
    MAX_COND = 100.0

    def _sensors(self, d: int):
        """A seeded set of d/2 + 1 sensors whose 256-time sample matrix has cond <= MAX_COND."""
        times = np.arange(256) * (self.L / 256)
        for _ in range(1000):
            sensors = np.sort(self.rng.choice(d, d // 2 + 1, replace=False))
            B = checks.heat_sample_matrix(d, self.DIFFUSION, sensors, times)
            sv = np.linalg.svd(B, compute_uv=False)
            if sv[0] <= self.MAX_COND * sv[-1]:
                return [int(s) for s in sensors]
        raise RuntimeError(f"no well-conditioned sensor set found on the {d}-cycle")

    def prepare(self):
        out = []
        for d in (8, 12, 16):
            sensors = self._sensors(d)
            for n, noise in self.RUNS:
                times = np.arange(n) * (self.L / n)
                B = checks.heat_sample_matrix(d, self.DIFFUSION, sensors, times)
                f = self.rng.normal(size=d) + 1j * self.rng.normal(size=d)
                jitter = noise * (self.rng.normal(size=B.shape[0])
                                  + 1j * self.rng.normal(size=B.shape[0]))
                clean = B @ f
                sv = np.linalg.svd(B, compute_uv=False)
                ref = {
                    "truth": f,
                    "values": clean,
                    "observed": clean + jitter,
                    "scale": float(np.max(np.abs(clean))),
                    "lstsq": np.linalg.lstsq(B, clean + jitter, rcond=None)[0],
                    "cond": float(sv[0] / sv[-1]),
                    "noisy": noise > 0.0,
                }
                out.append((d, sensors, n, ref))
        return out

    def setup(self):
        tasks = []
        operators = {}
        for d, sensors, n, ref in self.systems:
            if d not in operators:
                operators[d] = D.heat_cycle_operator(d, self.DIFFUSION)
            A = operators[d]
            vecs = np.zeros((len(sensors), d), dtype=complex)
            vecs[np.arange(len(sensors)), sensors] = 1.0
            G = D.VectorSet(vecs)
            T = D.TimeGrid.uniform(n, self.L)
            f = ref["truth"]
            # a noisy task reconstructs from the benchmark's noisy values,
            # labelled as ``sample`` labels its records (generator-major)
            observed = None
            if ref["noisy"]:
                labels = [(gi, float(t)) for gi in range(1, len(sensors) + 1) for t in T.times]
                observed = [D.SampleRecord(gi, t, complex(v))
                            for (gi, t), v in zip(labels, ref["observed"])]

            def run(A=A, G=G, T=T, f=f, observed=observed):
                records = D.sample(A, G, f, T)
                return records, D.reconstruct(A, G, records if observed is None else observed,
                                              L=self.L)

            def check(output, ref=ref):
                records, result = output
                checks.check_samples([r.value for r in records], ref["values"], ref["scale"])
                checks.check_estimate(result.estimate, ref["truth"], ref["lstsq"],
                                      ref["cond"], ref["noisy"])

            tasks.append(Task(f"recover/d{d}/n{n}", run, check))
        return tasks


# ---------------------------------------------------------------------------
# span: eigenspace-by-eigenspace completeness on large heat-kernel cycles


class Span(Workload):
    """completeness_check on d-cycles, d = 512, 1024, 2048: one, two antipodal, three sensors."""

    DIFFUSION = 1.0

    def prepare(self):
        out = []
        for d in (512, 1024, 2048):
            s = int(self.rng.integers(d))
            triple = sorted(int(x) for x in self.rng.choice(d, 3, replace=False))
            for sensors in ([s], [s, (s + d // 2) % d], triple):
                out.append((d, sensors))
        return out

    def setup(self):
        tasks = []
        operators = {}
        for d, sensors in self.systems:
            if d not in operators:
                operators[d] = D.heat_cycle_operator(d, self.DIFFUSION)
            A = operators[d]
            vecs = np.zeros((len(sensors), d), dtype=complex)
            vecs[np.arange(len(sensors)), sensors] = 1.0
            G = D.VectorSet(vecs)

            def run(A=A, G=G):
                return D.completeness_check(A, G)

            def check(cert, d=d, sensors=sensors):
                checks.check_span(cert, d, self.DIFFUSION, sensors)

            tasks.append(Task(f"span/d{d}/m{len(sensors)}", run, check))
        return tasks


def make(name: str, seed: int, workdir: Path) -> Workload:
    cls = {"bounds": Bounds, "design": Design, "recover": Recover, "span": Span}[name]
    return cls(seed, workdir)
