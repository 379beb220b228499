"""Reference figures for bench/README.md: baselines, CLI start-up, tracing overhead.

    python3 bench/reference.py

Prints one JSON object and writes it to ``bench/out/reference.json``. The
figures are unscaled wall-clock medians on the machine it runs on, except the
tracing overhead, which compares host-speed-scaled ``tasks_per_s`` of
``run.py`` with ``--trace 0`` and ``--trace 1`` on each workload, PAIRS
pairs of ``--seconds SECONDS`` runs each.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
REPEATS = 5
SECONDS = 6
PAIRS = 2
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import dynframes as D  # noqa: E402
from dynframes.catalog import two_level_overlap_system  # noqa: E402


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def subprocess_seconds(argv, repeats):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=False, capture_output=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def baselines(repeats):
    """The ROADMAP rows: overlap family at d = 128, L = 1; grouping at d = 2000."""
    A, G = two_level_overlap_system(128)
    gram_s, gram = timed(lambda: D.semicont_gram(A, G, 1.0), repeats)
    jacobi_s, report = timed(lambda: D.frame_bounds(gram), max(1, repeats // 2))
    lapack_s, w = timed(lambda: np.linalg.eigvalsh(gram.matrix), repeats)
    heat = D.heat_cycle_operator(2000, 1.0)
    group_s, _ = timed(lambda: D.group_eigenspaces(heat), max(1, repeats // 2))
    return {
        "d128_gram_build_ms": gram_s * 1e3,
        "d128_frame_bounds_jacobi_s": jacobi_s,
        "d128_eigvalsh_ms": lapack_s * 1e3,
        "d128_bounds_max_abs_difference": max(abs(report.lower - w[0]), abs(report.upper - w[-1])),
        "d2000_group_eigenspaces_s": group_s,
    }


def startup(repeats):
    """Interpreter start, ``import dynframes`` and one subprocess ``analyze`` call."""
    importing = ("import time; t = time.perf_counter(); import {}; "
                 "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def import_s(module):
        out = [float(subprocess.run([sys.executable, "-c", importing.format(module)], env=env,
                                    check=True, capture_output=True, text=True).stdout)
               for _ in range(repeats)]
        return statistics.median(out)

    A, G = two_level_overlap_system(32)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        op, gens = Path(tmp) / "op.json", Path(tmp) / "gens.json"
        D.save_operator(A, op)
        D.save_vectors(G, gens)
        analyze = subprocess_seconds(
            [sys.executable, "-c", "import sys; from dynframes.cli import main; sys.exit(main())",
             "analyze", "--op", str(op), "--vectors", str(gens), "--L", "1", "--format", "json"],
            repeats)
    return {
        "python_start_s": subprocess_seconds([sys.executable, "-c", "pass"], repeats),
        "import_numpy_s": import_s("numpy"),
        "import_dynframes_s": import_s("dynframes"),
        "cli_analyze_d32_subprocess_s": analyze,
    }


def tracing_overhead(seconds, pairs):
    """Share of tasks_per_s lost with tracing on, per workload (median over pairs)."""
    out = {}
    for workload in ("bounds", "design", "recover", "span"):
        losses = []
        for seed in range(pairs):
            rates = {}
            for trace in ((0, 1) if seed % 2 == 0 else (1, 0)):
                subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                                "--seed", str(seed), "--seconds", str(seconds),
                                "--trace", str(trace)], check=True, capture_output=True)
                record = max(OUT.glob(f"run-{workload}-s{seed}-t{trace}-p*.json"),
                             key=lambda p: p.stat().st_mtime)
                rates[trace] = json.loads(record.read_text())["end_to_end"]["tasks_per_s"]["value"]
            losses.append(1.0 - rates[1] / rates[0])
        out[workload] = statistics.median(losses)
    return out


def main():
    OUT.mkdir(exist_ok=True)
    result = {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "baselines": baselines(REPEATS),
        "startup": startup(REPEATS),
        "tracing_overhead": tracing_overhead(SECONDS, PAIRS),
    }
    (OUT / "reference.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
