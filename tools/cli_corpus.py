"""Run the command line over a fixed corpus at two revisions and list every output that differs.

    python tools/cli_corpus.py [--base REV] [--head REV]

The corpus runs every file command (analyze, complete, bessel, carleson,
discretize, verify, lscan, reconstruct) in table, JSON and CSV format on
README's example files and on heat-kernel cycles (d = 16 and 512, with
one-hot, sparse and dense generators), a few input errors, and ``repro``.
Each run records its exit code, standard output and standard error.

``--base`` defaults to HEAD and ``--head`` to the working tree. A revision
is extracted with ``git archive`` into a temporary directory, so nothing in
the repository changes, and runs as ``python -m dynframes`` with its own
``src`` first on ``PYTHONPATH`` and BLAS on one thread. The base revision
writes the input files once, so both revisions read the same bytes.

Two revisions are compared rather than a revision and golden files, so a
change in the last printed digit shows up as a difference to explain, not
as a frozen expectation. Exit status 0 means every output is identical.
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FORMATS = ("table", "json", "csv")
COMMANDS = (
    ("analyze", "--L", "1"),
    ("complete",),
    ("bessel", "--L", "1"),
    ("carleson",),
    ("discretize", "--L", "1", "--target-ratio", "0.5"),
    ("verify", "--L", "1", "--times", "0,0.25,0.5,0.75"),
    ("lscan", "--Ls", "0.5,1,2"),
    ("reconstruct", "--L", "1", "--times", "32", "--noise", "1e-6"),
)
HEAT_SIZES = (16, 512)
# README's documented file examples, byte for byte
README_FILES = {
    "readme-op.json": '{"eigenvalues": [[1.0, 0.0], [0.5, 0.0]], "eigenbasis": null}\n',
    "readme-vectors.json": '{"vectors": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}\n',
}
WRITE_HEAT_FILES = """
import sys
import numpy as np
import dynframes as D
for d in map(int, sys.argv[1:]):
    D.save_operator(D.heat_cycle_operator(d, 1.0), f"heat{d}.json")
    onehot = np.zeros((3, d))
    onehot[np.arange(3), [0, d // 3, 2 * d // 3 + 1]] = 1.0
    D.save_vectors(D.VectorSet(onehot), f"heat{d}-onehot.json")
    rng = np.random.default_rng(d)
    dense = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
    D.save_vectors(D.VectorSet(dense), f"heat{d}-dense.json")
    sparse = np.zeros((2, d), dtype=complex)
    sparse[:, rng.choice(d, 4, replace=False)] = dense[:, :4]
    D.save_vectors(D.VectorSet(sparse), f"heat{d}-sparse.json")
"""
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}


def corpus() -> list:
    """(name, argv, extra environment) of every run, paths relative to the input directory."""
    systems = [("readme", "readme-op.json", "readme-vectors.json")] + [
        (f"heat{d}-{kind}", f"heat{d}.json", f"heat{d}-{kind}.json")
        for d in HEAT_SIZES for kind in ("onehot", "sparse", "dense")
    ]
    runs = []
    for system, op, vectors in systems:
        for command in COMMANDS:
            for fmt in FORMATS:
                argv = [*command, "--op", op, "--vectors", vectors, "--format", fmt]
                runs.append((f"{command[0]} {system} {fmt}", argv, {}))
    readme = ["--op", "readme-op.json", "--vectors", "readme-vectors.json"]
    runs += [
        ("analyze readme --L inf", ["analyze", *readme, "--L", "inf"], {}),
        ("analyze readme quadrature", ["analyze", *readme, "--L", "1", "--method", "quadrature",
                                       "--panels", "64"], {}),
        ("complete readme DYNSAMP_TOL=inf", ["complete", *readme], {"DYNSAMP_TOL": "inf"}),
        ("complete readme DYNSAMP_TOL=1e-6", ["complete", *readme], {"DYNSAMP_TOL": "1e-6"}),
        ("complete missing op file", ["complete", "--op", "missing.json",
                                      "--vectors", "readme-vectors.json"], {}),
        ("reconstruct readme --noise -1", ["reconstruct", *readme, "--L", "1", "--noise", "-1"], {}),
        ("repro --list", ["repro", "--list"], {}),
        ("repro --all", ["repro", "--all"], {}),
        ("repro --all json", ["repro", "--all", "--format", "json"], {}),
    ]
    return runs


def extract(rev: str, into: Path) -> Path:
    """The ``src`` directory of revision ``rev``, unpacked under ``into``."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def run(src: Path, workdir: Path, argv: list, extra: dict) -> tuple:
    env = {**os.environ, **ONE_THREAD, **extra, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "dynframes", *argv], cwd=workdir, env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def write_inputs(src: Path, workdir: Path) -> None:
    for name, text in README_FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", WRITE_HEAT_FILES, *map(str, HEAT_SIZES)],
                   cwd=workdir, env=env, check=True)


def describe(name: str, base: tuple, head: tuple) -> list:
    lines = [f"DIFFERS  {name}"]
    if base[0] != head[0]:
        lines.append(f"  exit code {base[0]} -> {head[0]}")
    for label, a, b in (("stdout", base[1], head[1]), ("stderr", base[2], head[2])):
        if a != b:
            diff = difflib.unified_diff(a.splitlines(), b.splitlines(), "base", "head", n=0,
                                        lineterm="")
            shown = [line for line in diff if not line.startswith(("---", "+++", "@@"))]
            lines.append(f"  {label}: {len(shown)} changed lines")
            lines += [f"    {line[:160]}" for line in shown[:6]]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--head", default=None, help="git revision to compare (default: working tree)")
    args = parser.parse_args()
    runs = corpus()
    with tempfile.TemporaryDirectory(prefix="cli-corpus-") as tmp:
        tmp = Path(tmp)
        (tmp / "base").mkdir()
        (tmp / "inputs").mkdir()
        base_src = extract(args.base, tmp / "base")
        if args.head is None:
            head_src = REPO / "src"
        else:
            (tmp / "head").mkdir()
            head_src = extract(args.head, tmp / "head")
        write_inputs(base_src, tmp / "inputs")
        outputs = {}
        for side, src in (("base", base_src), ("head", head_src)):
            start = time.perf_counter()
            outputs[side] = [run(src, tmp / "inputs", argv, extra) for _, argv, extra in runs]
            print(f"{side}: {len(runs)} runs in {time.perf_counter() - start:.1f} s", flush=True)
    differing = 0
    for (name, _, _), base, head in zip(runs, outputs["base"], outputs["head"]):
        if base != head:
            differing += 1
            print("\n".join(describe(name, base, head)))
    head_name = args.head or "working tree"
    print(f"{differing} of {len(runs)} outputs differ between {args.base} and {head_name}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
