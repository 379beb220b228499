"""Run the command line over a fixed corpus at two revisions and list every output that differs.

    python tools/cli_corpus.py [--base REV] [--head REV]

The corpus runs:

- every file command (analyze, complete, bessel, carleson, discretize,
  verify, lscan, reconstruct) in table, JSON and CSV format on README's
  example files and on heat-kernel cycles (d = 16 and 512, with one-hot,
  antipodal, sparse and dense generators; the antipodal pair, sensors 0
  and d/2, leaves every paired eigenspace rank-deficient at rounding
  level, where real and complex arithmetic sit closest to the rank
  cutoff), and on the 16-cycle with nine one-hot sensors at 0, 1, 2, 4,
  ..., 14, a frame, so ``reconstruct`` and ``discretize`` reach an answer
  through real normal equations instead of ending in ``NotAFrame``;
- ``analyze --method quadrature`` in each format;
- ``analyze``, ``complete`` and ``lscan`` with ``--out FILE`` in each
  format, and ``--out`` into a directory that does not exist;
- ``repro --list``, ``repro --all``, ``repro example-5.5`` and
  ``repro example-4.4 --d 16`` (a truncation on one of the entry's own
  reference sizes) in each format, and an unknown entry name;
- ``complete`` in each format on a diagonal operator whose spectrum holds a
  real chain of near ties, a complex cluster, a vertical chain and a zero
  eigenvalue, with four random generators, so eigenvalue grouping is
  covered;
- ``complete`` in each format on a diagonal operator with single, double
  and triple eigenvalues and one generator that is exactly zero (or -0.0)
  on some of them, so blocks with one row or column are ranked, some
  groups report rank 0/1 and some 1/2;
- ``complete`` on finite generators whose eigen-coordinates overflow, and
  ``analyze`` and ``bessel`` on README's operator with two generators whose
  entries are 1e200, so their weight products overflow;
- ``reconstruct`` on README's files with ``--noise 1e160``, where the
  squares of the error's norm overflow but the error does not;
- deep grid searches: ``discretize`` on 8 unit-circle rotations in a random
  basis with one random generator, L = 64, at ``--target-ratio`` 0.9 and
  0.99 in each format (6 doublings), once with ``--max-points 48``,
  which ends in ``NoConvergence``, and once with ``--max-points 1``;
- ``complete`` on files that state ``"dimension"`` as something other
  than a JSON integer: an operator and a vectors file with ``true`` (on
  one-dimensional data, so ``true`` reads as 1) and with ``2.0``, and an
  object-form vectors file with ``null``; a revision with one integer rule
  for the field reports ``invalid op file`` or ``invalid vectors file`` on
  each. Also ``complete`` on README's vectors with an extra ``"labels"``
  key, which loads like README's file;
- ``analyze`` and ``complete`` in each format on README's operator and
  generators written in the object form (``{"dtype", "shape", "base64"}``),
  and ``complete`` on an object-form operator whose payload is one byte
  short. These files are built here with ``json``, ``base64`` and
  ``struct``, not with ``save_*``, so both revisions read the same bytes. A
  revision that reads only ``[re, im]`` pairs reports ``invalid op file`` on
  all of them; on one that reads the form, each object-form run must print
  exactly what the same run prints on README's pair files, and the tool
  checks that on the head revision;
- overflow in window scans and certificates, on diag(3, 0.5) with the one
  generator (1, 1): ``lscan --Ls 1,10,400``, whose last window integral
  overflows (3^800) while the earlier windows are finite, so a scan must
  raise the first failing length's error, and ``verify --L 400 --times
  0``, where one time cannot separate the two modes, so the discrete
  hypothesis fails before the overflowing window Gram is formed;
- every file command on README's vectors with a missing ``--op`` file, and
  on README's files with ``DYNSAMP_TOL=inf``, so the error path that loads
  the inputs is covered for each handler;
- a few input errors, among them windows that are not positive and finite
  on every route: ``analyze --L inf`` and ``analyze --method quadrature
  --L inf``, ``reconstruct --L inf``, ``lscan --Ls 1,nan`` and
  ``verify --L nan``.

Each run records its exit code, standard output and standard error, and the
file that ``--out`` wrote.

``--base`` defaults to HEAD and ``--head`` to the working tree. A revision
is extracted with ``git archive`` into a temporary directory, so nothing in
the repository changes, and runs as ``python -m dynframes`` with its own
``src`` first on ``PYTHONPATH`` and BLAS on one thread. The base revision
writes the input files once, so both revisions read the same bytes.

Two revisions are compared rather than a revision and golden files, so a
change in the last printed digit shows up as a difference to explain, not
as a frozen expectation. Exit status 0 means every output is identical and
every object-form run at the head matches its pair-file run.
"""

import argparse
import base64
import difflib
import json
import os
import struct
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
# the commands also run with --out, one per kind of CSV: one row from the
# payload, rows of their own, rows zipped from the payload's lists
OUT_COMMANDS = ("analyze", "complete", "lscan")
HEAT_SIZES = (16, 512)
# README's documented file examples, byte for byte
README_FILES = {
    "readme-op.json": '{"eigenvalues": [[1.0, 0.0], [0.5, 0.0]], "eigenbasis": null}\n',
    "readme-vectors.json": '{"vectors": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}\n',
}


def _array_object(dtype: str, shape: list, doubles: list, cut: int = 0) -> dict:
    """The object form of an array given as its doubles; ``cut`` drops trailing bytes."""
    raw = struct.pack(f"<{len(doubles)}d", *doubles)
    return {"dtype": dtype, "shape": shape,
            "base64": base64.b64encode(raw[:len(raw) - cut]).decode("ascii")}


README_OP = json.loads(README_FILES["readme-op.json"])
README_VECTORS = json.loads(README_FILES["readme-vectors.json"])
# README's operator and generators in the object form, an operator whose
# payload is one byte short, and documents whose "dimension" is no integer
JSON_FILES = {
    "readme-object-op.json": {"eigenvalues": _array_object("<c16", [2], [1.0, 0.0, 0.5, 0.0]),
                              "eigenbasis": None},
    "readme-object-vectors.json": {"vectors": _array_object(
        "<c16", [2, 2], [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0])},
    "short-object-op.json": {"eigenvalues": _array_object("<c16", [2], [1.0, 0.0, 0.5, 0.0], 1),
                             "eigenbasis": None},
    "one-op.json": {"eigenvalues": [[0.5, 0.0]]},
    "one-vectors.json": {"vectors": [[[1.0, 0.0]]]},
    "dimension-true-op.json": {"eigenvalues": [[0.5, 0.0]], "dimension": True},
    "dimension-true-vectors.json": {"vectors": [[[1.0, 0.0]]], "dimension": True},
    "dimension-float-op.json": {**README_OP, "dimension": 2.0},
    "dimension-float-vectors.json": {**README_VECTORS, "dimension": 2.0},
    "dimension-null-object-vectors.json": {"vectors": _array_object(
        "<c16", [2, 2], [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]), "dimension": None},
    "labels-vectors.json": {**README_VECTORS, "labels": ["a", "b"]},
    "diag3-op.json": {"eigenvalues": [[3.0, 0.0], [0.5, 0.0]]},
    "ones-vectors.json": {"vectors": [[[1.0, 0.0], [1.0, 0.0]]]},
}
WRITE_GENERATED_FILES = """
import sys
import numpy as np
import dynframes as D
for d in map(int, sys.argv[1:]):
    D.save_operator(D.heat_cycle_operator(d, 1.0), f"heat{d}.json")
    onehot = np.zeros((3, d))
    onehot[np.arange(3), [0, d // 3, 2 * d // 3 + 1]] = 1.0
    D.save_vectors(D.VectorSet(onehot), f"heat{d}-onehot.json")
    antipodal = np.zeros((2, d))
    antipodal[[0, 1], [0, d // 2]] = 1.0
    D.save_vectors(D.VectorSet(antipodal), f"heat{d}-antipodal.json")
    rng = np.random.default_rng(d)
    dense = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
    D.save_vectors(D.VectorSet(dense), f"heat{d}-dense.json")
    sparse = np.zeros((2, d), dtype=complex)
    sparse[:, rng.choice(d, 4, replace=False)] = dense[:, :4]
    D.save_vectors(D.VectorSet(sparse), f"heat{d}-sparse.json")
nine = np.zeros((9, 16))
nine[np.arange(9), [0, 1, 2, 4, 6, 8, 10, 12, 14]] = 1.0
D.save_vectors(D.VectorSet(nine), "heat16-nine.json")
rng = np.random.default_rng(8)
q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
D.save_operator(D.SpectralOperator(np.exp(2j * np.pi * np.arange(8) / 8), q), "rot8.json")
D.save_vectors(D.VectorSet(rng.normal(size=(1, 8)) + 1j * rng.normal(size=(1, 8))),
               "rot8-vectors.json")
# near ties at the default tolerance 1e-10: a real chain 3 tolerances long, a
# complex cluster within it, a vertical chain and a zero eigenvalue
lam = np.concatenate((1 + 0.6e-10 * np.arange(6),
                      0.5 + 0.5j + 0.4e-10 * np.exp(2j * np.pi * np.arange(5) / 5),
                      -0.5 + 1j * (0.3 + 0.7e-10 * np.arange(4)), [0.0]))
D.save_operator(D.SpectralOperator(lam), "groups.json")
D.save_vectors(D.VectorSet(rng.normal(size=(4, 16)) + 1j * rng.normal(size=(4, 16))),
               "groups-vectors.json")
# one generator on single, double and triple eigenvalues, zero on some groups
lam = np.array([1.0, 0.5, 0.5, 0.25, 0.25, 0.25, 0.125, 2.0, 2.0, 0.75, 0.0])
D.save_operator(D.SpectralOperator(lam), "zeros.json")
D.save_vectors(D.VectorSet(np.array([[1.0, 0.0, -2.0, 0.0, -0.0, 0.0, 0.0, 0.0, 3.0, -0.0, 0.5]])),
               "zeros-vectors.json")
# finite generators whose eigen-coordinates overflow
H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
D.save_operator(D.SpectralOperator(np.array([0.5, 0.7]), H), "overflow.json")
D.save_vectors(D.VectorSet(np.array([[1.7e308, 1.7e308]])), "overflow-vectors.json")
# finite generators whose weight products overflow on README's operator
D.save_vectors(D.VectorSet(np.full((2, 2), 1e200)), "huge-vectors.json")
"""
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}


def corpus() -> list:
    """(name, argv, extra environment) of every run, paths relative to the input directory."""
    systems = [("readme", "readme-op.json", "readme-vectors.json")] + [
        (f"heat{d}-{kind}", f"heat{d}.json", f"heat{d}-{kind}.json")
        for d in HEAT_SIZES for kind in ("onehot", "antipodal", "sparse", "dense")
    ] + [("heat16-nine", "heat16.json", "heat16-nine.json")]
    runs = []
    for system, op, vectors in systems:
        for command in COMMANDS:
            for fmt in FORMATS:
                argv = [*command, "--op", op, "--vectors", vectors, "--format", fmt]
                runs.append((f"{command[0]} {system} {fmt}", argv, {}))
    readme = ["--op", "readme-op.json", "--vectors", "readme-vectors.json"]
    diag3 = ["--op", "diag3-op.json", "--vectors", "ones-vectors.json"]
    rotations = ["discretize", "--op", "rot8.json", "--vectors", "rot8-vectors.json",
                 "--L", "64"]
    quadrature = ["analyze", *readme, "--L", "1", "--method", "quadrature", "--panels", "64"]
    for fmt in FORMATS:
        runs.append((f"analyze readme quadrature {fmt}", [*quadrature, "--format", fmt], {}))
        for command in (c for c in COMMANDS if c[0] in OUT_COMMANDS):
            argv = [*command, *readme, "--format", fmt, "--out", f"out.{fmt}"]
            runs.append((f"{command[0]} readme {fmt} --out", argv, {}))
        for entry in ("--list", "--all", "example-5.5"):
            runs.append((f"repro {entry} {fmt}", ["repro", entry, "--format", fmt], {}))
        runs.append((f"repro example-4.4 --d 16 {fmt}",
                     ["repro", "example-4.4", "--d", "16", "--format", fmt], {}))
        for ratio in ("0.9", "0.99"):
            argv = [*rotations, "--target-ratio", ratio, "--format", fmt]
            runs.append((f"discretize rot8 --target-ratio {ratio} {fmt}", argv, {}))
        argv = ["complete", "--op", "groups.json", "--vectors", "groups-vectors.json",
                "--format", fmt]
        runs.append((f"complete groups {fmt}", argv, {}))
        argv = ["complete", "--op", "zeros.json", "--vectors", "zeros-vectors.json",
                "--format", fmt]
        runs.append((f"complete zeros {fmt}", argv, {}))
        for command in COMMANDS[:2]:  # analyze and complete
            argv = [*command, "--op", "readme-object-op.json",
                    "--vectors", "readme-object-vectors.json", "--format", fmt]
            runs.append((f"{command[0]} readme-object {fmt}", argv, {}))
    runs += [
        ("analyze readme --L inf", ["analyze", *readme, "--L", "inf"], {}),
        ("analyze readme quadrature --L inf",
         ["analyze", *readme, "--L", "inf", "--method", "quadrature"], {}),
        ("reconstruct readme --L inf", ["reconstruct", *readme, "--L", "inf"], {}),
        ("lscan readme --Ls 1,nan", ["lscan", *readme, "--Ls", "1,nan"], {}),
        ("verify readme --L nan", ["verify", *readme, "--L", "nan", "--times", "0,0.5"], {}),
        ("analyze readme --out missing directory",
         ["analyze", *readme, "--L", "1", "--out", "missing/out.txt"], {}),
        ("complete readme DYNSAMP_TOL=1e-6", ["complete", *readme], {"DYNSAMP_TOL": "1e-6"}),
        ("complete overflow", ["complete", "--op", "overflow.json",
                               "--vectors", "overflow-vectors.json"], {}),
        ("complete short object op file", ["complete", "--op", "short-object-op.json",
                                           "--vectors", "readme-vectors.json"], {}),
    ]
    # every file command reads DYNSAMP_TOL and its files before its own arguments
    for command in COMMANDS:
        runs.append((f"{command[0]} missing op file",
                     [*command, "--op", "missing.json", "--vectors", "readme-vectors.json"], {}))
        runs.append((f"{command[0]} readme DYNSAMP_TOL=inf", [*command, *readme],
                     {"DYNSAMP_TOL": "inf"}))
    for what, op, vectors in (
        ("dimension true op", "dimension-true-op.json", "one-vectors.json"),
        ("dimension true vectors", "one-op.json", "dimension-true-vectors.json"),
        ("dimension 2.0 op", "dimension-float-op.json", "readme-vectors.json"),
        ("dimension 2.0 vectors", "readme-op.json", "dimension-float-vectors.json"),
        ("dimension null object vectors", "readme-op.json",
         "dimension-null-object-vectors.json"),
        ("labels vectors", "readme-op.json", "labels-vectors.json"),
    ):
        runs.append((f"complete {what}", ["complete", "--op", op, "--vectors", vectors], {}))
    runs += [
        ("reconstruct readme --noise -1", ["reconstruct", *readme, "--L", "1", "--noise", "-1"], {}),
        ("reconstruct readme --noise 1e160",
         ["reconstruct", *readme, "--L", "1", "--noise", "1e160"], {}),
        ("analyze readme huge", ["analyze", "--op", "readme-op.json",
                                 "--vectors", "huge-vectors.json", "--L", "1"], {}),
        ("bessel readme huge", ["bessel", "--op", "readme-op.json",
                                "--vectors", "huge-vectors.json", "--L", "1"], {}),
        ("repro unknown entry", ["repro", "example-nope"], {}),
        ("discretize rot8 --max-points 48",
         [*rotations, "--target-ratio", "0.9", "--max-points", "48"], {}),
        ("discretize rot8 --max-points 1", [*rotations, "--max-points", "1"], {}),
        ("lscan diag3 --Ls 1,10,400", ["lscan", *diag3, "--Ls", "1,10,400"], {}),
        ("verify diag3 --L 400 --times 0", ["verify", *diag3, "--L", "400", "--times", "0"], {}),
    ]
    return runs


def extract(rev: str, into: Path) -> Path:
    """The ``src`` directory of revision ``rev``, unpacked under ``into``."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def run(src: Path, workdir: Path, argv: list, extra: dict) -> tuple:
    """(exit code, stdout, stderr, text of the ``--out`` file or None)."""
    env = {**os.environ, **ONE_THREAD, **extra, "PYTHONPATH": str(src)}
    out = workdir / argv[argv.index("--out") + 1] if "--out" in argv else None
    if out is not None:
        out.unlink(missing_ok=True)
    done = subprocess.run([sys.executable, "-m", "dynframes", *argv], cwd=workdir, env=env,
                          capture_output=True, text=True)
    written = None
    if out is not None and out.exists():
        written = out.read_text(encoding="utf-8")
        out.unlink()
    return done.returncode, done.stdout, done.stderr, written


def write_inputs(src: Path, workdir: Path) -> None:
    for name, text in README_FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    for name, doc in JSON_FILES.items():
        (workdir / name).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", WRITE_GENERATED_FILES, *map(str, HEAT_SIZES)],
                   cwd=workdir, env=env, check=True)


def describe(name: str, base: tuple, head: tuple) -> list:
    lines = [f"DIFFERS  {name}"]
    if base[0] != head[0]:
        lines.append(f"  exit code {base[0]} -> {head[0]}")
    if (base[3] is None) != (head[3] is None):
        lines.append(f"  out file {'written' if base[3] is None else 'not written'} by head")
    for label, a, b in (("stdout", base[1], head[1]), ("stderr", base[2], head[2]),
                        ("out file", base[3] or "", head[3] or "")):
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
    # the object form holds the pair files' numbers, so the head prints the same
    index = {name: i for i, (name, _, _) in enumerate(runs)}
    mismatched = 0
    for name, i in index.items():
        if "readme-object" in name:
            twin = name.replace("readme-object", "readme")
            if outputs["head"][i] != outputs["head"][index[twin]]:
                mismatched += 1
                print(f"MISMATCH  {name}: the head prints other output than for {twin}")
    print(f"{mismatched} object-form runs at {head_name} differ from their pair-file runs")
    return 1 if differing or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
