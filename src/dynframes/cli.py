"""Command line front end.

Each subcommand's parser names its handler (``set_defaults(handler=...)``),
and the handler reads the parsed argparse namespace directly. A file
command's inputs are built in ``common()``, which registers its handler as
``handler(args, *_load_inputs(args))``: DYNSAMP_TOL and both files are read
before the handler checks its own arguments. Only ``reconstruct`` draws
random numbers, so only it takes ``--seed``.

This module is the package's one report layer: the library returns results,
and each handler builds its JSON payload and table lines from them. One
renderer, ``_emit``, writes the payload as JSON, the table as lines, or named
columns as CSV, whose one default row reads those fields of the payload.

Exit codes: 0 when the requested analysis computed a positive answer, 2 when
it computed a negative classification (not a frame, incomplete, not
frameable), 1 for genuine errors (unreadable input, domain violations,
searches that run out of budget). The environment variable DYNSAMP_TOL
overrides both the eigenvalue grouping tolerance and the relative rank
cutoff.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import asdict

import numpy as np

from .errors import DiscreteNotFrame, DynFramesError, NotAFrame
from .analysis import (
    FRAME,
    bessel_check_fd,
    bessel_upper_constant,
    carleson_check,
    completeness_check,
    frame_bounds,
)
from .catalog import repro_catalog, run_entry
from .discretize import find_discretization, verify_discrete_implies_semicont, window_scan
from .gram import TimeGrid, quadrature_gram, semicont_gram
from .reconstruct import Samples, reconstruct, sample
from .spectral import SpectralOperator, VectorSet, default_tolerance, load_operator, load_vectors

__all__ = ["main"]


class CLIError(Exception):
    """Input problems reported with file context; always exit code 1."""


def _load_inputs(args: argparse.Namespace):
    def read(path, loader, kind):
        try:
            return loader(path)
        except json.JSONDecodeError as exc:
            raise CLIError(
                f"parse error in {path} line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None
        except OSError as exc:
            raise CLIError(f"cannot read {path}: {exc.strerror}") from None
        except ValueError as exc:
            raise CLIError(f"invalid {kind} file {path}: {exc}") from None

    # read DYNSAMP_TOL before the files, so that a bad value is not blamed on them;
    # the grouping and rank tolerances read it alike, so one read validates both
    try:
        default_tolerance()
    except ValueError as exc:
        raise CLIError(f"invalid DYNSAMP_TOL: {exc}") from None
    A = read(args.operator_path, load_operator, "op")
    G = read(args.vectors_path, load_vectors, "vectors")
    if A.dimension != G.dimension:
        raise CLIError(
            f"dimension mismatch: {args.operator_path} has d={A.dimension}, "
            f"{args.vectors_path} has d={G.dimension}"
        )
    return A, G


def _emit(args: argparse.Namespace, obj, table, columns, rows=None) -> None:
    """Write obj as JSON, table as lines, or columns above rows (default: obj's) as CSV."""
    fmt = args.output_format
    if fmt == "json":
        text = json.dumps(obj, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        writer.writerows([[obj[c] for c in columns]] if rows is None else rows)
        text = buf.getvalue()
    else:
        text = "\n".join(table) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args: argparse.Namespace, A: SpectralOperator, G: VectorSet) -> int:
    if args.method == "quadrature":
        gram = quadrature_gram(A, G, args.L, panels=args.panels)
    else:
        gram = semicont_gram(A, G, args.L)
    rep = frame_bounds(gram)
    table = [
        f"lower:            {rep.lower:.12g}",
        f"upper:            {rep.upper:.12g}",
        f"classification:   {rep.classification}",
        f"dimension:        {rep.dimension}",
        f"condition_number: {rep.condition_number:.12g}",
        f"method:           {rep.method}",
    ]
    columns = ["lower", "upper", "classification", "dimension", "condition_number"]
    _emit(args, rep.to_dict(), table, columns)
    return 0 if rep.classification == FRAME else 2


def _cmd_complete(args: argparse.Namespace, A: SpectralOperator, G: VectorSet) -> int:
    cert = completeness_check(A, G)
    table = [f"complete: {cert.complete}"] + [
        f"  eigenvalue {g.value:.6g}: rank {g.achieved}/{g.required} on indices {list(g.indices)}"
        for g in cert.groups
    ]
    columns = ["eigenvalue_re", "eigenvalue_im", "indices", "required", "achieved"]
    rows = [[g.value.real, g.value.imag, " ".join(map(str, g.indices)), g.required, g.achieved]
            for g in cert.groups]
    _emit(args, cert.to_dict(), table, columns, rows)
    return 0 if cert.complete else 2


def _cmd_bessel(args: argparse.Namespace, A: SpectralOperator, G: VectorSet) -> int:
    energy = bessel_check_fd(A, G)
    constant = bessel_upper_constant(A, args.L)
    obj = {"bessel": True, "range_energy": energy, "upper_constant": constant,
           "upper_bound": energy * constant, "L": args.L}
    table = [
        "bessel: True (finite families always are)",
        f"generator energy on range(A): {energy:.12g}",
        f"upper constant over [0, {args.L:g}]: {constant:.12g}",
        f"upper bound C <= {obj['upper_bound']:.12g}",
    ]
    _emit(args, obj, table, list(obj))
    return 0


def _cmd_carleson(args: argparse.Namespace, A: SpectralOperator, G: VectorSet) -> int:
    ghat = A.to_eigenbasis(G.vectors[0])
    report = carleson_check(A.eigenvalues, P_norms=np.abs(ghat))
    table = [
        f"verdict: {report.verdict}",
        f"inf separation product: {report.inf_product:.12g}",
        f"scaled projection bounds: c_v={report.c_v:.6g}, C_v={report.C_v:.6g}",
        f"tail moduli nondecreasing: {report.tail_increasing}",
        "conditions: "
        + ", ".join(f"({k}) {v}" for k, v in report.conditions.items()),
    ]
    _emit(args, asdict(report), table, ["index", "separation_product"],
          enumerate(report.per_index_products))
    return 0 if report.verdict != "not_frameable" else 2


def _cmd_discretize(args: argparse.Namespace, A: SpectralOperator, G: VectorSet) -> int:
    if args.max_points < 2:
        raise CLIError(f"--max-points must be at least 2, got {args.max_points}")
    result = find_discretization(A, G, args.L, target_ratio=args.target_ratio,
                                 max_points=args.max_points)
    rep = result.report
    n = len(result.grid)
    obj = {"n": n, "delta_used": result.delta_used, "max_gap": result.grid.max_gap,
           "iterations": result.iterations, "report": rep.to_dict()}
    table = [
        f"accepted grid: n={n} uniform points on [0, {args.L:g})",
        f"delta_used: {result.delta_used:.12g}",
        f"iterations: {result.iterations}",
        f"unweighted bounds: [{rep.lower:.12g}, {rep.upper:.12g}] ({rep.classification})",
        f"condition_number: {rep.condition_number:.12g}",
    ]
    _emit(args, obj, table, ["n", "lower", "upper", "condition_number"],
          [[n, rep.lower, rep.upper, rep.condition_number]])
    return 0


def _cmd_verify(args: argparse.Namespace, A: SpectralOperator, G: VectorSet) -> int:
    if not args.times:
        raise CLIError("verify needs --times as a comma-separated list")
    times = np.array([float(x) for x in args.times.split(",")])
    grid = TimeGrid(times, args.L)
    report, analytic = verify_discrete_implies_semicont(A, G, grid, args.L)
    table = [
        f"window bounds: [{report.lower:.12g}, {report.upper:.12g}] ({report.classification})",
        f"analytic transfer bound: {analytic:.12g}",
    ]
    obj = {"report": report.to_dict(), "analytic_lower": analytic}
    _emit(args, obj, table, ["lower", "upper", "analytic_lower"],
          [[report.lower, report.upper, analytic]])
    return 0


def _cmd_lscan(args: argparse.Namespace, A: SpectralOperator, G: VectorSet) -> int:
    if not args.lengths:
        raise CLIError("lscan needs --Ls as a comma-separated list")
    result = window_scan(A, G, [float(x) for x in args.lengths.split(",")])
    obj = {
        "L": list(result.lengths),
        "lower": list(result.lower_bounds),
        "upper": list(result.upper_bounds),
        "condition_number": list(result.condition_numbers),
        "classification": list(result.classifications),
        "invertible_self_adjoint": result.invertible_self_adjoint,
    }
    columns = ["L", "lower", "upper", "condition_number"]
    rows = list(zip(*(obj[c] for c in columns)))
    table = [f"invertible self-adjoint regime: {result.invertible_self_adjoint}"] + [
        f"L={L:<8g} lower={lo:<14.8g} upper={up:<14.8g} cond={cond:<12.6g} {label}"
        for (L, lo, up, cond), label in zip(rows, result.classifications)
    ] + ["errors: none"]
    _emit(args, obj, table, columns, rows)
    return 0


def _cmd_reconstruct(args: argparse.Namespace, A: SpectralOperator, G: VectorSet) -> int:
    n_times, noise = args.times, args.noise
    if not 0.0 <= noise < np.inf:
        raise CLIError(f"--noise must be a finite nonnegative number, got {noise:g}")
    rng = np.random.default_rng(args.seed)
    truth = rng.normal(size=A.dimension) + 1j * rng.normal(size=A.dimension)
    grid = TimeGrid.uniform(n_times, args.L)
    samples = sample(A, G, truth, grid)
    if noise > 0.0:
        shape = samples.values.shape
        jitter = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        samples = Samples(samples.values + noise * jitter, samples.times)
    result = reconstruct(A, G, samples, mode=args.mode, L=args.L, truth=truth)
    obj = {"samples": len(samples), "noise": noise,
           "solver_iterations": result.solver_iterations, "relative_error": result.residual}
    table = [
        f"samples: {len(samples)} ({len(G)} generators x {n_times} times)",
        f"noise sigma: {noise:g}",
        f"solver iterations: {result.solver_iterations}",
        f"relative error against the true state: {result.residual:.6e}",
    ]
    _emit(args, obj, table, list(obj))
    return 0


def _cmd_repro(args: argparse.Namespace) -> int:
    if args.list or (args.name is None and not args.all):
        columns = ["name", "summary", "claim"]
        entries = [dict(zip(columns, (e.name, e.summary, e.claim))) for e in repro_catalog()]
        table = []
        for e in entries:
            table.append(f"{e['name']:<16} {e['summary']}")
            table.append(f"{'':<16} claim: {e['claim']}")
        _emit(args, {"entries": entries}, table, columns, [list(e.values()) for e in entries])
        return 0

    names = [e.name for e in repro_catalog()] if args.all else [args.name]
    table = []
    results = []
    for nm in names:
        try:
            ok, lines = run_entry(nm, d=args.truncation, L=args.L)
        except KeyError as exc:
            raise CLIError(str(exc.args[0])) from None
        results.append({"name": nm, "passed": ok, "lines": lines})
        table.append(f"[{'PASS' if ok else 'FAIL'}] {nm}")
        table.extend(f"    {line}" for line in lines)
    all_ok = all(r["passed"] for r in results)
    rows = [[r["name"], r["passed"]] for r in results]
    _emit(args, {"entries": results, "all_passed": all_ok}, table, ["name", "passed"], rows)
    return 0 if all_ok else 1


# built once per process: parsing reads the parser and changes nothing in it,
# and every default is immutable
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynframes",
        description="Frame analysis for continuous-power orbits of normal operators.",
        epilog="DYNSAMP_TOL overrides the grouping and rank tolerances globally.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, handler):
        sp.set_defaults(handler=lambda args: handler(args, *_load_inputs(args)))
        sp.add_argument("--op", dest="operator_path", required=True,
                        help="operator JSON file")
        sp.add_argument("--vectors", dest="vectors_path", required=True,
                        help="generator JSON file")
        sp.add_argument("--format", dest="output_format", default="table",
                        choices=("table", "json", "csv"))
        sp.add_argument("--out", default=None, help="write output to this file")

    sp = sub.add_parser("analyze", help="frame bounds of the windowed system")
    common(sp, _cmd_analyze)
    sp.add_argument("--L", type=float, required=True, help="window length")
    sp.add_argument("--method", choices=("closed_form", "quadrature"),
                    default="closed_form")
    sp.add_argument("--panels", type=int, default=256)

    sp = sub.add_parser("complete", help="eigenspace-by-eigenspace spanning test")
    common(sp, _cmd_complete)

    sp = sub.add_parser("bessel", help="upper-bound diagnostics")
    common(sp, _cmd_bessel)
    sp.add_argument("--L", type=float, default=1.0, help="window length")

    sp = sub.add_parser("carleson", help="one-generator frameability diagnostics")
    common(sp, _cmd_carleson)

    sp = sub.add_parser("discretize", help="search a uniform grid that keeps the lower bound")
    common(sp, _cmd_discretize)
    sp.add_argument("--L", type=float, required=True, help="window length")
    sp.add_argument("--target-ratio", type=float, default=0.5)
    sp.add_argument("--max-points", type=int, default=1 << 20)

    sp = sub.add_parser("verify", help="certify the window from a discrete frame")
    common(sp, _cmd_verify)
    sp.add_argument("--L", type=float, required=True, help="window length")
    sp.add_argument("--times", required=True,
                    help="comma-separated sample times starting at 0")

    # no abbreviations here, so that a stray --L is not read as --Ls
    sp = sub.add_parser("lscan", help="frame bounds across window lengths",
                        allow_abbrev=False)
    common(sp, _cmd_lscan)
    sp.add_argument("--Ls", dest="lengths", required=True,
                    help="comma-separated window lengths, increasing")

    sp = sub.add_parser("reconstruct", help="round-trip demo on random states")
    common(sp, _cmd_reconstruct)
    sp.add_argument("--L", type=float, required=True, help="window length")
    sp.add_argument("--times", type=int, default=32, help="uniform sample count")
    sp.add_argument("--noise", type=float, default=0.0)
    sp.add_argument("--mode", choices=("unweighted", "riemann"),
                    default="unweighted")
    sp.add_argument("--seed", type=int, default=0, help="seed of the random state and noise")

    sp = sub.add_parser("repro", help="run built-in reproductions")
    sp.set_defaults(handler=_cmd_repro)
    sp.add_argument("name", nargs="?", default=None)
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--list", action="store_true")
    sp.add_argument("--d", dest="truncation", type=int, default=64)
    sp.add_argument("--L", type=float, default=None)
    sp.add_argument("--format", dest="output_format", default="table",
                    choices=("table", "json", "csv"))
    sp.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (NotAFrame, DiscreteNotFrame) as exc:
        print(f"negative: {exc}", file=sys.stderr)
        return 2
    except (CLIError, DynFramesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
