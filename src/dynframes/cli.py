"""Command line front end.

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
import io
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

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
from .discretize import (
    discretization_to_dict,
    find_discretization,
    verify_discrete_implies_semicont,
    window_scan,
    window_scan_to_csv_rows,
    window_scan_to_dict,
)
from .gram import TimeGrid, quadrature_gram, semicont_gram
from .reconstruct import reconstruct, sample
from .spectral import load_operator, load_vectors

__all__ = ["RunConfig", "run", "main"]


class CLIError(Exception):
    """Input problems reported with file context; always exit code 1."""


@dataclass
class RunConfig:
    """Parsed invocation; ``options`` holds per-command extras."""

    command: str
    operator_path: Optional[str] = None
    vectors_path: Optional[str] = None
    L: Optional[float] = None
    truncation: int = 64
    output_format: str = "table"
    seed: int = 0
    out: Optional[str] = None
    options: dict = field(default_factory=dict)


def _load_inputs(config: RunConfig):
    def read(path, loader, kind):
        if path is None:
            raise CLIError(f"the {config.command} command needs --{kind}")
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

    A = read(config.operator_path, load_operator, "op")
    G = read(config.vectors_path, load_vectors, "vectors")
    if A.dimension != G.dimension:
        raise CLIError(
            f"dimension mismatch: {config.operator_path} has d={A.dimension}, "
            f"{config.vectors_path} has d={G.dimension}"
        )
    return A, G


def _emit(config: RunConfig, table_lines, json_obj, csv_rows) -> None:
    fmt = config.output_format
    if fmt == "json":
        text = json.dumps(json_obj, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = "\n".join(table_lines) + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_payload(rep):
    table = [
        f"lower:            {rep.lower:.12g}",
        f"upper:            {rep.upper:.12g}",
        f"classification:   {rep.classification}",
        f"dimension:        {rep.dimension}",
        f"condition_number: {rep.condition_number:.12g}",
        f"method:           {rep.method}",
    ]
    csv_rows = [
        ["lower", "upper", "classification", "dimension", "condition_number"],
        [rep.lower, rep.upper, rep.classification, rep.dimension, rep.condition_number],
    ]
    return table, rep.to_dict(), csv_rows


def _cmd_analyze(config: RunConfig) -> int:
    A, G = _load_inputs(config)
    if config.L is None:
        raise CLIError("analyze needs --L")
    if config.options.get("method") == "quadrature":
        gram = quadrature_gram(A, G, config.L, panels=config.options.get("panels", 256))
    else:
        gram = semicont_gram(A, G, config.L)
    rep = frame_bounds(gram)
    _emit(config, *_report_payload(rep))
    return 0 if rep.classification == FRAME else 2


def _cmd_complete(config: RunConfig) -> int:
    A, G = _load_inputs(config)
    cert = completeness_check(A, G)
    table = [f"complete: {cert.complete}"]
    csv_rows = [["eigenvalue_re", "eigenvalue_im", "indices", "required", "achieved"]]
    for grp in cert.groups:
        table.append(
            f"  eigenvalue {grp.value:.6g}: rank {grp.achieved}/{grp.required} "
            f"on indices {list(grp.indices)}"
        )
        csv_rows.append(
            [grp.value.real, grp.value.imag, " ".join(map(str, grp.indices)),
             grp.required, grp.achieved]
        )
    _emit(config, table, cert.to_dict(), csv_rows)
    return 0 if cert.complete else 2


def _cmd_bessel(config: RunConfig) -> int:
    A, G = _load_inputs(config)
    L = 1.0 if config.L is None else config.L
    is_bessel, energy = bessel_check_fd(A, G)
    constant = bessel_upper_constant(A, L)
    table = [
        f"bessel: {is_bessel} (finite families always are)",
        f"generator energy on range(A): {energy:.12g}",
        f"upper constant over [0, {L:g}]: {constant:.12g}",
        f"upper bound C <= {energy * constant:.12g}",
    ]
    obj = {
        "bessel": is_bessel,
        "range_energy": energy,
        "upper_constant": constant,
        "upper_bound": energy * constant,
        "L": L,
    }
    csv_rows = [
        ["bessel", "range_energy", "upper_constant", "upper_bound", "L"],
        [is_bessel, energy, constant, energy * constant, L],
    ]
    _emit(config, table, obj, csv_rows)
    return 0


def _cmd_carleson(config: RunConfig) -> int:
    A, G = _load_inputs(config)
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
    csv_rows = [["index", "separation_product"]]
    for i, p in enumerate(report.per_index_products):
        csv_rows.append([i, p])
    _emit(config, table, report.to_dict(), csv_rows)
    return 0 if report.verdict != "not_frameable" else 2


def _cmd_discretize(config: RunConfig) -> int:
    A, G = _load_inputs(config)
    if config.L is None:
        raise CLIError("discretize needs --L")
    result = find_discretization(
        A,
        G,
        config.L,
        target_ratio=config.options.get("target_ratio", 0.5),
        max_points=config.options.get("max_points", 1 << 20),
    )
    rep = result.report
    table = [
        f"accepted grid: n={len(result.grid)} uniform points on [0, {config.L:g})",
        f"delta_used: {result.delta_used:.12g}",
        f"iterations: {result.iterations}",
        f"unweighted bounds: [{rep.lower:.12g}, {rep.upper:.12g}] ({rep.classification})",
        f"condition_number: {rep.condition_number:.12g}",
    ]
    csv_rows = [
        ["n", "lower", "upper", "condition_number"],
        [len(result.grid), rep.lower, rep.upper, rep.condition_number],
    ]
    _emit(config, table, discretization_to_dict(result), csv_rows)
    return 0


def _cmd_verify(config: RunConfig) -> int:
    A, G = _load_inputs(config)
    if config.L is None:
        raise CLIError("verify needs --L")
    raw = config.options.get("times")
    if not raw:
        raise CLIError("verify needs --times as a comma-separated list")
    times = np.array([float(x) for x in raw.split(",")])
    grid = TimeGrid(times, config.L)
    report, analytic = verify_discrete_implies_semicont(A, G, grid, config.L)
    table = [
        f"window bounds: [{report.lower:.12g}, {report.upper:.12g}] "
        f"({report.classification})",
        f"analytic transfer bound: {analytic:.12g}",
    ]
    obj = {"report": report.to_dict(), "analytic_lower": analytic}
    csv_rows = [
        ["lower", "upper", "analytic_lower"],
        [report.lower, report.upper, analytic],
    ]
    _emit(config, table, obj, csv_rows)
    return 0


def _cmd_lscan(config: RunConfig) -> int:
    A, G = _load_inputs(config)
    raw = config.options.get("lengths")
    if not raw:
        raise CLIError("lscan needs --Ls as a comma-separated list")
    lengths = [float(x) for x in raw.split(",")]
    result = window_scan(A, G, lengths)
    table = [f"invertible self-adjoint regime: {result.invertible_self_adjoint}"]
    for L, lo, up, cond, label in zip(
        result.lengths,
        result.lower_bounds,
        result.upper_bounds,
        result.condition_numbers,
        result.classifications,
    ):
        table.append(
            f"L={L:<8g} lower={lo:<14.8g} upper={up:<14.8g} "
            f"cond={cond:<12.6g} {label}"
        )
    table.append("errors: none")
    _emit(config, table, window_scan_to_dict(result), window_scan_to_csv_rows(result))
    return 0


def _cmd_reconstruct(config: RunConfig) -> int:
    A, G = _load_inputs(config)
    if config.L is None:
        raise CLIError("reconstruct needs --L")
    n_times = config.options.get("times", 32)
    noise = config.options.get("noise", 0.0)
    mode = config.options.get("mode", "unweighted")
    rng = np.random.default_rng(config.seed)
    truth = rng.normal(size=A.dimension) + 1j * rng.normal(size=A.dimension)
    grid = TimeGrid.uniform(n_times, config.L)
    records = sample(A, G, truth, grid)
    if noise > 0.0:
        jitter = rng.normal(size=len(records)) + 1j * rng.normal(size=len(records))
        records = [
            type(rec)(rec.generator_index, rec.time, rec.value + noise * z)
            for rec, z in zip(records, jitter)
        ]
    result = reconstruct(A, G, records, mode=mode, L=config.L, truth=truth)
    table = [
        f"samples: {len(records)} ({len(G)} generators x {n_times} times)",
        f"noise sigma: {noise:g}",
        f"solver iterations: {result.solver_iterations}",
        f"relative error against the true state: {result.residual:.6e}",
    ]
    obj = {
        "samples": len(records),
        "noise": noise,
        "solver_iterations": result.solver_iterations,
        "relative_error": result.residual,
    }
    csv_rows = [
        ["samples", "noise", "solver_iterations", "relative_error"],
        [len(records), noise, result.solver_iterations, result.residual],
    ]
    _emit(config, table, obj, csv_rows)
    return 0


def _cmd_repro(config: RunConfig) -> int:
    name = config.options.get("name")
    if config.options.get("list") or (name is None and not config.options.get("all")):
        table = []
        for entry in repro_catalog():
            table.append(f"{entry.name:<16} {entry.summary}")
            table.append(f"{'':<16} claim: {entry.claim}")
        obj = {
            "entries": [
                {"name": e.name, "summary": e.summary, "claim": e.claim}
                for e in repro_catalog()
            ]
        }
        csv_rows = [["name", "summary", "claim"]] + [
            [e.name, e.summary, e.claim] for e in repro_catalog()
        ]
        _emit(config, table, obj, csv_rows)
        return 0

    names = [e.name for e in repro_catalog()] if config.options.get("all") else [name]
    all_ok = True
    table = []
    results = []
    for nm in names:
        try:
            ok, lines = run_entry(nm, d=config.truncation, L=config.L)
        except KeyError as exc:
            raise CLIError(str(exc.args[0])) from None
        all_ok = all_ok and ok
        results.append({"name": nm, "passed": ok, "lines": lines})
        table.append(f"[{'PASS' if ok else 'FAIL'}] {nm}")
        table.extend(f"    {line}" for line in lines)
    obj = {"entries": results, "all_passed": all_ok}
    csv_rows = [["name", "passed"]] + [[r["name"], r["passed"]] for r in results]
    _emit(config, table, obj, csv_rows)
    return 0 if all_ok else 1


_COMMANDS = {
    "analyze": _cmd_analyze,
    "complete": _cmd_complete,
    "bessel": _cmd_bessel,
    "carleson": _cmd_carleson,
    "discretize": _cmd_discretize,
    "verify": _cmd_verify,
    "lscan": _cmd_lscan,
    "reconstruct": _cmd_reconstruct,
    "repro": _cmd_repro,
}


def run(config: RunConfig) -> int:
    """Execute one parsed invocation; returns the process exit code."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        raise CLIError(f"unknown command {config.command!r}")
    return handler(config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynframes",
        description="Frame analysis for continuous-power orbits of normal operators.",
        epilog="DYNSAMP_TOL overrides the grouping and rank tolerances globally.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, vectors=True, needs_L=False):
        sp.add_argument("--op", dest="operator_path", required=True,
                        help="operator JSON file")
        if vectors:
            sp.add_argument("--vectors", dest="vectors_path", required=True,
                            help="generator JSON file")
        sp.add_argument("--L", type=float, default=None, required=needs_L,
                        help="window length")
        sp.add_argument("--format", dest="output_format", default="table",
                        choices=("table", "json", "csv"))
        sp.add_argument("--out", default=None, help="write output to this file")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("analyze", help="frame bounds of the windowed system")
    common(sp, needs_L=True)
    sp.add_argument("--method", choices=("closed_form", "quadrature"),
                    default="closed_form")
    sp.add_argument("--panels", type=int, default=256)

    sp = sub.add_parser("complete", help="eigenspace-by-eigenspace spanning test")
    common(sp)

    sp = sub.add_parser("bessel", help="upper-bound diagnostics")
    common(sp)

    sp = sub.add_parser("carleson", help="one-generator frameability diagnostics")
    common(sp)

    sp = sub.add_parser("discretize", help="search a uniform grid that keeps the lower bound")
    common(sp, needs_L=True)
    sp.add_argument("--target-ratio", type=float, default=0.5)
    sp.add_argument("--max-points", type=int, default=1 << 20)

    sp = sub.add_parser("verify", help="certify the window from a discrete frame")
    common(sp, needs_L=True)
    sp.add_argument("--times", required=True,
                    help="comma-separated sample times starting at 0")

    sp = sub.add_parser("lscan", help="frame bounds across window lengths")
    common(sp)
    sp.add_argument("--Ls", dest="lengths", required=True,
                    help="comma-separated window lengths, increasing")

    sp = sub.add_parser("reconstruct", help="round-trip demo on random states")
    common(sp, needs_L=True)
    sp.add_argument("--times", type=int, default=32, help="uniform sample count")
    sp.add_argument("--noise", type=float, default=0.0)
    sp.add_argument("--mode", choices=("unweighted", "riemann"),
                    default="unweighted")

    sp = sub.add_parser("repro", help="run built-in reproductions")
    sp.add_argument("name", nargs="?", default=None)
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--list", action="store_true")
    sp.add_argument("--d", dest="truncation", type=int, default=64)
    sp.add_argument("--L", type=float, default=None)
    sp.add_argument("--format", dest="output_format", default="table",
                    choices=("table", "json", "csv"))
    sp.add_argument("--out", default=None)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    base = {
        "command": args.command,
        "operator_path": getattr(args, "operator_path", None),
        "vectors_path": getattr(args, "vectors_path", None),
        "L": getattr(args, "L", None),
        "truncation": getattr(args, "truncation", 64),
        "output_format": getattr(args, "output_format", "table"),
        "seed": getattr(args, "seed", 0),
        "out": getattr(args, "out", None),
    }
    options = {}
    for key in ("method", "panels", "target_ratio", "max_points", "times",
                "noise", "mode", "name", "all", "list", "lengths"):
        if hasattr(args, key):
            options[key] = getattr(args, key)
    return RunConfig(options=options, **base)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = _config_from_args(args)
    try:
        return run(config)
    except (NotAFrame, DiscreteNotFrame) as exc:
        print(f"negative: {exc}", file=sys.stderr)
        return 2
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DynFramesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
