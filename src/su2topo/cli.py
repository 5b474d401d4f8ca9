"""Batch command-line front end.

Subcommands: ``generate`` (analytic configurations to FLD2 files),
``decompose`` (gauge potential split), ``cs`` (knot charges on rank-3
charts), ``chern`` (densities and the second Chern number), ``zeros``
(zero ledger), and ``verify`` (full cross-check pipeline on a named
generator).  Every run that computes two routes to the same invariant
emits an explicit consistency line; the exit code is nonzero iff any
check fails.

Exit codes: 0 success, 1 failed consistency check, 2 usage error,
3 input file or format error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import chern_simons as cs
from . import fldio, generators, phi_mapping, su2_algebra
from .chern_density import chern_density, second_chern_number
from .decomposition import decompose, parallel_gauge_potential
from .errors import FieldError, FieldFormatError, LatticeError, Su2TopoError
from .fields import (GaugeField, PhiField, SpinorField, normalize,
                     phi_to_spinor, spinor_to_phi, unit_vector)
from .report import ChargeReport, __version__


class UsageError(Su2TopoError):
    """Arguments that parse but do not fit together (exit code 2)."""


@contextmanager
def _usage_errors():
    """Report the library's rejection of command-line values as a usage
    error: no input file is involved in building a generated field."""
    try:
        yield
    except (FieldError, LatticeError) as exc:
        raise UsageError(str(exc)) from exc


def _color_enabled(args) -> bool:
    if getattr(args, "no_color", False) or os.environ.get("SU2TOPO_NO_COLOR"):
        return False
    return sys.stdout.isatty()


def _status(text: str, passed: bool, color: bool) -> str:
    if not color:
        return text
    code = "32" if passed else "31"
    return f"\x1b[{code}m{text}\x1b[0m"


def _thread_count(args) -> int:
    if getattr(args, "threads", None):
        return max(1, int(args.threads))
    env = os.environ.get("SU2TOPO_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _parse_grid(text: str) -> tuple:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}")
    if len(dims) not in (3, 4):
        raise argparse.ArgumentTypeError("grid needs 3 or 4 axis sizes")
    return dims


def _parse_box(text: str):
    spans = []
    for part in text.split(","):
        try:
            lo, hi = part.split(":")
            spans.append((float(lo), float(hi)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad box spec {part!r}")
    return spans


def _parse_shift(text: str) -> list:
    try:
        shift = [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shift spec {text!r}")
    if len(shift) != 4:
        raise argparse.ArgumentTypeError("shift needs 4 components")
    return shift


def _box_grid_from_args(args, rank: int):
    spans = args.box if args.box is not None else [(-2.0, 2.0)]
    if len(spans) == 1:
        spans = spans * rank
    if len(spans) != rank:
        raise UsageError(f"--box gives {len(spans)} spans; the grid has rank {rank}")
    shape = args.grid if args.grid is not None else (16,) * rank
    if len(shape) != rank:
        raise UsageError(f"--grid gives {len(shape)} axis sizes; this run needs {rank}")
    return generators.box_grid(shape, [s[0] for s in spans], [s[1] for s in spans])


def _emit_report(report: ChargeReport, args, color: bool) -> None:
    text = report.render(include_timings=getattr(args, "timings", False))
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text)
    if getattr(args, "csv", None):
        _write_csv(report, args.csv)
    sys.stdout.write(text if not color else _colorize_report(text))


def _write_csv(report: ChargeReport, path: str) -> None:
    """Flat plot-ready export: one row per charge value or per zero."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        if report.zeros:
            writer.writerow(["x0", "x1", "x2", "x3", "degree", "beta", "eta",
                             "jacobian", "degenerate"])
            for zero in report.zeros:
                writer.writerow(list(zero["position"])
                                + [zero["degree"], zero["beta"], zero["eta"],
                                   repr(zero["jacobian"]), int(zero["degenerate"])])
            return
        writer.writerow(["quantity", "value", "nearest", "deviation"])
        for section in report.results.values():
            if not isinstance(section, dict):
                continue
            for name, entry in section.items():
                if isinstance(entry, dict) and "value" in entry:
                    writer.writerow([name, repr(entry["value"]),
                                     entry.get("nearest", ""),
                                     repr(entry.get("deviation", ""))])


def _colorize_report(text: str) -> str:
    out = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.endswith("PASS"):
            out.append(line.replace("PASS", _status("PASS", True, True)))
        elif stripped.endswith("FAIL"):
            out.append(line.replace("FAIL", _status("FAIL", False, True)))
        else:
            out.append(line)
    return "\n".join(out) + "\n"


def _grid_summary(grid) -> dict:
    return {
        "shape": list(grid.shape),
        "origin": [round(v, 12) for v in grid.origin],
        "spacing": [repr(v) for v in grid.spacing],
        "periodic": [int(p) for p in grid.periodic],
        "cell_centered": grid.cell_centered,
        "orientation": grid.orientation,
    }


def _config_echo(args, grid) -> dict:
    from .conventions import ORIENTATION_SIGN
    return {
        "grid": _grid_summary(grid),
        "tolerance": args.tol,
        "orientation_calibration": ORIENTATION_SIGN,
        "seed": getattr(args, "seed", None) or 0,
        "threads": _thread_count(args),
    }


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _load_spinor(path: str) -> SpinorField:
    field = fldio.read_field(path)
    if isinstance(field, SpinorField):
        return field
    if isinstance(field, PhiField):
        return phi_to_spinor(field)
    raise Su2TopoError(f"{path}: expected a spinor or phi field")


def cmd_generate(args) -> int:
    kind = args.kind
    with _usage_errors():
        if kind in ("identity", "qpower") and args.chart == "s3":
            resolution = args.grid if args.grid is not None else (32, 32, 32)
            if kind == "identity":
                field = spinor_to_phi(generators.identity_map_s3(resolution))
            else:
                grid = generators.s3_chart_grid(resolution)
                field = generators.quaternion_power_field(args.power, grid)
        else:
            grid = _box_grid_from_args(args, 4)
            if kind == "qpower":
                field = generators.quaternion_power_field(args.power, grid)
            elif kind == "qpoly":
                roots = _parse_roots(args.roots)
                field = generators.quaternion_polynomial_field(roots, grid)
            elif kind == "linear":
                field = generators.linear_phi_field(np.eye(4), args.shift, grid)
            elif kind in ("random-spinor", "random-gauge", "random-su2"):
                field = generators.random_config(args.seed or 0,
                                                 kind.split("-")[1], grid)
            else:
                raise UsageError(f"kind {kind!r} needs --chart s3 or a box domain")
    fldio.write_field(field, args.out)
    print(f"wrote {args.out}")
    return 0


def _parse_roots(text: str) -> np.ndarray:
    if not text:
        raise UsageError("qpoly needs --roots 'w,x,y,z;w,x,y,z;...'")
    roots = []
    for chunk in text.split(";"):
        try:
            vals = [float(v) for v in chunk.split(",")]
        except ValueError:
            raise UsageError(f"root {chunk!r} is not a list of numbers")
        if len(vals) != 4:
            raise UsageError(f"root {chunk!r} does not have 4 components")
        roots.append(vals)
    return np.asarray(roots)


def cmd_decompose(args) -> int:
    psi = _load_spinor(args.psi)
    if args.gauge:
        gauge = fldio.read_field(args.gauge)
        if not isinstance(gauge, GaugeField):
            raise Su2TopoError(f"{args.gauge}: expected a gauge field")
    else:
        gauge = parallel_gauge_potential(normalize(psi))
    start = time.perf_counter()
    result = decompose(psi, gauge)
    report = ChargeReport("decompose", config=_config_echo(args, psi.grid))
    report.results["decomposition"] = {
        "regime": result.regime,
        "reconstruction_residual": result.residual,
        "component_residual": result.component_residual,
    }
    tol = args.tol if result.regime == "jet" else 50.0 * max(psi.grid.spacing) ** 2
    report.add_check("reconstruction", result.residual < tol,
                     f"|a+b-A| = {result.residual:.3e} < {tol:.3e}")
    report.timings["decompose_s"] = time.perf_counter() - start
    _emit_report(report, args, _color_enabled(args))
    return 0 if report.all_passed else 1


def cmd_cs(args) -> int:
    report, _, _ = _run_cs(args)
    _emit_report(report, args, _color_enabled(args))
    return 0 if report.all_passed else 1


def _run_cs(args, psi: SpinorField | None = None):
    """Three routes to Q; returns the report, the normalized spinor and the
    parallel gauge potential built for the trace route."""
    su2_algebra.self_check()
    if psi is None:
        psi = _load_spinor(args.infile)
    if not psi.normalized:
        psi = normalize(psi)
    report = ChargeReport("cs", config=_config_echo(args, psi.grid))
    tol = args.tol
    timings = report.timings
    results = {}

    start = time.perf_counter()
    q_spinor = cs.knot_charge(psi, method="spinor")
    timings["spinor_s"] = time.perf_counter() - start
    results["Q_spinor"] = {"value": q_spinor, "nearest": int(round(q_spinor)),
                           "deviation": abs(q_spinor - round(q_spinor))}

    start = time.perf_counter()
    gauge = parallel_gauge_potential(psi)
    q_trace = cs.knot_charge(psi, method="trace", gauge=gauge)
    timings["trace_s"] = time.perf_counter() - start
    results["Q_trace"] = {"value": q_trace, "nearest": int(round(q_trace)),
                          "deviation": abs(q_trace - round(q_trace))}

    start = time.perf_counter()
    data, q_fn = cs.fn_data(psi)
    timings["abelian_s"] = time.perf_counter() - start
    results["Q_fn"] = {"value": q_fn, "nearest": int(round(q_fn)),
                       "deviation": abs(q_fn - round(q_fn)),
                       "exactness_residual": data.exactness_residual}

    report.results["charges"] = results
    report.add_check("quantization", abs(q_spinor - round(q_spinor)) < tol,
                     f"|Q - nearest| = {abs(q_spinor - round(q_spinor)):.3e} < {tol}")
    report.add_check("trace-vs-spinor", abs(q_trace - q_spinor) < tol,
                     f"|Q_trace - Q_spinor| = {abs(q_trace - q_spinor):.3e} < {tol}")
    report.add_check("abelian-vs-spinor", abs(q_fn - q_spinor) < tol,
                     f"|Q_fn - Q_spinor| = {abs(q_fn - q_spinor):.3e} < {tol}")
    return report, psi, gauge


def cmd_chern(args) -> int:
    field = fldio.read_field(args.infile)
    report = ChargeReport("chern", config=_config_echo(args, field.grid))
    if isinstance(field, PhiField):
        psi = phi_to_spinor(field)
        phi = field
    elif isinstance(field, SpinorField):
        psi = field
        phi = spinor_to_phi(field)
    else:
        raise Su2TopoError(f"{args.infile}: expected a spinor or phi field")

    methods = ["spinor", "unit", "trace"] if args.method == "all" else [args.method]
    results = {}
    for method in methods:
        start = time.perf_counter()
        if method == "spinor":
            rho = chern_density(psi, "spinor")
        elif method == "unit":
            rho = chern_density(unit_vector(phi), "unit")
        else:
            gauge = parallel_gauge_potential(normalize(psi))
            rho = chern_density(gauge, "trace")
        c2 = second_chern_number(rho.field)
        report.timings[f"{method}_s"] = time.perf_counter() - start
        results[f"C2_{method}"] = {"value": c2.value, "nearest": c2.nearest,
                                   "deviation": c2.deviation,
                                   "imag_residue": rho.imag_residue}
    report.results["chern"] = results
    if len(results) > 1:
        values = [entry["value"] for entry in results.values()]
        spread = max(values) - min(values)
        report.add_check("method-agreement", spread < args.tol,
                         f"max spread {spread:.3e} < {args.tol}")
    _emit_report(report, args, _color_enabled(args))
    return 0 if report.all_passed else 1


def _zero_entry(zero) -> dict:
    return {
        "position": [repr(v) for v in zero.position],
        "cell": list(zero.cell_index),
        "refined": zero.refined,
        "phi_norm": zero.phi_norm,
        "jacobian": zero.jacobian,
        "degree": zero.degree,
        "beta": zero.beta,
        "eta": zero.eta,
        "degenerate": zero.degenerate,
    }


def _run_zeros(args, phi: PhiField):
    su2_algebra.self_check()
    report = ChargeReport("zeros", config=_config_echo(args, phi.grid))
    start = time.perf_counter()
    analysis = phi_mapping.analyze(phi, ledger_tol=args.tol,
                                   threads=_thread_count(args))
    report.timings["ledger_s"] = time.perf_counter() - start
    ledger = analysis.ledger
    report.results["ledger"] = {
        "zero_count": len(ledger.zeros),
        "index_sum": ledger.index_sum,
        "chi": ledger.chi,
        "C2_density": ledger.density_c2,
        "C2_quadrature": analysis.c2.quadrature,
        "excised_charge": analysis.c2.excised_charge,
        "excluded_fraction": analysis.c2.excluded_fraction,
        "excision_radius": analysis.excision_radius,
        "discrepancy": ledger.discrepancy,
        "suspicious_cells": len(analysis.search.suspicious_cells),
    }
    report.zeros = [_zero_entry(z) for z in ledger.zeros]
    report.add_check("ledger-equivalence", ledger.passed,
                     f"|C2 - sum(beta*eta)| = {ledger.discrepancy:.3e} "
                     f"< {ledger.tolerance}")
    report.add_check("euler-alias", ledger.chi == ledger.index_sum,
                     f"chi = {ledger.chi} equals ledger sum {ledger.index_sum}")
    report.add_check("quadrature-reliable", analysis.c2.reliable,
                     f"excluded fraction {analysis.c2.excluded_fraction:.4f} <= 0.05")
    return report, analysis


def cmd_zeros(args) -> int:
    field = fldio.read_field(args.infile)
    if isinstance(field, SpinorField):
        field = spinor_to_phi(field)
    if not isinstance(field, PhiField):
        raise Su2TopoError(f"{args.infile}: expected a phi or spinor field")
    report, _ = _run_zeros(args, field)
    _emit_report(report, args, _color_enabled(args))
    return 0 if report.all_passed else 1


_VERIFY_CONFIGS = ("identity", "qpower:2", "qpower:-1", "qpower:3",
                   "linear", "qpoly")


def cmd_verify(args) -> int:
    name = args.config
    su2_algebra.self_check()
    if name == "identity" or name.startswith("qpower:"):
        resolution = args.grid if args.grid is not None else (32, 32, 32)
        with _usage_errors():
            if name == "identity":
                psi = generators.identity_map_s3(resolution)
            else:
                try:
                    power = int(name.split(":", 1)[1])
                except ValueError:
                    raise UsageError(f"bad quaternion power in {name!r}")
                grid = generators.s3_chart_grid(resolution)
                psi = phi_to_spinor(generators.quaternion_power_field(power, grid))
        report, psi, gauge = _run_cs(args, psi=psi)
        report.command = f"verify {name}"
        dec = decompose(psi, gauge)
        dnorm = float(np.max(np.abs(dec.covariant)))
        bnorm = float(np.max(np.abs(dec.b)))
        report.results["parallel_condition"] = {"max_DPsi": dnorm, "max_b": bnorm}
        report.add_check("parallel-condition", dnorm < 1e-10 and bnorm < 1e-10,
                         f"max|DPsi| = {dnorm:.3e}, max|b| = {bnorm:.3e} < 1e-10")
    elif name in ("linear", "qpoly"):
        with _usage_errors():
            grid = _box_grid_from_args(args, 4)
            if name == "linear":
                phi = generators.linear_phi_field(np.eye(4), args.shift, grid)
            else:
                hmax = max(grid.spacing)
                gap = max(1.2, 5.0 * hmax)
                roots = np.array([[-gap / 2, 0.1, -0.05, 0.2],
                                  [gap / 2, -0.1, 0.05, -0.2]])
                phi = generators.quaternion_polynomial_field(roots, grid)
        report, _ = _run_zeros(args, phi)
        report.command = f"verify {name}"
    else:
        raise UsageError(
            f"unknown verify config {name!r}; choose from {_VERIFY_CONFIGS}")
    _emit_report(report, args, _color_enabled(args))
    return 0 if report.all_passed else 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su2topo",
        description="Topological invariants of SU(2) spinor/gauge configurations")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_report=True):
        p.add_argument("--grid", type=_parse_grid, default=None,
                       help="axis sizes n0,n1,n2[,n3]")
        p.add_argument("--box", type=_parse_box, default=None,
                       help="per-axis bounds lo:hi[,lo:hi...]")
        p.add_argument("--tol", type=float, default=0.05)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--no-color", action="store_true")
        if needs_report:
            p.add_argument("--report", default=None, help="write report to file")
            p.add_argument("--csv", default=None,
                           help="write flat plot-ready rows to a CSV file")
            p.add_argument("--timings", action="store_true",
                           help="include wall-clock timings in the report")

    gen = sub.add_parser("generate", help="write an analytic configuration")
    gen.add_argument("--kind", required=True,
                     choices=["identity", "qpower", "qpoly", "linear",
                              "random-spinor", "random-gauge", "random-su2"])
    gen.add_argument("--chart", choices=["s3", "box"], default="box")
    gen.add_argument("--power", type=int, default=1)
    gen.add_argument("--roots", default="")
    gen.add_argument("--shift", type=_parse_shift, default=[0.0, 0.0, 0.0, 0.0])
    gen.add_argument("--out", required=True)
    common(gen, needs_report=False)
    gen.set_defaults(func=cmd_generate)

    dec = sub.add_parser("decompose", help="split a gauge potential")
    dec.add_argument("--psi", required=True)
    dec.add_argument("--gauge", default=None)
    common(dec)
    dec.set_defaults(func=cmd_decompose)

    csp = sub.add_parser("cs", help="knot charges on a rank-3 chart")
    csp.add_argument("infile")
    common(csp)
    csp.set_defaults(func=cmd_cs)

    chn = sub.add_parser("chern", help="Chern density and second Chern number")
    chn.add_argument("infile")
    chn.add_argument("--method", choices=["trace", "spinor", "unit", "all"],
                     default="all")
    common(chn)
    chn.set_defaults(func=cmd_chern)

    zer = sub.add_parser("zeros", help="zero ledger of a 4-vector field")
    zer.add_argument("infile")
    common(zer)
    zer.set_defaults(func=cmd_zeros)

    ver = sub.add_parser("verify", help="full cross-check on a named generator")
    ver.add_argument("config", help="|".join(_VERIFY_CONFIGS))
    ver.add_argument("--shift", type=_parse_shift, default=[0.05, -0.03, 0.02, 0.01])
    common(ver)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"su2topo: usage error: {exc}", file=sys.stderr)
        return 2
    except FieldFormatError as exc:
        print(f"su2topo: input error [{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except (Su2TopoError, OSError) as exc:
        print(f"su2topo: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
