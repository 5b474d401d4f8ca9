"""Batch command-line front end.

Subcommands: ``generate`` (analytic configurations to FLD2 files),
``decompose`` (gauge potential split), ``cs`` (knot charges on rank-3
charts), ``chern`` (densities and the second Chern number), ``zeros``
(zero ledger), and ``verify`` (full cross-check pipeline on a named
generator).  Every run that computes two routes to the same invariant
emits an explicit consistency line; the exit code is nonzero iff any
check fails.

Exit codes: 0 success, 1 failed consistency check, 2 usage error,
3 input file or format error.  A command imports the modules it runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import su2_algebra
from .errors import (FieldError, FieldFormatError, LatticeError,
                     ReconstructionError, Su2TopoError)
from .fields import GaugeField, PhiField, SpinorField, phi_to_spinor, spinor_to_phi
from .report import ChargeReport, __version__

#: Bound, relative to max(1, |Q|), of a check whose two routes share every
#: computed quantity and so differ by rounding only.
ROUNDING_TOL = 1e-12


class UsageError(Su2TopoError):
    """Arguments that parse but do not fit together (exit code 2)."""


def _color_enabled(args) -> bool:
    if args.no_color or os.environ.get("SU2TOPO_NO_COLOR"):
        return False
    return sys.stdout.isatty()


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


def _parse_vector(text: str) -> list:
    """A 4-vector ``x0,x1,x2,x3``: ``--shift`` or one of ``--roots``."""
    try:
        vector = [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad 4-vector {text!r}")
    if len(vector) != 4:
        raise argparse.ArgumentTypeError(f"{text!r} does not have 4 components")
    return vector


class _KindFlag(argparse.Action):
    """Store a kind flag and note it as given, for :func:`_build` to check."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.kind_flags = {*getattr(namespace, "kind_flags", ()), self.dest}


def _chart_grid(args, chart: str):
    """The grid of ``--grid``/``--box`` on a chart: the rank-3 "s3" chart of
    the unit 3-sphere (32^3 by default) or a rank-4 "box" (16^4 on
    [-2, 2]^4 by default)."""
    from . import generators
    rank = 3 if chart == "s3" else 4
    shape = args.grid if args.grid is not None else ((32,) * 3 if rank == 3 else (16,) * 4)
    if len(shape) != rank:
        raise UsageError(f"--grid gives {len(shape)} axis sizes; this run needs {rank}")
    if chart == "s3":
        if args.box is not None:
            raise UsageError("--box bounds a box domain; the s3 chart has fixed bounds")
        return generators.s3_chart_grid(shape)
    spans = args.box if args.box is not None else [(-2.0, 2.0)]
    if len(spans) == 1:
        spans = spans * rank
    if len(spans) != rank:
        raise UsageError(f"--box gives {len(spans)} spans; the grid has rank {rank}")
    return generators.box_grid(shape, [s[0] for s in spans], [s[1] for s in spans])


def _bound_check(report: ChargeReport, name: str, label: str, value: float,
                 bound: float, fmt: str = "") -> None:
    """Add the check ``value < bound``; the detail prints the comparison
    that holds, so a FAIL reads ``>=``."""
    passed = value < bound
    report.add_check(name, passed, f"{label} {'<' if passed else '>='} {bound:{fmt}}")


def _emit_report(report: ChargeReport, args) -> int:
    """Write the report where the flags ask; the exit code of the run."""
    text = report.render(include_timings=args.timings)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text)
    if args.csv:
        _write_csv(report, args.csv)
    sys.stdout.write(_colorize_report(text) if _color_enabled(args) else text)
    return 0 if report.all_passed else 1


def _write_csv(report: ChargeReport, path: str) -> None:
    """Flat plot-ready export: one row per charge value or per zero."""
    import csv
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
            out.append(line.replace("PASS", "\x1b[32mPASS\x1b[0m"))
        elif stripped.endswith("FAIL"):
            out.append(line.replace("FAIL", "\x1b[31mFAIL\x1b[0m"))
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
    }


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _as_spinor(field, source: str) -> SpinorField:
    if isinstance(field, SpinorField):
        return field
    if isinstance(field, PhiField):
        return phi_to_spinor(field)
    raise Su2TopoError(f"{source}: expected a spinor or phi field")


def _qpoly_roots(args, grid) -> np.ndarray:
    """``--roots``, or two roots at least five cells apart."""
    if args.roots:
        return np.asarray(args.roots)
    gap = max(1.2, 5.0 * max(grid.spacing))
    return np.array([[-gap / 2, 0.1, -0.05, 0.2], [gap / 2, -0.1, 0.05, -0.2]])


@dataclass(frozen=True)
class _Kind:
    """A named configuration: its charts, its ``build(generators, grid,
    args) -> field`` (:func:`_build` imports the generators module), the
    one kind flag ``build`` reads, if any, and for ``verify`` its config
    name (the first chart is the one ``verify`` uses)."""

    charts: tuple
    build: Callable
    flag: str | None = None
    verify: str | None = None


_KINDS = {
    "identity": _Kind(("s3",), lambda gen, grid, args: gen.identity_map_s3(grid.shape),
                      verify="identity"),
    "qpower": _Kind(("s3", "box"),
                    lambda gen, grid, args: gen.quaternion_power_field(args.power, grid),
                    flag="power", verify="qpower:N"),
    "qpoly": _Kind(("box",), lambda gen, grid, args: gen.quaternion_polynomial_field(
        _qpoly_roots(args, grid), grid), flag="roots", verify="qpoly"),
    "linear": _Kind(("box",), lambda gen, grid, args: gen.linear_phi_field(
        np.eye(4), args.shift, grid), flag="shift", verify="linear"),
    **{f"random-{kind}": _Kind(("box",), lambda gen, grid, args, kind=kind:
                               gen.random_config(args.seed, kind, grid), flag="seed")
       for kind in ("spinor", "gauge")},
}

_VERIFY_CONFIGS = tuple(k.verify for k in _KINDS.values() if k.verify)


def _build(kind: str, chart: str, args):
    """The field of a registry kind on the chart grid of ``args``."""
    from . import generators
    charts = _KINDS[kind].charts
    if chart not in charts:
        raise UsageError(f"kind {kind!r} is defined on the {' and '.join(charts)} "
                         f"chart only, not on {chart}")
    stray = sorted(getattr(args, "kind_flags", set()) - {_KINDS[kind].flag})
    if stray:
        raise UsageError(f"kind {kind!r} does not read --{', --'.join(stray)}")
    try:
        return _KINDS[kind].build(generators, _chart_grid(args, chart), args)
    except (FieldError, LatticeError) as exc:
        # the library rejects a command-line value; no input file is involved
        raise UsageError(str(exc)) from exc


def cmd_generate(args) -> int:
    from . import fldio
    field = _build(args.kind, args.chart, args)
    if args.chart == "s3" and isinstance(field, SpinorField):
        field = spinor_to_phi(field)    # chart maps are stored as 4-vector fields
    try:
        fldio.write_field(field, args.out)
    except FieldError as exc:
        # a box field computes its values as they are written, from the
        # command-line values alone
        raise UsageError(str(exc)) from exc
    print(f"wrote {args.out}")
    return 0


def cmd_decompose(args) -> int:
    from . import fldio
    from .decomposition import decompose
    psi = _as_spinor(fldio.read_field(args.psi), args.psi)
    gauge = None
    if args.gauge:
        gauge = fldio.read_field(args.gauge)
        if not isinstance(gauge, GaugeField):
            raise Su2TopoError(f"{args.gauge}: expected a gauge field")
        if gauge.grid != psi.grid:
            shapes = ["x".join(map(str, field.grid.shape)) for field in (psi, gauge)]
            same = (" (same shape; origin, spacing, boundaries or centering differ)"
                    if shapes[0] == shapes[1] else "")
            raise Su2TopoError(f"spinor and gauge grids differ: {args.psi} is on a "
                               f"{shapes[0]} grid, {args.gauge} on a {shapes[1]} "
                               f"grid{same}")
    report = ChargeReport("decompose", config=_config_echo(args, psi.grid))
    start = time.perf_counter()
    try:
        result = decompose(psi, gauge)
    except ReconstructionError as exc:
        # the identity itself failed: a check verdict, not an input error
        report.add_check("reconstruction", False, str(exc))
    else:
        report.results["decomposition"] = {"reconstruction_residual": result.residual}
        _bound_check(report, "reconstruction", f"|a+b-A| = {result.residual:.3e}",
                     result.residual, args.tol, fmt=".3e")
    report.timings["decompose_s"] = time.perf_counter() - start
    return _emit_report(report, args)


def cmd_cs(args) -> int:
    return _emit_report(_run_cs(args), args)


def _charge_entry(q: float) -> dict:
    return {"value": q, "nearest": int(round(q)), "deviation": abs(q - round(q))}


def _run_cs(args, psi: SpinorField | None = None, parallel: bool = False) -> ChargeReport:
    """Three routes to Q in one sweep, and with ``parallel`` the parallel
    condition b = 0 on the trace route's potential from the same sweep."""
    from . import chern_simons as cs
    su2_algebra.self_check()
    if psi is None:
        from . import fldio
        psi = _as_spinor(fldio.read_field(args.infile), args.infile)
    report = ChargeReport("cs", config=_config_echo(args, psi.grid))
    tol = args.tol

    start = time.perf_counter()
    try:
        charges = cs.chern_simons(psi, parallel=parallel)
    except ReconstructionError as exc:
        # dC = H does not hold: a check verdict, not an input error
        report.add_check("exactness", False, str(exc))
        return report
    q_spinor, q_trace, q_fn = charges.q_spinor, charges.q_trace, charges.q_fn
    report.timings["charges_s"] = time.perf_counter() - start
    report.results["charges"] = {
        "Q_spinor": _charge_entry(q_spinor),
        "Q_trace": _charge_entry(q_trace),
        "Q_fn": {**_charge_entry(q_fn),
                 "exactness_residual": charges.exactness_residual},
    }
    for name, label, value in (
            ("quantization", "|Q - nearest|", abs(q_spinor - round(q_spinor))),
            ("trace-vs-spinor", "|Q_trace - Q_spinor|", abs(q_trace - q_spinor))):
        _bound_check(report, name, f"{label} = {value:.3e}", value, tol)
    # Q_fn and Q_spinor integrate the same current J: they differ by rounding
    gap = abs(q_fn - q_spinor)
    _bound_check(report, "abelian-vs-spinor", f"|Q_fn - Q_spinor| = {gap:.3e}", gap,
                 ROUNDING_TOL * max(1.0, abs(q_spinor)), fmt=".3e")
    if parallel:
        try:
            dec = charges.parallel
        except ReconstructionError as exc:
            # the decomposition identity itself failed, as in ``decompose``
            report.add_check("reconstruction", False, str(exc))
        else:
            dnorm, bnorm = dec.max_covariant, dec.max_b
            report.results["parallel_condition"] = {"max_DPsi": dnorm, "max_b": bnorm}
            _bound_check(report, "parallel-condition",
                         f"max|DPsi| = {dnorm:.3e}, max|b| = {bnorm:.3e}",
                         max(dnorm, bnorm), 1e-10)
    return report


def cmd_chern(args) -> int:
    from . import fldio
    from .chern_density import ROUTES, chern_numbers
    field = fldio.read_field(args.infile)
    report = ChargeReport("chern", config=_config_echo(args, field.grid))
    psi = _as_spinor(field, args.infile)
    start = time.perf_counter()
    charges = chern_numbers(psi, ROUTES)
    report.timings["chern_s"] = time.perf_counter() - start
    report.results["chern"] = {f"C2_{route}": _charge_entry(c2)
                               for route, c2 in charges.items()}
    spread = max(charges.values()) - min(charges.values())
    _bound_check(report, "method-agreement", f"max spread {spread:.3e}", spread, args.tol)
    return _emit_report(report, args)


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


def _run_zeros(args, phi: PhiField) -> ChargeReport:
    from . import phi_mapping
    su2_algebra.self_check()
    report = ChargeReport("zeros", config=_config_echo(args, phi.grid))
    start = time.perf_counter()
    analysis = phi_mapping.analyze(phi, ledger_tol=args.tol)
    report.timings["ledger_s"] = time.perf_counter() - start
    ledger = analysis.ledger
    report.results["ledger"] = {
        "zero_count": len(ledger.zeros),
        "index_sum": ledger.index_sum,
        "chi": ledger.chi,
        "C2_boundary": ledger.boundary_c2,
        "discrepancy": ledger.discrepancy,
        "suspicious_cells": len(analysis.search.suspicious_cells),
    }
    report.zeros = [_zero_entry(z) for z in ledger.zeros]
    _bound_check(report, "ledger-equivalence",
                 f"|C2_boundary - sum(beta*eta)| = {ledger.discrepancy:.3e}",
                 ledger.discrepancy, ledger.tolerance)
    report.add_check("euler-alias", ledger.chi == ledger.index_sum,
                     f"chi = {ledger.chi} equals ledger sum {ledger.index_sum}")
    return report


def cmd_zeros(args) -> int:
    from . import fldio
    field = fldio.read_field(args.infile)
    if isinstance(field, SpinorField):
        field = spinor_to_phi(field)
    if not isinstance(field, PhiField):
        raise Su2TopoError(f"{args.infile}: expected a phi or spinor field")
    return _emit_report(_run_zeros(args, field), args)


def cmd_verify(args) -> int:
    name = args.config
    kind, colon, power = name.partition(":")
    if kind not in _KINDS or _KINDS[kind].verify != kind + (":N" if colon else ""):
        raise UsageError(
            f"unknown verify config {name!r}; choose from {_VERIFY_CONFIGS}")
    if colon:
        try:
            args.power = int(power)
        except ValueError:
            raise UsageError(f"bad quaternion power in {name!r}")
    su2_algebra.self_check()
    chart = _KINDS[kind].charts[0]
    if chart == "s3":
        report = _run_cs(args, _as_spinor(_build(kind, chart, args), name), parallel=True)
    else:
        report = _run_zeros(args, _build(kind, chart, args))
    report.command = f"verify {name}"
    return _emit_report(report, args)


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su2topo",
        description="Topological invariants of SU(2) spinor/gauge configurations")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand takes only the flags it reads.
    def domain_flags(p):
        p.add_argument("--grid", type=_parse_grid, default=None,
                       help="axis sizes n0,n1,n2[,n3]")
        p.add_argument("--box", type=_parse_box, default=None,
                       help="per-axis bounds lo:hi[,lo:hi...] of a box chart")

    def report_flags(p):
        p.add_argument("--tol", type=float, default=0.05)
        p.add_argument("--no-color", action="store_true")
        p.add_argument("--report", default=None, help="write report to file")
        p.add_argument("--csv", default=None,
                       help="write flat plot-ready rows to a CSV file")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the report")

    gen = sub.add_parser("generate", help="write an analytic configuration")
    gen.add_argument("--kind", required=True, choices=list(_KINDS))
    gen.add_argument("--chart", choices=["s3", "box"], default="box")
    gen.add_argument("--power", type=int, default=1, action=_KindFlag)
    gen.add_argument("--roots", default=None, action=_KindFlag,
                     type=lambda text: [_parse_vector(root) for root in text.split(";")])
    gen.add_argument("--shift", type=_parse_vector, default=[0.0] * 4, action=_KindFlag)
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0, action=_KindFlag)
    domain_flags(gen)
    gen.set_defaults(func=cmd_generate)

    dec = sub.add_parser("decompose", help="split a gauge potential")
    dec.add_argument("--psi", required=True)
    dec.add_argument("--gauge", default=None)
    report_flags(dec)
    dec.set_defaults(func=cmd_decompose)

    csp = sub.add_parser("cs", help="knot charges on a rank-3 chart")
    csp.add_argument("infile")
    report_flags(csp)
    csp.set_defaults(func=cmd_cs)

    chn = sub.add_parser("chern", help="Chern density and second Chern number")
    chn.add_argument("infile")
    report_flags(chn)
    chn.set_defaults(func=cmd_chern)

    zer = sub.add_parser("zeros", help="zero ledger of a 4-vector field")
    zer.add_argument("infile")
    report_flags(zer)
    zer.set_defaults(func=cmd_zeros)

    ver = sub.add_parser("verify", help="full cross-check on a named generator")
    ver.add_argument("config", help="|".join(_VERIFY_CONFIGS))
    ver.add_argument("--shift", type=_parse_vector, default=[0.05, -0.03, 0.02, 0.01],
                     action=_KindFlag)
    domain_flags(ver)
    report_flags(ver)
    ver.set_defaults(func=cmd_verify, roots=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol = getattr(args, "tol", 1.0)
        if not 0.0 < tol < float("inf"):
            raise UsageError(f"--tol must be a finite positive number, not {tol}")
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
