"""Benchmark of the su2topo CLI: time, memory and correctness of fixed workloads.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed CLI run, started as fresh processes one after the
other (a closed loop with one client) with the checkout's ``src`` on
``PYTHONPATH`` and the default ``--threads``.  The run repeats the workload
until ``--seconds`` have passed, checks every report, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` measures the end-to-end metrics: ``wall_s`` (median wall time
of one workload run), ``peak_rss_mb`` (largest peak RSS among a run's CLI
processes, median over runs) and ``setup_s`` (median time of a fresh
interpreter importing su2topo and running ``su2_algebra.self_check()``).
``--trace 1`` alternates untraced runs with runs under ``bench/tracer.py``
and reports the per-layer metrics of ``PER_LAYER``.  A run counts as failed
when a process exits nonzero, its report lacks an expected value or a PASS,
or its report bytes differ from those of the first run of the set.  See
``bench/NOTES.md`` for the workloads, the metric definitions and known
defects.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACER = BENCH_DIR / "tracer.py"
TMP_ROOT = ROOT / ".bench_tmp"

SETUP_REPEATS = 8
PROCESS_TIMEOUT_S = 150.0
SETUP_CODE = "import su2topo; su2topo.su2_algebra.self_check()"
PROBE_CODE = """
import json, numpy, su2topo
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"su2topo": su2topo.__file__, "numpy": numpy.__version__,
                  "blas": blas.get("openblas configuration") or blas.get("name")}))
"""

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

PER_LAYER = (
    ("generators.identity_map_s3.self_s", "s"),
    ("generators.quaternion_polynomial_field.self_s", "s"),
    ("decomposition.decompose.self_s", "s"),
    ("decomposition.covariant_derivative.self_s", "s"),
    ("decomposition.parallel_gauge_potential.self_s", "s"),
    ("decomposition.parallel_gauge_potential.calls", "count"),
    ("chern_simons.knot_charge.spinor.self_s", "s"),
    ("chern_simons.knot_charge.trace.self_s", "s"),
    ("chern_simons.fn_data.self_s", "s"),
    ("lattice.central_diff.calls", "count"),
    ("lattice.central_diff.self_s", "s"),
    ("lattice.interpolate.calls", "count"),
    ("lattice.interpolate.self_s", "s"),
    ("lattice.interpolate_with_gradient.calls", "count"),
    ("phi_mapping.locate_zeros.self_s", "s"),
    ("phi_mapping.newton.evals", "count"),
    ("phi_mapping.zeros_found", "count"),
    ("phi_mapping.suspicious_cells", "count"),
    ("phi_mapping.surface_degree.self_s", "s"),
    ("phi_mapping.surface_degree.calls", "count"),
    ("phi_mapping.surface_degree.attempts_per_call", "ratio"),
    ("phi_mapping.masked_unit_density.self_s", "s"),
    ("chern_density.chern_density.unit.self_s", "s"),
    ("chern_density.exclusion_mask.self_s", "s"),
    ("chern_density.second_chern_number.self_s", "s"),
    ("fldio.write_field.self_s", "s"),
    ("fldio.read_field.self_s", "s"),
    ("fldio.fnv1a64.self_s", "s"),
    ("fldio.file_bytes", "bytes"),
    ("fldio.write_mb_per_s", "MB/s"),
    ("fldio.read_mb_per_s", "MB/s"),
    ("su2_algebra.self_check.self_s", "s"),
    ("report.render.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A fixed CLI run: its steps, expected report values and working set."""

    name: str
    steps: Callable[[int, str], list]      # (seed, tmp dir) -> argv per process
    expected: dict                         # report path -> expected integer
    checks: tuple                          # check names that must be present
    working_set: str                       # what the computed bytes are
    working_set_bytes: int


def _s3_identity_steps(seed: int, tmp: str) -> list:
    # The identity map has no random input; the seed is ignored.
    return [["verify", "identity", "--grid", "96,96,96"]]


def _box_qpoly_steps(seed: int, tmp: str) -> list:
    # A sub-cell shift of the box moves the lattice against the planted
    # roots while the zero ledger stays at 2.
    spacing = 4.0 / 31
    delta = random.Random(seed).uniform(-0.5, 0.5) * spacing
    return [["verify", "qpoly", "--grid", "32,32,32,32",
             f"--box={-2.0 + delta:.6f}:{2.0 + delta:.6f}"]]


_FLD_ROOTS = ((-0.8, 0.11, -0.07, 0.13), (0.8, -0.12, 0.08, -0.1))


def _fld_qpoly_steps(seed: int, tmp: str) -> list:
    # Jitter of at most 0.1 per component keeps the two roots about 1.6
    # apart and at least 1.1 from the box boundary.
    rng = random.Random(seed)
    roots = ";".join(",".join(f"{c + rng.uniform(-0.1, 0.1):.6f}" for c in root)
                     for root in _FLD_ROOTS)
    path = os.path.join(tmp, "phi.fld")
    # ``--roots=`` because argparse takes "--roots -0.8,..." for a flag.
    return [["generate", "--kind", "qpoly", "--grid", "24,24,24,24", "--box=-2:2",
             f"--roots={roots}", "--out", path],
            ["zeros", path]]


_CS_CHECKS = ("quantization", "trace-vs-spinor", "abelian-vs-spinor",
              "parallel-condition")
_LEDGER_CHECKS = ("ledger-equivalence", "euler-alias")

WORKLOADS = {w.name: w for w in (
    Workload("s3-identity-96", _s3_identity_steps,
             {"results.charges.Q_spinor.nearest": 1,
              "results.charges.Q_trace.nearest": 1,
              "results.charges.Q_fn.nearest": 1},
             _CS_CHECKS,
             "96^3 spinor values and jets (complex128)", 96**3 * 2 * 16 * 4),
    Workload("box-qpoly-32", _box_qpoly_steps,
             {"results.ledger.zero_count": 2, "results.ledger.index_sum": 2,
              "results.ledger.chi": 2},
             _LEDGER_CHECKS,
             "32^4 phi values and jets (float64)", 32**4 * 4 * 8 * 5),
    Workload("fld-qpoly-24", _fld_qpoly_steps,
             {"results.ledger.zero_count": 2, "results.ledger.index_sum": 2},
             _LEDGER_CHECKS,
             "24^4 phi values and jets, the FLD payload", 24**4 * 4 * 8 * 5),
)}


# --------------------------------------------------------------------------
# correctness gate
# --------------------------------------------------------------------------

def parse_report(text: str) -> dict:
    """Flatten an su2topo report into ``{"results.ledger.chi": "2", ...}``.

    List items get their index as a path component, as in
    ``checks.0.status``.
    """
    flat = {}
    stack = []          # (indent, key) of the open parents
    items = Counter()   # list items seen per parent path
    for line in text.splitlines()[1:]:          # skip "su2topo-report:"
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip(" "))
        body = line.strip()
        while stack and stack[-1][0] >= indent:
            stack.pop()
        if body.startswith("- "):
            parent = ".".join(key for _, key in stack)
            stack.append((indent, str(items[parent])))
            items[parent] += 1
            indent, body = indent + 2, body[2:]
        key, _, value = body.partition(":")
        value = value.strip()
        if value:
            flat[".".join([k for _, k in stack] + [key])] = value
        else:
            stack.append((indent, key))
    return flat


def check_report(text: str, workload: Workload) -> list:
    """Problems that make this report fail the gate; empty when it passes."""
    flat = parse_report(text)
    problems = [f"{key} = {flat.get(key)}, expected {want}"
                for key, want in workload.expected.items()
                if flat.get(key) != str(want)]
    statuses = {}
    index = 0
    while f"checks.{index}.name" in flat:
        statuses[flat[f"checks.{index}.name"]] = flat.get(f"checks.{index}.status")
        index += 1
    problems += [f"check {name} missing" for name in workload.checks
                 if name not in statuses]
    problems += [f"check {name} is {status}" for name, status in statuses.items()
                 if status != "PASS"]
    if flat.get("overall") != "PASS":
        problems.append(f"overall = {flat.get('overall')}")
    return problems


def mark_changed_reports(runs: list) -> None:
    """Fail every run whose report bytes differ from the set's first run."""
    for run in runs[1:]:
        if run.digest != runs[0].digest:
            run.problems.append("report bytes differ from the first run of the set")


# --------------------------------------------------------------------------
# processes
# --------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["SU2TOPO_NO_COLOR"] = "1"
    env.pop("SU2TOPO_THREADS", None)
    return env


@dataclass
class Process:
    code: int
    wall: float
    peak_rss_mb: float
    stdout: bytes


def spawn(argv: list, env: dict, out_path: str) -> Process:
    """Run one process to completion; peak RSS comes from its own rusage."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as out:
        stdout = out.read()
    return Process(proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6, stdout)


@dataclass
class Run:
    """One full workload run: all its processes and the gate's verdict."""

    traced: bool
    wall: float
    peak_rss_mb: float
    codes: list
    digest: str
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def run_workload(workload: Workload, steps: list, env: dict, tmp: str,
                 traced: bool) -> Run:
    processes, traces = [], []
    start = time.perf_counter()
    for index, argv in enumerate(steps):
        out_path = os.path.join(tmp, f"step{index}.out")
        if traced:
            spans_path = os.path.join(tmp, f"step{index}.spans.json")
            cmd = [sys.executable, str(TRACER), spans_path, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "su2topo.cli", *argv]
        processes.append(spawn(cmd, env, out_path))
        if processes[-1].code != 0:
            break
        if traced:
            with open(spans_path, encoding="utf-8") as handle:
                traces.append(json.load(handle))
    wall = time.perf_counter() - start

    codes = [p.code for p in processes]
    run = Run(traced, wall, max(p.peak_rss_mb for p in processes), codes,
              hashlib.sha256(b"".join(p.stdout for p in processes)).hexdigest())
    if any(codes) or len(codes) != len(steps):
        run.problems.append(f"exit codes {codes}")
    else:
        run.problems += check_report(processes[-1].stdout.decode("utf-8", "replace"),
                                     workload)
        if traced:
            run.layers = layer_values(traces)
    return run


# --------------------------------------------------------------------------
# per-layer metrics from spans
# --------------------------------------------------------------------------

def layer_values(traces: list) -> dict:
    """Per-layer metrics of one workload run from its processes' span dumps.

    A span's self time is its duration minus the durations of the spans
    directly nested in it.
    """
    calls, total, own = Counter(), Counter(), Counter()
    counts = Counter()
    for trace in traces:
        spans = trace["spans"]
        counts.update(trace["counts"])
        nested = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                nested[parent] += end - start
        for index, (name, _, start, end) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - nested[index]

    values = {}
    for metric, _ in PER_LAYER:
        if metric.endswith(".self_s"):
            values[metric] = own[metric[:-len(".self_s")]]
        elif metric.endswith(".calls"):
            values[metric] = calls[metric[:-len(".calls")]]
    for key in ("phi_mapping.newton.evals", "phi_mapping.zeros_found",
                "phi_mapping.suspicious_cells"):
        values[key] = counts[key]
    degree_calls = calls["phi_mapping.surface_degree"]
    values["phi_mapping.surface_degree.attempts_per_call"] = (
        counts["phi_mapping.surface_degree.evaluate_calls"] / degree_calls
        if degree_calls else 0.0)
    written, read = counts["fldio.bytes_written"], counts["fldio.bytes_read"]
    values["fldio.file_bytes"] = written
    values["fldio.write_mb_per_s"] = (written / 1e6 / total["fldio.write_field"]
                                      if written else 0.0)
    values["fldio.read_mb_per_s"] = (read / 1e6 / total["fldio.read_field"]
                                     if read else 0.0)
    return values


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def l3_bytes():
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def probe(env: dict, tmp: str) -> dict:
    """Import su2topo once (this also writes its bytecode) and describe it."""
    proc = spawn([sys.executable, "-c", PROBE_CODE], env, os.path.join(tmp, "probe.out"))
    if proc.code != 0:
        raise SystemExit(f"bench: importing su2topo from {SRC} failed")
    info = json.loads(proc.stdout)
    if not Path(info["su2topo"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: su2topo imported from {info['su2topo']}, not {SRC}")
    return info


def measure(workload: Workload, seed: int, seconds: float, traced: bool,
            tmp: str) -> dict:
    """Run one set: repeat the workload for ``seconds`` and gate every run."""
    env = child_env()
    info = probe(env, tmp)
    steps = workload.steps(seed, os.path.relpath(tmp, ROOT))

    setup = []

    def time_setup():
        for _ in range(SETUP_REPEATS // 2):
            proc = spawn([sys.executable, "-c", SETUP_CODE], env,
                         os.path.join(tmp, "setup.out"))
            if proc.code != 0:
                raise SystemExit("bench: su2topo set-up failed")
            setup.append(proc.wall)

    # Half the set-up samples before the workload and half after, so their
    # median spans the machine's speed over the whole run.
    if not traced:
        time_setup()
    load_before = os.getloadavg()
    runs = []
    start = time.perf_counter()
    # Start another repetition only while it is expected to end in time; a
    # traced repetition is an untraced run and a traced run.
    while not runs or (time.perf_counter() - start
                       + statistics.median(r.wall for r in runs) * (1 + traced)
                       <= seconds):
        runs.append(run_workload(workload, steps, env, tmp, traced=False))
        if traced:
            runs.append(run_workload(workload, steps, env, tmp, traced=True))
    if not traced:
        time_setup()
    load_after = os.getloadavg()

    mark_changed_reports(runs)

    plain = [r for r in runs if not r.traced]
    walls = [r.wall for r in plain]
    if traced:
        traced_runs = [r for r in runs if r.traced and r.layers]
        traced_walls = [r.wall for r in runs if r.traced]
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = overhead
            elif traced_runs:
                value = statistics.median(r.layers[name] for r in traced_runs)
            else:
                value = 0.0
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {"wall_s": statistics.median(walls),
                  "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
                  "setup_s": statistics.median(setup)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    failed = sum(1 for r in runs if r.problems)
    l3 = l3_bytes()
    notes = {
        "workload": workload.name, "seed": seed, "trace": int(traced),
        "load": "closed loop, one client, one CLI process at a time, default --threads",
        "machine": {"nproc": os.cpu_count(),
                    "affinity": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": info["numpy"], "blas": info["blas"],
                    "l3_bytes": l3},
        "loadavg_before": load_before, "loadavg_after": load_after,
        "working_set": {"what": workload.working_set,
                        "computed_bytes": workload.working_set_bytes,
                        "times_l3": workload.working_set_bytes / l3 if l3 else None},
        "wall_s": {"samples": len(walls), "quartiles": quartiles(walls)},
        "setup_s": {"samples": len(setup),
                    "quartiles": quartiles(setup) if setup else None},
        "fail_rate": failed / len(runs),
        "runs": [{"traced": r.traced, "wall_s": r.wall, "peak_rss_mb": r.peak_rss_mb,
                  "exit_codes": r.codes, "report_sha256": r.digest[:16],
                  "problems": r.problems} for r in runs],
    }
    return {"notes": notes,
            "result": {"correct": failed == 0, "attempted": len(runs),
                       "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # On SIGTERM, unwind through ``spawn`` so the running child is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "su2topo" / "__init__.py").is_file():
        print(f"bench: no su2topo sources under {SRC}", file=sys.stderr)
        return 2
    tmp = TMP_ROOT / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        outcome = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), str(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    notes = outcome["notes"]
    for name, entry in outcome["result"]["metrics"].items():
        print(f"{name:48s} {entry['value']:.6g} {entry['unit']}")
    print(f"runs {outcome['result']['attempted']}, failed "
          f"{outcome['result']['failed']}, fail_rate {notes['fail_rate']:.3f}")
    print("notes " + json.dumps(notes))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
