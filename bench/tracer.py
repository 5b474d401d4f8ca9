"""Run one su2topo CLI call in-process with span recorders around its layers.

Usage::

    python3 bench/tracer.py SPANS_JSON -- CLI_ARG...

The CLI call behaves as ``python3 -m su2topo.cli CLI_ARG...`` (same stdout,
same exit code).  Before it starts, every public function of every
``su2topo`` module is replaced, in every su2topo namespace that holds it, by
a wrapper that records a span.  Nothing under ``src/`` is edited.  Spans are
kept in memory and written once, to SPANS_JSON, when the call ends.

Which calls open a span:

* a call of a public function from outside its own module (a layer
  boundary), and
* every call of a function in ``STAGES``, the functions the per-layer
  metrics name, even from inside its own module.

Other calls between functions of one module are folded into the caller's
span, so that, for example, ``knot_charge`` carries the route work that
``cs_density`` and ``spinor_cs_values`` do for it.  A function with a
``method`` parameter records one span name per method, as in
``chern_simons.knot_charge.spinor``.

Besides spans, a few counters are taken at the same boundaries: evaluator
calls inside the Newton iteration of ``locate_zeros``, evaluator calls per
``surface_degree`` call, zeros found and suspicious cells, and the bytes of
each FLD file written or read.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import threading
import time
from collections import Counter

STAGES = frozenset({
    "generators.identity_map_s3", "generators.quaternion_polynomial_field",
    "decomposition.decompose", "decomposition.covariant_derivative",
    "decomposition.parallel_gauge_potential",
    "chern_simons.knot_charge", "chern_simons.fn_data",
    "lattice.central_diff", "lattice.interpolate",
    "lattice.interpolate_with_gradient",
    "phi_mapping.locate_zeros", "phi_mapping.surface_degree",
    "phi_mapping.masked_unit_density",
    "chern_density.chern_density", "chern_density.exclusion_mask",
    "chern_density.second_chern_number",
    "fldio.write_field", "fldio.read_field", "fldio.fnv1a64",
    "su2_algebra.self_check", "report.render", "cli.main",
})


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self.counts = Counter()
        self._local = threading.local()

    def call(self, name: str, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        record = [name, stack[-1] if stack else -1, time.perf_counter(), None]
        stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            stack.pop()

    def counted(self, key: str, fn):
        """``fn`` with each call added to counter ``key``."""
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def _span_wrapper(tracer: Tracer, name: str, original, target):
    """Wrapper that records a span for ``original`` and calls ``target``.

    ``target`` is ``original`` or ``original`` behind a counting hook.
    """
    owner = original.__module__
    always = name in STAGES
    signature = inspect.signature(original)
    routed = "method" in signature.parameters

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not always and sys._getframe(1).f_globals.get("__name__") == owner:
            return target(*args, **kwargs)
        span = name
        if routed:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span = f"{name}.{bound.arguments['method']}"
        return tracer.call(span, target, args, kwargs)
    return wrapper


def _hooks(tracer: Tracer):
    """Counting hooks, keyed by function; each maps the original to a target."""
    def surface_degree(fn):
        def hooked(evaluate, *args, **kwargs):
            evaluate = tracer.counted("phi_mapping.surface_degree.evaluate_calls",
                                      evaluate)
            return fn(evaluate, *args, **kwargs)
        return hooked

    def locate_zeros(fn):
        def hooked(*args, **kwargs):
            search = fn(*args, **kwargs)
            tracer.counts["phi_mapping.zeros_found"] += len(search.zeros)
            tracer.counts["phi_mapping.suspicious_cells"] += len(search.suspicious_cells)
            return search
        return hooked

    def write_field(fn):
        def hooked(field, path, *args, **kwargs):
            fn(field, path, *args, **kwargs)
            tracer.counts["fldio.bytes_written"] += os.path.getsize(path)
        return hooked

    def read_field(fn):
        def hooked(path, *args, **kwargs):
            field = fn(path, *args, **kwargs)
            tracer.counts["fldio.bytes_read"] += os.path.getsize(path)
            return field
        return hooked

    return {"phi_mapping.surface_degree": surface_degree,
            "phi_mapping.locate_zeros": locate_zeros,
            "fldio.write_field": write_field,
            "fldio.read_field": read_field}


def install(tracer: Tracer) -> None:
    """Replace su2topo's public functions by span wrappers, from outside."""
    package = importlib.import_module("su2topo")
    # The package attribute ``su2topo.chern_density`` is a function that
    # shadows its module, so modules are looked up by their full names.
    modules = {info.name: importlib.import_module(f"su2topo.{info.name}")
               for info in pkgutil.iter_modules(package.__path__)}
    phi_mapping = modules["phi_mapping"]
    hooks = _hooks(tracer)

    replacements = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            name = f"{short}.{attr}"
            hook = hooks.get(name)
            target = hook(obj) if hook else obj
            replacements[obj] = _span_wrapper(tracer, name, obj, target)

    # Modules import names directly (``from .lattice import central_diff``),
    # so every namespace that holds an original gets the wrapper.
    namespaces = [package, *modules.values()]
    for namespace in namespaces:
        for attr, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(namespace, attr, replacements[obj])

    report_cls = modules["report"].ChargeReport
    report_cls.render = _span_wrapper(tracer, "report.render", report_cls.render,
                                      report_cls.render)

    # Evaluator calls of the damped Newton iteration inside locate_zeros.
    newton = phi_mapping._newton

    def counted_newton(evaluate, *args, **kwargs):
        return newton(tracer.counted("phi_mapping.newton.evals", evaluate),
                      *args, **kwargs)
    phi_mapping._newton = counted_newton


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- CLI_ARG...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["su2topo.cli"]
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
