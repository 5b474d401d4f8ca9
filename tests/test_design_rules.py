"""Design rules of the package that its code alone can check."""

import ast
import math
import pathlib

import numpy as np

import su2topo
from conftest import peak_traced_bytes

PACKAGE = pathlib.Path(su2topo.__file__).parent
#: Public routes nothing in the package calls, kept as references that
#: tests compare the package's own routes against: the pointwise trace
#: route, against the Abelian one and the swept trace density.
REFERENCE_ROUTES = {"trace_pointwise"}


def _public_definitions(tree: ast.Module):
    """Yield ``(qualified name, node)`` for each public top-level function
    and class of a module, and for each public method and property of its
    public classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def test_every_public_function_and_class_is_named_in_the_package():
    # "no public function that nothing calls": each public top-level def or
    # class, and each public method or property of a public class, is named
    # by code (a name or an attribute, not a docstring or a comment) in a
    # module other than __init__, outside its own definition
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    references = [(module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
                  for module, tree in trees.items() if module != "__init__.py"
                  for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]
    unnamed = []
    for module, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            if qualified in REFERENCE_ROUTES:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and (other != module or line not in own)
                       for other, line, name in references):
                unnamed.append(f"{module}: {qualified}")
    assert not unnamed, f"named nowhere in the package: {unnamed}"


#: The functions of the package that may read a whole grid, each with its
#: reason.  Every other route and kernel, on either rank, reads a slab at
#: a time, and no field that serves its samples is ever read whole.
WHOLE_GRID_READERS = {
    "LatticeField.__post_init__": "checks that stored samples are finite",
    "trace_pointwise": "a reference route, of a gauge field that stores its samples",
}
#: Methods that read the whole grid when called without a block;
#: ``derivatives`` reads it whatever its order.
BLOCK_READS = {"values_at", "exact_jet"}


def _owned_statements(tree: ast.Module):
    """Yield ``(owner, node)`` for each top-level statement of a module,
    with the methods of its classes apart: the owner is the function's or
    the class's name, ``Class.method`` for a method."""
    for node in tree.body:
        name = getattr(node, "name", "<module>")
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                yield (f"{name}.{member.name}" if isinstance(member, ast.FunctionDef)
                       else name), member
        else:
            yield name, node


def _whole_grid_reads(tree: ast.Module):
    """Yield ``(owner, line)`` for each whole-grid read of a module:
    ``.values`` read as an attribute, any ``derivatives(...)`` call, and
    ``values_at()`` or ``exact_jet()`` without a block.  A ``.values`` that
    is called (a dict's ``.values()``), subscripted (a block of it),
    tested against None, or reinterpreted by ``.view`` (which reads no
    sample) is not one."""
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            exempt.add(id(node.func))
        elif isinstance(node, ast.Subscript) or (
                isinstance(node, ast.Attribute) and node.attr == "view"):
            exempt.add(id(node.value))
        elif isinstance(node, ast.Compare) and all(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            exempt.update(map(id, [node.left, *node.comparators]))
    for owner, statement in _owned_statements(tree):
        for node in ast.walk(statement):
            if isinstance(node, ast.Attribute) and node.attr == "values":
                if id(node) not in exempt:
                    yield owner, node.lineno
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name == "derivatives" or (name in BLOCK_READS and not node.args
                                             and not node.keywords):
                    yield owner, node.lineno


def test_no_library_code_reads_a_whole_grid_outside_its_exempt_readers():
    # "the slab budget by construction": a whole-grid read in a function
    # not listed above is how a grid comes back into memory unnoticed
    found = [(path.name, owner, line)
             for path in sorted(PACKAGE.glob("*.py"))
             for owner, line in _whole_grid_reads(ast.parse(path.read_text()))]
    unlisted = [hit for hit in found if hit[1] not in WHOLE_GRID_READERS]
    assert not unlisted, f"whole-grid reads outside the exempt readers: {unlisted}"
    # and no exemption outlives its read
    assert {owner for _, owner, _ in found} == set(WHOLE_GRID_READERS)


#: The functions of the package that may fill an array of the whole grid,
#: each with its reason.
WHOLE_GRID_FILLS = {
    "random_config": "random fields store their values and jets",
}
FILLS = {"empty", "zeros", "full", "ones"}
#: Joins that assemble a whole grid when they take a block of every slab.
JOINS = {"concatenate", "stack", "vstack"}


def _over_slabs(expr: ast.AST) -> bool:
    """Whether ``expr`` is a comprehension with a loop over ``slabs(...)``."""
    return isinstance(expr, (ast.ListComp, ast.GeneratorExp)) and any(
        isinstance(loop.iter, ast.Call)
        and getattr(loop.iter.func, "attr", getattr(loop.iter.func, "id", None)) == "slabs"
        for loop in expr.generators)


def _whole_grid_fills(tree: ast.Module):
    """Yield ``(owner, line)`` for each ``np.empty``, ``np.zeros``,
    ``np.full`` or ``np.ones`` of a module whose shape expression reads a
    ``grid.shape`` (of a name or an attribute ``grid``), and each
    ``np.concatenate``, ``np.stack`` or ``np.vstack`` of a comprehension
    over ``slabs(...)``."""
    for owner, statement in _owned_statements(tree):
        for node in ast.walk(statement):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and getattr(node.func.value, "id", "") == "np"):
                continue
            if node.func.attr in JOINS:
                if node.args and _over_slabs(node.args[0]):
                    yield owner, node.lineno
                continue
            if node.func.attr not in FILLS:
                continue
            shape = node.args[:1] + [k.value for k in node.keywords if k.arg == "shape"]
            if any(isinstance(sub, ast.Attribute) and sub.attr == "shape"
                   and (getattr(sub.value, "id", None) == "grid"
                        or getattr(sub.value, "attr", None) == "grid")
                   for expr in shape for sub in ast.walk(expr)):
                yield owner, node.lineno


def test_no_library_code_fills_a_whole_grid_outside_its_exempt_fills():
    # a whole-grid array filled slab by slab is as large as one read
    # whole: a function not listed above that allocates one is how a grid
    # comes back into memory unnoticed
    found = [(path.name, owner, line)
             for path in sorted(PACKAGE.glob("*.py"))
             for owner, line in _whole_grid_fills(ast.parse(path.read_text()))]
    unlisted = [hit for hit in found if hit[1] not in WHOLE_GRID_FILLS]
    assert not unlisted, f"whole-grid fills outside the exempt fills: {unlisted}"
    assert {owner for _, owner, _ in found} == set(WHOLE_GRID_FILLS)


PLANTED = """
import numpy as np


def sums_the_values(field):
    return np.sum(field.values)


def reads_values_at(field):
    return field.values_at()


def reads_the_jet(field):
    return field.exact_jet()


def differences(field):
    return field.derivatives(4)


def fills(grid):
    return np.empty(grid.shape + (4,))


def fills_by_keyword(field):
    return np.zeros(shape=field.grid.shape)


def joins_the_slabs(field):
    return np.concatenate([field.values_at(slab) for slab in slabs(field.grid)])


def stacks_the_slabs(grid, unit):
    return np.stack([unit(slab) for slab in slabs(grid)])


def vstacks_the_slabs(grid, unit):
    return np.vstack([unit(slab) for slab in lattice.slabs(grid)])


class Field:
    def whole(self):
        return self.values


def reads_blocks(field, slab):
    if field.values is None:
        return field.values_at(slab), field.exact_jet(slab), {}.values()
    return (field.values[slab], field.values.view(np.float64), np.empty(4),
            np.concatenate([field.values_at(slab), field.values_at(slab)]))
"""


def test_the_guard_reports_each_planted_whole_grid_read_and_fill():
    # the guard can fail: every kind of whole-grid read and fill planted in
    # a module is reported, with its owner, and a block read is not
    tree = ast.parse(PLANTED)
    assert {owner for owner, _ in _whole_grid_reads(tree)} == {
        "sums_the_values", "reads_values_at", "reads_the_jet", "differences",
        "Field.whole"}
    assert {owner for owner, _ in _whole_grid_fills(tree)} == {
        "fills", "fills_by_keyword", "joins_the_slabs", "stacks_the_slabs",
        "vstacks_the_slabs"}


def _unused_imports(tree: ast.Module) -> list:
    """The names a module binds by ``import`` or ``from ... import`` and
    never reads, as a name or the base of an attribute, sorted.  A
    ``from __future__`` import binds nothing."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export, so it is exempt
    unused = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              for name in _unused_imports(ast.parse(path.read_text()))]
    assert not unused, f"imported and never used: {unused}"


PLANTED_IMPORTS = """
from __future__ import annotations

import os.path
import numpy as np
from . import lattice
from .fields import normalize, spinor_to_phi as to_phi


def convert(x: np.ndarray):
    return to_phi(x), lattice.slabs
"""


def test_the_import_guard_reports_each_planted_unused_name():
    assert _unused_imports(ast.parse(PLANTED_IMPORTS)) == ["normalize", "os"]


def _sites(block: np.ndarray, rank: int) -> int:
    """The grid sites of a component-major block ``(planes, *components,
    *plane)`` of a rank-``rank`` grid."""
    return block.shape[0] * math.prod(block.shape[block.ndim - rank + 1:])


def test_no_pointwise_kernel_of_a_sweep_takes_more_than_the_budget(monkeypatch):
    # "pointwise work holds at most SLAB_SITES sites": on grids whose planes
    # exceed a budget of 5 rows and 3 sites, no call of a first-pass kernel
    # of the knot-charge sweep, of decompose or of the Chern sweep sees more
    # sites than that, whether a jet is read a block at a time or bare
    # samples are differenced a plane at a time
    from su2topo import chern_density, chern_simons, decomposition, fields, lattice, su2_algebra
    seen, rank = {}, [3]

    def watch(module, name):
        real = getattr(module, name)

        def watched(block, *args):
            seen.setdefault(name, []).append((_sites(block, rank[0]), lattice.SLAB_SITES))
            return real(block, *args)
        monkeypatch.setattr(module, name, watched)

    for module, names in ((su2_algebra, ("spinor_current",)),
                          (chern_simons, ("spinor_cs_values", "sigma_model_field",
                                          "slab_maxima")),
                          (fields, ("sigma_model_field",)),
                          (decomposition, ("slab_maxima",)),
                          (chern_density, ("_spinor_values", "_unit_values"))):
        for name in names:
            watch(module, name)
    psi = su2topo.identity_map_s3(16)
    bare = su2topo.SpinorField(psi.grid, np.concatenate(
        [psi.values_at(slab) for slab in lattice.slabs(psi.grid)]))
    monkeypatch.setattr(lattice, "SLAB_SITES", 5 * 16 + 3)
    for spinor in (psi, bare):
        chern_simons.chern_simons(spinor, parallel=True)
        su2topo.decompose(spinor)
    rank[0] = 4
    spinor = su2topo.random_config(3, "spinor", su2topo.box_grid((8,) * 4, -1.0, 1.0))
    monkeypatch.setattr(lattice, "SLAB_SITES", 5 * 8**2 + 3)
    su2topo.chern_numbers(spinor, chern_density.ROUTES)
    assert {name for name in seen} == {"spinor_current", "spinor_cs_values",
                                       "sigma_model_field", "slab_maxima",
                                       "_spinor_values", "_unit_values"}
    for name, calls in seen.items():
        assert all(sites <= budget for sites, budget in calls), (name, max(calls))


def test_the_row_blocked_sweep_peaks_below_one_plane_of_temporaries(monkeypatch):
    # the knot charges and the parallel condition of a 48^3 chart under a
    # budget of 5 rows and 3 sites: every pointwise kernel takes a tenth of
    # a plane, and only A, c and H (held as a halo of planes), the density
    # planes and the trace pass's stencils hold whole planes.  Measured
    # 1.75 MB, under 0.9 planes of temporaries at 1 KB a site (2.69 MB with
    # whole-plane kernels); neither a whole-grid density (0.9 MB) nor one
    # plane of the current J (0.44 MB) fits beside it.
    from su2topo import chern_simons, lattice
    n = 48
    monkeypatch.setattr(lattice, "SLAB_SITES", 5 * n + 3)
    peak, _ = peak_traced_bytes(
        lambda: chern_simons.chern_simons(su2topo.identity_map_s3(n), parallel=True))
    bound = 9 * n * n * 1024 // 10
    assert peak < bound
    for resident in (n**3 * 8, n * n * 3 * 4 * 16):
        assert peak + resident > bound
