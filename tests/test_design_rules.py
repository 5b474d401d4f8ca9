"""Design rules of the package that its code alone can check."""

import ast
import pathlib

import su2topo

PACKAGE = pathlib.Path(su2topo.__file__).parent
#: Public routes nothing in the package calls, kept as references that
#: tests compare the package's own routes against; the pointwise route
#: tests compare the two knot densities ``KnotCharges.spinor`` and
#: ``.trace``.
REFERENCE_ROUTES = {"trace_pointwise", "KnotCharges.spinor", "KnotCharges.trace"}


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
