"""Design rules of the package that its code alone can check."""

import ast
import pathlib
import re

import su2topo

PACKAGE = pathlib.Path(su2topo.__file__).parent
#: Public routes nothing in the package calls, kept as references that
#: tests compare the package's own routes against.
REFERENCE_ROUTES = {"trace_pointwise"}


def test_every_public_function_and_class_is_named_in_the_package():
    # "no public function that nothing calls": each public top-level def or
    # class is named in a module other than __init__, outside its own
    # definition
    sources = {path.name: path.read_text().splitlines()
               for path in sorted(PACKAGE.glob("*.py"))}
    unnamed = []
    for module, lines in sources.items():
        for node in ast.parse("\n".join(lines)).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in REFERENCE_ROUTES):
                continue
            word = re.compile(rf"\b{node.name}\b")
            own = range(node.lineno - 1, node.end_lineno)
            if not any(word.search(line)
                       for other, text in sources.items() if other != "__init__.py"
                       for i, line in enumerate(text) if other != module or i not in own):
                unnamed.append(f"{module}: {node.name}")
    assert not unnamed, f"named nowhere in the package: {unnamed}"
