"""Each CLI process loads only the modules its command runs."""

import json
import os
import subprocess
import sys

import pytest

import su2topo

SRC = os.path.dirname(os.path.dirname(su2topo.__file__))

#: Run one CLI call in this interpreter and print the su2topo modules loaded.
PROBE = """
import json, sys
from su2topo import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("su2topo"))]))
"""


def _loaded(*argv):
    env = dict(os.environ, PYTHONPATH=SRC, SU2TOPO_NO_COLOR="1")
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    code, modules = json.loads(out.splitlines()[-1])
    assert code == 0, argv
    return {module.partition(".")[2] for module in modules} - {""}


@pytest.fixture(scope="module")
def loads(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("loading") / "phi.fld")
    return {"generate": _loaded("generate", "--kind", "qpoly", "--grid", "16,16,16,16",
                                "--out", path),
            "zeros": _loaded("zeros", path),
            "verify identity": _loaded("verify", "identity", "--grid", "16,16,16",
                                       "--tol", "0.1")}


@pytest.mark.parametrize("command, unused", [
    ("zeros", {"chern_simons", "decomposition", "generators"}),
    ("generate", {"phi_mapping", "chern_density", "chern_simons", "decomposition"}),
    ("verify identity", {"phi_mapping", "chern_density", "fldio"}),
])
def test_a_command_loads_only_the_modules_it_runs(loads, command, unused):
    assert "cli" in loads[command]
    assert not loads[command] & unused, sorted(loads[command] & unused)


def test_the_harness_set_up_line_loads_the_algebra_alone():
    # the benchmark's set-up line, verbatim
    setup = "import su2topo; su2topo.su2_algebra.self_check()"
    probe = (f"{setup}\nimport sys\n"
             "print(sorted(m for m in sys.modules if m.startswith('su2topo')))")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["['su2topo',", "'su2topo.conventions',", "'su2topo.errors',",
                           "'su2topo.su2_algebra']"]


def test_public_names_resolve_on_first_use():
    # every name of __all__ resolves, to the object its module defines,
    # and an unknown name is an AttributeError
    import importlib
    for name in su2topo.__all__:
        value = getattr(su2topo, name)
        home = su2topo._HOME.get(name)
        if home is None:
            assert value is importlib.import_module(f"su2topo.{name}")
        else:
            assert value is getattr(importlib.import_module(f"su2topo.{home}"), name)
    assert set(su2topo.__all__) <= set(dir(su2topo))
    with pytest.raises(AttributeError):
        su2topo.surface_degree
