"""Rules on where the package keeps a decision, checked on its source.

The domain modules know no JSON format and no command line.  Reading and
writing JSON lives in ``bellbound.serialize`` and the commands in
``bellbound.cli``; both import the domain modules, never the reverse.  And
only ``qstate.readonly`` sets an array's flags.
"""

import ast
from pathlib import Path

import pytest

import bellbound

PACKAGE = Path(bellbound.__file__).parent
DOMAIN = ("qstate", "bounds", "bell", "coherent", "source_op")
IO_MODULES = {"serialize", "cli"}


def _io_imports(source: str) -> set:
    """The I/O modules a module's source imports, in any import form and at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        found |= IO_MODULES & {part for name in names for part in name.split(".")}
    return found


@pytest.mark.parametrize("module", DOMAIN)
def test_domain_module_imports_no_io_module(module):
    assert _io_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8")) == set()


def test_every_import_form_is_seen():
    for source in ("from .serialize import json_int", "from . import cli",
                   "import bellbound.serialize", "from bellbound.cli import main",
                   "from bellbound import serialize", "def f():\n    from .cli import main"):
        assert _io_imports(source), source
    assert _io_imports("from .qstate import cli_name\nimport numpy") == set()


def _setflags_calls(source: str) -> list:
    """The enclosing function of every ``setflags`` call in a module's source."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "setflags"):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_only_readonly_sets_flags():
    calls = {module.stem: _setflags_calls(module.read_text(encoding="utf-8"))
             for module in PACKAGE.glob("*.py")}
    assert {name: found for name, found in calls.items() if found} == {"qstate": ["readonly"]}


def test_every_setflags_form_is_seen():
    source = ("a.setflags(write=False)\n"
              "class C:\n    def f(self):\n        np.ndarray.setflags(self.m, False)\n"
              "def g():\n    def h():\n        x = [m.setflags(write=0) for m in ms]\n")
    assert _setflags_calls(source) == ["", "C.f", "g.h"]
