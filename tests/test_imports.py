"""Every name a module imports is used in that module, and every name the
package exports has a caller.

No linter ships with the project, so this reads each module's syntax
tree with the standard library: a name bound by an import statement
must appear as a name somewhere in the module.  It covers the package,
the tests and the demos.  The package's __init__.py imports names to
re-export them and is exempt, and so is `from __future__`;
tests/test_acceptance.py holds the acceptance criteria, which are never
edited, and is exempt too.

The export audit reads the same trees.  A name src/tdesim/__init__.py
imports passes if one of the callers (the command line, the demos, the
benchmark and the acceptance criteria) takes it from the package, or if
REASONS says why it stays public.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "tdesim")
EXEMPT = {os.path.join(PACKAGE, "__init__.py"),
          os.path.join("tests", "test_acceptance.py")}
MODULES = sorted(
    path for path in (os.path.join(folder, name)
                      for folder in (PACKAGE, "tests", "demos")
                      for name in os.listdir(os.path.join(ROOT, folder))
                      if name.endswith(".py"))
    if path not in EXEMPT)


def _module_id(path: str) -> str:
    """A package module by its file name, any other by its path."""
    if os.path.dirname(path) == PACKAGE:
        return os.path.basename(path)
    return path.replace(os.sep, "/")


def unused_imports(source: str) -> list:
    """The names source imports and never uses, in import order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a; `import a.b as c` binds c
                bound.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, os.path as p\nimport numpy.linalg\n"
              "from math import pi, tau\nprint(pi, numpy)\n")
    assert unused_imports(source) == ["os", "p", "tau"]


def test_tests_and_demos_are_covered():
    assert {os.path.dirname(m) for m in MODULES} == {PACKAGE, "tests",
                                                     "demos"}


@pytest.mark.parametrize("module", MODULES, ids=_module_id)
def test_module_uses_every_import(module):
    with open(os.path.join(ROOT, module)) as f:
        assert unused_imports(f.read()) == []


CALLERS = sorted(
    [os.path.join(PACKAGE, "cli.py"),
     os.path.join("tests", "test_acceptance.py")]
    + [os.path.join(folder, name) for folder in ("demos", "benchmarks")
       for name in os.listdir(os.path.join(ROOT, folder))
       if name.endswith(".py")])

_RAISED = "raised to callers"
_TYPE = "the argument or return type of a function a caller uses"
REASONS = {
    **dict.fromkeys(("CycleMisalignmentError", "InvariantViolationError",
                     "OverlappingSlotError", "RegisterSizeError",
                     "UnknownSlotError", "ZeroProbabilityError"), _RAISED),
    **dict.fromkeys(("PureState", "CurvePoint", "CircuitReport",
                     "EntropyStudyReport", "NoSignalReport",
                     "ProprietyReport", "ReverseReport", "ExecutionReport",
                     "CircuitProgram"),
                    _TYPE),
    "MAX_STATE_BYTES": "the stated size limit",
    "dilation_from_round_trip": "the abstract's round trip, kept by the "
                                "ROADMAP",
    "run_displaced_backend": "the displaced box of the causal argument, "
                             "which the README documents",
}


def exported_names(source: str) -> list:
    """The names a package's __init__ source imports from its modules."""
    return [alias.asname or alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def package_uses(source: str, in_package: bool) -> set:
    """The names source takes from tdesim: `from tdesim import X` and
    `tdesim.X`, and in a module of the package `from .module import X`.
    Strings and comments never count."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                (node.module == "tdesim" and node.level == 0)
                or (in_package and node.level == 1)):
            used.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "tdesim"):
            used.add(node.attr)
    return used


def _audit() -> tuple:
    with open(os.path.join(ROOT, PACKAGE, "__init__.py")) as f:
        exported = exported_names(f.read())
    used = set()
    for caller in CALLERS:
        with open(os.path.join(ROOT, caller)) as f:
            used |= package_uses(f.read(), caller.startswith(PACKAGE))
    return exported, used


def test_package_uses_are_read_from_the_syntax_tree():
    source = ("import tdesim\nimport tdesim.cli\n"
              "from tdesim import a, b as c\nfrom .registers import d\n"
              "tdesim.e(tdesim.cli.main, 'tdesim.f', x.tdesim)\n"
              "text = 'cnot 1 2 @0'  # tdesim.g\n")
    assert package_uses(source, in_package=False) == {"a", "b", "cli", "e"}
    assert package_uses(source, in_package=True) == {"a", "b", "cli", "d",
                                                     "e"}
    assert exported_names("from .m import a, b as c\nfrom x import d\n"
                          "from . import cli\n") == ["a", "c", "cli"]


def test_callers_are_covered():
    assert {os.path.dirname(c) for c in CALLERS} == {PACKAGE, "tests",
                                                     "demos", "benchmarks"}
    assert os.path.join("benchmarks", "workloads.py") in CALLERS


def test_every_export_has_a_caller_or_a_reason():
    exported, used = _audit()
    assert [name for name in exported
            if name not in used and name not in REASONS] == []


def test_no_reason_is_stale():
    # a listed name that a caller now uses, or that is no longer exported
    exported, used = _audit()
    assert [name for name in REASONS
            if name in used or name not in exported] == []
