"""Every name a module imports is used in that module.

No linter ships with the project, so this reads each module's syntax
tree with the standard library: a name bound by an import statement
must appear as a name somewhere in the module.  It covers the package,
the tests and the demos.  The package's __init__.py imports names to
re-export them and is exempt, and so is `from __future__`;
tests/test_acceptance.py holds the acceptance criteria, which are never
edited, and is exempt too.
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
