"""Every name a package module imports is used in that module.

No linter ships with the project, so this reads each module's syntax
tree with the standard library: a name bound by an import statement
must appear as a name somewhere in the module.  __init__.py imports
names to re-export them and is exempt, and so is `from __future__`.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "tdesim")
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")


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


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    with open(os.path.join(PACKAGE, module)) as f:
        assert unused_imports(f.read()) == []
