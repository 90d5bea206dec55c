"""Every name a package module imports at module level is used in it.

No linter is a dependency of the project, so this reads each module with
``ast``.  ``__init__.py`` is left out: its imports are the public API.
"""

import ast
from pathlib import Path

import pytest

import varietylab

MODULES = sorted(
    p for p in Path(varietylab.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """The names bound by module-level imports of source that no name in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_package_modules_are_found():
    assert {"terms.py", "varieties.py", "verify.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_an_unused_import_is_reported():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from . import models as m\n"
        "from .terms import Word, parse_word\n"
        "def f(w: Word):\n"
        "    return m.x(os.path)\n"
    )
    assert unused_imports(source) == ["parse_word"]
