"""Every name that a coinv module imports is used in that module.

No linter runs on this repository, and every import is start-up cost (see
README, "Start-up"), so an import that a change leaves behind is caught here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "coinv"


def unused_imports(source):
    """The names bound by the import statements of `source` that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    source = "import os.path\nfrom functools import lru_cache\nfrom . import basis as b\nb.x(os.sep)\n"
    assert unused_imports(source) == ["lru_cache"]
