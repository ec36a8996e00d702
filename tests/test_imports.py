"""Every name that a coinv module imports is used in that module, and every
module-level private name is read somewhere in the package.

No linter runs on this repository, and every import is start-up cost (see
README, "Start-up"), so an import that a change leaves behind is caught here,
as is a private helper or constant whose last reader a change removed.
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


def defined_names(statement):
    """The names that a module-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}
    return set()


def dead_private_names(sources):
    """The module-level private names defined in `sources`, a map from module
    name to source text, that no statement but their own definition reads.

    A read is a bare name or an attribute (`basis._height_series`), so a
    helper that another module reaches through its module counts as read;
    a recursive helper that only calls itself does not.
    """
    defined = {}  # private name -> the modules that define it
    read = set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            own = {name for name in defined_names(statement) if name.startswith("_") and not name.startswith("__")}
            for name in own:
                defined.setdefault(name, []).append(module)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    read.add(name)
    return sorted("%s.%s" % (module, name) for name, modules in defined.items() if name not in read
                  for module in modules)


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_a_dead_private_name_is_caught():
    sources = {
        "a": "_LIMIT = 3\n_used = 1\ndef _loop(n):\n    return _loop(n - 1)\ndef f():\n    return _used\n",
        "b": "from . import a\ndef _helper():\n    return a._LIMIT\n",
    }
    assert dead_private_names(sources) == ["a._loop", "b._helper"]
