"""Every library module uses each name it imports."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cosafe"


def unused_imports(source):
    """The names a module binds by import and never reads, sorted.  The
    package's __init__ imports only to re-export, so it is not checked."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    assert unused_imports("import os.path\nfrom .a import b, c as d\n"
                          "print(d)\n") == ["b", "os"]
    assert unused_imports("import sys as _s\n_s.exit()\n") == []


def test_library_modules_use_every_import():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
