"""Every top-level name in src/nonloose is package surface or is used there.

A code path the package replaces moves to tests/oracles.py as a reference
and leaves src/; a top-level name that nothing in the package reads is such
a path left behind.  A name passes when nonloose/__init__.py imports it,
when the package reads it anywhere outside its own definition (in its own
module, in a module that imports it from there, or as module.name), or when
it is the renderer render.classification_<fmt> of a format in cli.FORMATS,
which the CLI looks up by format name.
"""

import ast
from pathlib import Path

import nonloose
from nonloose.cli import FORMATS


def _defined(tree):
    # (name, statement) for each top-level function, class and assigned name
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for node in (n for t in targets for n in ast.walk(t)):
                if isinstance(node, ast.Name):
                    yield node.id, stmt


def _loads(stmts):
    # names read as variables in the statements
    return {n.id for s in stmts for n in ast.walk(s) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _unused(modules: dict) -> list[str]:
    # module.name for each top-level name of a module other than __init__
    # that passes none of the rules in the module docstring
    importers, attributes = {}, set()
    for mod, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    importers.setdefault((node.module, alias.name), set()).add(mod)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                attributes.add((node.value.id, node.attr))
    renderers = {("render", f"classification_{fmt}") for fmt in FORMATS}
    unused = []
    for mod, tree in modules.items():
        if mod == "__init__":
            continue
        for name, stmt in _defined(tree):
            users = importers.get((mod, name), set())
            if "__init__" in users or (mod, name) in attributes or (mod, name) in renderers:
                continue
            if name in _loads(s for s in tree.body if s is not stmt):
                continue
            if not any(name in _loads(modules[user].body) for user in users):
                unused.append(f"{mod}.{name}")
    return unused


def test_every_top_level_name_in_the_package_is_surface_or_used():
    package = Path(nonloose.__file__).parent
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert len(modules) >= 9
    assert _unused(modules) == []


def test_the_surface_scan_applies_each_rule():
    modules = {
        "__init__": ast.parse("from .a import shown"),
        "a": ast.parse(
            "def shown(): pass\n"
            "def recursive(): return recursive()\n"
            "def local(): pass\n"
            "X = local()\n"
            "def imported(): pass\n"
            "def imported_unread(): pass\n"
            "def dotted(): pass\n"
        ),
        "b": ast.parse("from . import a\nfrom .a import imported, imported_unread\nY = imported() + a.dotted()"),
        "render": ast.parse("def classification_table(): pass\ndef classification_tex(): pass"),
    }
    assert _unused(modules) == ["a.recursive", "a.X", "a.imported_unread", "b.Y", "render.classification_tex"]
