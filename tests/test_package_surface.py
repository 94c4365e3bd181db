"""Every top-level name in src/nonloose is package surface or is used there.

A code path the package replaces moves to tests/oracles.py as a reference
and leaves src/; a top-level name that nothing in the package reads is such
a path left behind.  A name passes when nonloose/__init__.py imports it,
when the package reads it anywhere outside its own definition (in its own
module, in a module that imports it from there, or as module.name), or when
it is the renderer render.classification_<fmt> of a format in cli.FORMATS,
which the CLI looks up by format name.

farey._primitive builds a Slope with no gcd, so each of its callers must
prove its pair primitive; a caller outside the reviewed set fails until
its proof is reviewed and the set extended.
"""

import ast
from pathlib import Path

import pytest

import nonloose
from nonloose import unknots
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


# (module, function) of each reviewed caller of farey._primitive; each
# gives, in a comment at the call, why its pair is primitive
PRIMITIVE_CALLERS = {
    ("cfrac", "_minimal_vertices"),
    ("cfrac", "successor"),
    ("cfrac", "ancestor"),
    ("cfrac", "value"),
    ("farey", "farey_sum"),
    ("farey", "iterated_sum"),
    ("unknots", "_level_below"),
}


def _primitive_users(modules: dict, name: str = "_primitive") -> set:
    # (module, innermost enclosing function or "<module>") for each read of
    # name, called or not, by name or as an attribute
    users = set()

    def visit(mod, node, scope):
        for child in ast.iter_child_nodes(node):
            read = isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load)
            if read or (isinstance(child, ast.Attribute) and child.attr == name):
                users.add((mod, scope))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            visit(mod, child, inner)

    for mod, tree in modules.items():
        visit(mod, tree, "<module>")
    return users


def test_primitive_slopes_are_built_only_at_reviewed_callers():
    package = Path(nonloose.__file__).parent
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert _primitive_users(modules) == PRIMITIVE_CALLERS


def test_the_primitive_scan_finds_every_kind_of_use():
    modules = {
        "a": ast.parse(
            "from .farey import _primitive\n"
            "class C:\n"
            "    def parse(self): return _primitive(4, -6)\n"
            "build = _primitive\n"
            "def outer():\n"
            "    def inner(): return farey._primitive(1, 1)\n"
            "    return inner\n"
            "def _primitive(num, den): return num, den\n"
        ),
    }
    assert _primitive_users(modules) == {("a", "parse"), ("a", "<module>"), ("a", "inner")}


# (module, function) of each reviewed caller of each record builder in
# unknots.  A builder skips the dataclass __init__ as _primitive skips the
# gcd, so a caller outside the reviewed set fails until it is reviewed, and
# no type a builder builds may have a __post_init__ that would be skipped
BUILDER_CALLERS = {
    "_shuffle_class": {("unknots", "_level_classes")},
    "_nonloose_class": {("unknots", "_level_classes")},
    "_range_member": {("unknots", "_assemble_range")},
}


def test_class_records_are_built_only_at_reviewed_callers():
    package = Path(nonloose.__file__).parent
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    for name, callers in BUILDER_CALLERS.items():
        assert _primitive_users(modules, name) == callers, name


@pytest.mark.parametrize("name", sorted(BUILDER_CALLERS))
def test_the_builder_scan_finds_every_kind_of_use(name):
    modules = {
        "a": ast.parse(
            f"from .unknots import {name}\n"
            "class C:\n"
            f"    def parse(self): return {name}(4, -6)\n"
            f"build = {name}\n"
            "def outer():\n"
            f"    def inner(): return unknots.{name}(1, 1)\n"
            "    return inner\n"
            f"def {name}(num, den): return num, den\n"
        ),
    }
    assert _primitive_users(modules, name) == {("a", "parse"), ("a", "<module>"), ("a", "inner")}
    assert _primitive_users(modules) == set()


def test_no_type_a_builder_builds_has_a_post_init():
    # the types each builder passes to object.__new__, read from its source
    tree = ast.parse(Path(unknots.__file__).read_text())
    built = {
        node.args[0].id
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name in BUILDER_CALLERS
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_new"
    }
    assert built == {"ShuffleClass", "NonLooseClass", "RangeMember"}
    for name in built:
        assert not hasattr(getattr(unknots, name), "__post_init__"), name


# (module, function) of each reviewed reader of cfrac._minimal_blocks: the
# expansion that builds a path's vertices, and the one reader of a
# context's blocks that builds none
BLOCK_WALK_READERS = {
    ("cfrac", "_minimal_vertices"),
    ("decorated", "_context_sizes"),
}


def test_the_block_walk_is_read_only_at_reviewed_readers():
    package = Path(nonloose.__file__).parent
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert _primitive_users(modules, "_minimal_blocks") == BLOCK_WALK_READERS


# (module, function) of each reader of cfrac._block_lengths, which scans a
# path's vertex triples: the paths that come from outside the engine.  Every
# path the engine builds takes its blocks from the block walk
BLOCK_SCAN_READERS = {
    ("cfrac", "block_structure"),
    ("decorated", "_minus_counts"),
}


def test_vertex_triples_are_scanned_only_for_outside_paths():
    package = Path(nonloose.__file__).parent
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert _primitive_users(modules, "_block_lengths") == BLOCK_SCAN_READERS


# (module, function) of each reviewed caller of each trusted build in cfrac:
# _trusted_path builds a FareyPath, and _set_coeffs fills a ContinuedFraction,
# with no __post_init__, so each caller must prove its value valid in a
# comment at the call; _set_vertices is read by _trusted_path alone.  Every
# path and expansion from outside keeps its check
TRUSTED_PATH_CALLERS = {
    "_trusted_path": {
        ("cfrac", "minimal_path"),
        ("decorated", "shorten_once"),
        ("decorated", "shorten_to_minimal"),
    },
    "_set_vertices": {("cfrac", "_trusted_path")},
    "_set_coeffs": {("cfrac", "expand")},
}


def test_engine_paths_skip_their_check_only_at_reviewed_callers():
    package = Path(nonloose.__file__).parent
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    for name, callers in TRUSTED_PATH_CALLERS.items():
        assert _primitive_users(modules, name) == callers, name


@pytest.mark.parametrize("name", sorted(TRUSTED_PATH_CALLERS))
def test_the_trusted_build_scan_finds_every_kind_of_use(name):
    modules = {
        "a": ast.parse(
            f"from .cfrac import {name}\n"
            "class C:\n"
            f"    def parse(self): return {name}(())\n"
            f"build = {name}\n"
            "def outer():\n"
            f"    def inner(): return cfrac.{name}(())\n"
            "    return inner\n"
            f"def {name}(vertices): return vertices\n"
        ),
    }
    assert _primitive_users(modules, name) == {("a", "parse"), ("a", "<module>"), ("a", "inner")}
    assert _primitive_users(modules) == set()


# (module, function) of each reviewed caller of unknots._fraction, which
# builds a Fraction with one gcd and no Fraction.__new__, so its sign is
# right only for a positive denominator; each caller proves its
# denominator positive in a comment at the call
FRACTION_BUILDER_CALLERS = {("unknots", "_level_classes")}


def test_fractions_skip_their_constructor_only_at_reviewed_callers():
    package = Path(nonloose.__file__).parent
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert _primitive_users(modules, "_fraction") == FRACTION_BUILDER_CALLERS


def test_the_fraction_builder_scan_finds_every_kind_of_use():
    modules = {
        "a": ast.parse(
            "from .unknots import _fraction\n"
            "class C:\n"
            "    def parse(self): return _fraction(4, 6)\n"
            "build = _fraction\n"
            "def outer():\n"
            "    def inner(): return unknots._fraction(1, 1)\n"
            "    return inner\n"
            "def _fraction(num, den): return num, den\n"
        ),
    }
    assert _primitive_users(modules, "_fraction") == {("a", "parse"), ("a", "<module>"), ("a", "inner")}
    assert _primitive_users(modules) == set()


# the unknots functions that run once per class or per range: on Python 3.11
# every read of an enum class's member (Sign.PLUS, RangeKind.V) runs the slot
# hook of EnumType.__getattr__ and .value is a Python property, and cProfile
# shows neither, so these functions read no attribute of Sign or RangeKind
# and no attribute named value
ENUM_FREE_FUNCTIONS = {"_stabilized_counts", "_stabilization_graph", "_arm_ranges", "_assemble_range"}


def _enum_reads(modules: dict, functions: set = ENUM_FREE_FUNCTIONS) -> set:
    # (module, top-level function, attribute text) for each read, anywhere in
    # one of the functions, of an attribute of Sign or RangeKind (bare or
    # dotted) or of any attribute named value
    reads = set()
    for mod, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name in functions:
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Attribute):
                        continue
                    owner = node.value
                    named = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
                    if node.attr == "value" or named in ("Sign", "RangeKind"):
                        reads.add((mod, stmt.name, ast.unparse(node)))
    return reads


def test_per_class_and_per_range_code_reads_no_enum_class_attribute():
    modules = {"unknots": ast.parse(Path(unknots.__file__).read_text())}
    defined = {stmt.name for stmt in modules["unknots"].body if isinstance(stmt, ast.FunctionDef)}
    assert ENUM_FREE_FUNCTIONS <= defined
    assert _enum_reads(modules) == set()


def test_the_enum_read_scan_finds_every_kind_of_read():
    modules = {
        "a": ast.parse(
            "def _stabilized_counts(counts, sign):\n"
            "    return 1 if sign is Sign.MINUS else 0\n"
            "def _assemble_range(arms):\n"
            "    def inner(): return decorated.Sign.PLUS\n"
            "    return RangeKind.V if all(arms.values()) else inner()\n"
            "def _arm_ranges(mr):\n"
            "    return mr.kind.value, mr.kind._value_, str(mr.kind)\n"
            "def _stabilization_graph(signs):\n"
            "    return {sign: {} for sign, _ in signs}, signs.value\n"
            "def render(mr): return mr.kind.value, Sign.PLUS, RangeKind.V\n"
            "X = Sign.MINUS\n"
        ),
    }
    assert _enum_reads(modules) == {
        ("a", "_stabilized_counts", "Sign.MINUS"),
        ("a", "_assemble_range", "decorated.Sign.PLUS"),
        ("a", "_assemble_range", "RangeKind.V"),
        ("a", "_arm_ranges", "mr.kind.value"),
        ("a", "_stabilization_graph", "signs.value"),
    }
    assert _enum_reads(modules, {"render"}) == {("a", "render", t) for t in ("mr.kind.value", "Sign.PLUS", "RangeKind.V")}
