"""Layering guard: only ``gf2ring`` knows how a ring context stores its
values.  ``charclass`` and ``search`` ask the context's primitives; they
read none of its layout (which kernel it uses, slot widths, the packed
counters, the per-slot copies) and neither of the constants that size it.
Import guard: no module of the package imports a name it never uses.
Re-export guard: each name a module imports only to pass on is read
through that module by another module of the package or by the
benchmark; a test is no reader.
Tower guard: ``odometer`` labels cosets through the adjugate, so it calls
no Smith-form routine and, keeping no cache, imports no ``threading``.
Stack guard: a public ring context holds one matrix, and only the
search's block re-check stacks matrices, so the block stack builder has
one caller and the packing of stacks stays inside ``gf2ring``.
"""

import ast
from pathlib import Path

import pytest

import bottforge

LAYOUT_ATTRIBUTES = {"_dense", "_width", "_repeat", "_free", "entries"}
LAYOUT_CONSTANTS = {"DENSE_DIM_LIMIT", "RECHECK_STACK"}


def layout_reads(source: str) -> list[str]:
    """Each read of the ring context's layout in ``source``, as
    ``line: name``: an attribute named in LAYOUT_ATTRIBUTES or
    LAYOUT_CONSTANTS, and a name or an import of LAYOUT_CONSTANTS.  A
    local variable called ``entries`` is not a read of the layout."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
            bad = name in LAYOUT_ATTRIBUTES | LAYOUT_CONSTANTS
        elif isinstance(node, ast.Name):
            name = node.id
            bad = name in LAYOUT_CONSTANTS
        elif isinstance(node, ast.alias):
            name = node.name
            bad = name in LAYOUT_CONSTANTS
        else:
            continue
        if bad:
            found.append(f"{getattr(node, 'lineno', '?')}: {name}")
    return found


@pytest.mark.parametrize("module", ["charclass.py", "search.py"])
def test_module_reads_no_ring_layout(module):
    source = (Path(bottforge.__file__).parent / module).read_text()
    assert layout_reads(source) == []


def test_charclass_tests_no_kernel_value_type():
    """The kernel of a value is gf2ring's business: charclass calls no
    ``type``, names no ``frozenset`` and tests only its inputs, which
    must be matrices, with ``isinstance``."""
    tree = ast.parse(
        (Path(bottforge.__file__).parent / "charclass.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not names & {"type", "frozenset"}
    tested = {ast.unparse(node.args[1]) for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and ast.unparse(node.func) == "isinstance"}
    assert tested == {"BottMatrix"}


def test_guard_sees_each_kind_of_read():
    """The guard is not vacuous: it flags an attribute, a constant read by
    name or by attribute, and an import, and lets a local ``entries``
    pass."""
    source = "\n".join([
        "from .gf2ring import RECHECK_STACK",
        "from . import gf2ring as g",
        "def f(ctx, entries):",
        "    a = ctx._dense, ctx._width, ctx._repeat(1), ctx._free",
        "    b = ctx.entries, g.DENSE_DIM_LIMIT",
        "    return entries, DENSE_DIM_LIMIT",
    ])
    assert sorted(name.split(": ")[1] for name in layout_reads(source)) == \
        sorted(["RECHECK_STACK", "_dense", "_width", "_repeat", "_free",
                "entries", "DENSE_DIM_LIMIT", "DENSE_DIM_LIMIT"])


REEXPORT = "# noqa: F401"


def unused_imports(source: str) -> list[str]:
    """Each name that ``source`` imports and never reads, as ``line: name``.
    ``import a.b`` binds ``a``; ``from __future__`` imports are compiler
    directives, and a statement whose first line carries REEXPORT is a
    documented re-export, read by other modules."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (getattr(node, "module", None) == "__future__"
                or REEXPORT in lines[node.lineno - 1]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                found.append(f"{node.lineno}: {name}")
    return found


PACKAGE = Path(bottforge.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_what_it_uses(module):
    source = (PACKAGE / module).read_text()
    assert unused_imports(source) == []


def test_import_guard_sees_each_kind_of_import():
    """The guard is not vacuous: it flags a plain, a dotted, an aliased and
    a from-import left unread, also inside a function, and passes names
    read as a call, an attribute base or a default, the future import and
    a marked re-export."""
    source = "\n".join([
        "from __future__ import annotations",
        "import os, sys",
        "import os.path",
        "import json as js",
        "from math import prod, gcd as g",
        "from .abelian import _snf_full  " + REEXPORT,
        "def f(x=sys.maxsize):",
        "    from itertools import chain",
        "    return prod(x), g(x, 2)",
    ])
    assert unused_imports(source) == [
        "2: os", "3: os", "4: js", "8: chain"]


def reexports(source: str) -> list[str]:
    """The names bound by each import of ``source`` whose first line
    carries REEXPORT."""
    lines = source.splitlines()
    return [alias.asname or alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and REEXPORT in lines[node.lineno - 1]
            for alias in node.names]


def reads_through(source: str, module: str) -> set[str]:
    """The names that ``source`` reads off the package module ``module``:
    each name of a relative or absolute from-import of it, and each
    attribute of a name that a from-import of the package binds to it."""
    tree = ast.parse(source)
    names, bound = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        home = (node.module, node.level)
        if home in ((module, 1), (f"bottforge.{module}", 0)):
            names |= {alias.name for alias in node.names}
        elif home in ((None, 1), ("bottforge", 0)):
            bound |= {alias.asname or alias.name for alias in node.names
                      if alias.name == module}
    return names | {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in bound}


# the benchmark lives beside the tests and reads the package from outside
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("module", MODULES)
def test_reexports_have_a_reader(module):
    assert PERFBENCH.is_dir()
    readers = [path for path in [*PACKAGE.glob("*.py"),
                                 *PERFBENCH.glob("*.py")]
               if path != PACKAGE / module
               and not path.name.startswith("test_")]
    read = set().union(*(reads_through(path.read_text(), module[:-3])
                         for path in readers))
    source = (PACKAGE / module).read_text()
    assert sorted(set(reexports(source)) - read) == []


def test_reexport_guard_sees_each_kind_of_read():
    """The guard is not vacuous: a relative or an absolute from-import of
    the module reads a name through it, and so does an attribute of the
    module bound by a from-import of the package, aliased or not; a read
    through another module, an attribute of an unbound name and a name
    imported without REEXPORT do not count."""
    reader = "\n".join([
        "from .search import a",
        "from bottforge.search import b",
        "from . import search",
        "from bottforge import search as s",
        "from .charclass import e",
        "x = search.c, s.d, charclass.f",
    ])
    assert reads_through(reader, "search") == {"a", "b", "c", "d"}
    assert reexports("\n".join([
        "from .gf2ring import a, b as c  " + REEXPORT,
        "from .gf2ring import d",
    ])) == ["a", "c"]


SMITH_CALLS = {"FgAbGroup", "smith_normal_form", "kernel_columns",
               "_snf_full"}


def smith_machinery(source: str) -> list[str]:
    """Each call in ``source`` of a routine in SMITH_CALLS, by name or as
    an attribute, and each import of ``threading``, as ``line: name``.
    Importing a Smith-form routine without calling it, as a re-export
    does, is no use."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            bad = name in SMITH_CALLS
        elif isinstance(node, ast.Import):
            name = "threading"
            bad = any(alias.name.split(".")[0] == name
                      for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            name = "threading"
            bad = (node.module or "").split(".")[0] == name
        else:
            continue
        if bad:
            found.append(f"{node.lineno}: {name}")
    return found


def test_odometer_builds_no_smith_form():
    assert smith_machinery((PACKAGE / "odometer.py").read_text()) == []


def test_tower_guard_sees_each_kind_of_use():
    """The guard is not vacuous: it flags each routine called by name or
    as an attribute and each form of ``threading`` import, and passes a
    marked re-export, a module import and a call of another routine."""
    source = "\n".join([
        "import threading",
        "import os, threading.local as tl",
        "from threading import Lock",
        "from .abelian import _snf_full  " + REEXPORT,
        "from . import abelian",
        "def f(m):",
        "    a = FgAbGroup(m), abelian.smith_normal_form(m)",
        "    b = kernel_columns(m), abelian._snf_full(m)",
        "    return m.charpoly_adjugate()",
    ])
    assert sorted(smith_machinery(source)) == [
        "1: threading", "2: threading", "3: threading", "7: FgAbGroup",
        "7: smith_normal_form", "8: _snf_full", "8: kernel_columns"]


# each builder of a stacked context: the module that may call it, and the
# function of that module that may, None for any
STACK_BUILDERS = {
    "_top_left_blocks": ("charclass", "criteria_by_blocks"),
    "_load": ("gf2ring", None),
    "_pack_words": ("gf2ring", None),
}


def stack_builds(source: str, module: str) -> list[str]:
    """Each call in ``source``, the source of the package module
    ``module``, of a routine in STACK_BUILDERS, by name or as an
    attribute, from outside the module or function allowed to call it, as
    ``line: name``; a call belongs to its innermost enclosing function."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                name = child.func.attr if isinstance(
                    child.func, ast.Attribute) else getattr(
                        child.func, "id", None)
                if name in STACK_BUILDERS:
                    home, caller = STACK_BUILDERS[name]
                    if module != home or caller not in (None, func):
                        found.append(f"{child.lineno}: {name}")
            visit(child, func)
    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_only_the_block_recheck_stacks_matrices(module):
    source = (PACKAGE / module).read_text()
    assert stack_builds(source, module[:-3]) == []
    # from no module at all, every call is flagged: the builders that the
    # module calls, which the guard would miss under other names
    called = {found.split(": ")[1] for found in stack_builds(source, "")}
    assert called == {"charclass.py": {"_top_left_blocks"},
                      "gf2ring.py": {"_load", "_pack_words"}}.get(
                          module, set())


def test_stack_guard_sees_each_kind_of_call():
    """The guard is not vacuous: it flags each builder called by name or
    as an attribute outside its module, the block builder called from
    another function of charclass or from a function nested in the
    re-check, and passes the calls where they belong."""
    source = "\n".join([
        "def criteria_by_blocks(d, cs):",
        "    ctx = RingContext._top_left_blocks(d, cs)",
        "    def inner():",
        "        return _top_left_blocks(d, cs)",
        "    return ctx._load(d, cs, d), _pack_words(cs, 1, 3)",
        "def counterexample_criterion(m):",
        "    return RingContext._top_left_blocks(m.dim, [0])",
        "x = _load(1, [0], 1)",
    ])
    assert stack_builds(source, "charclass") == [
        "4: _top_left_blocks", "5: _load", "5: _pack_words",
        "7: _top_left_blocks", "8: _load"]
    assert stack_builds(source, "gf2ring") == [
        "2: _top_left_blocks", "4: _top_left_blocks", "7: _top_left_blocks"]
    assert stack_builds(source, "search") == [
        "2: _top_left_blocks", "4: _top_left_blocks", "5: _load",
        "5: _pack_words", "7: _top_left_blocks", "8: _load"]
