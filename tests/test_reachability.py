"""Every top-level function and class of the package has a caller.

A name counts as reached when some module of src/howe5 (the package's
__init__ re-exports, which is not a use) or of perfbench/ names it outside
its own definition: as a name, an attribute, or a string equal to it, as
the benchmark's tracer names what it wraps; or when it is the console entry
point in pyproject.toml.  A name that only tests reach is code no caller
needs: delete it, or move it next to the tests.  ALLOWED lists the
exceptions, each with its reason.

The package namespace is held to the same rule: every name that
src/howe5/__init__.py binds is read off the package (``howe5.<name>`` or
``from howe5 import <name>``) by src/howe5, perfbench/ or the entry point.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "howe5").glob("*.py") if p.name != "__init__.py")
CALLERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED = {
    "orbit_key": "the census of ROADMAP item 1 normalises hits by it; tests pin its invariance",
}


def _definitions() -> dict:
    """name -> (path, first line, last line) of each top-level def and class."""
    out = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out[node.name] = (path, node.lineno, node.end_lineno)
    return out


def _reached(defs: dict) -> set:
    reached = set(re.findall(r"=\s*\"howe5\.\w+:(\w+)\"", (ROOT / "pyproject.toml").read_text()))
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name in defs:
                home, first, last = defs[name]
                if path != home or not first <= node.lineno <= last:
                    reached.add(name)
    return reached


def test_every_top_level_name_has_a_caller():
    defs = _definitions()
    assert "entry" in defs and "run_search" in defs  # the walk found the package
    unreached = set(defs) - _reached(defs)
    assert unreached == set(ALLOWED), sorted(unreached ^ set(ALLOWED))


def _package_bindings() -> set:
    """Names src/howe5/__init__.py binds at top level; the docstring binds none."""
    out = set()
    for node in ast.parse((ROOT / "src" / "howe5" / "__init__.py").read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def _package_reads() -> set:
    reads = set(re.findall(r"=\s*\"howe5:(\w+)\"", (ROOT / "pyproject.toml").read_text()))
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module, node.level) in (
                    ("howe5", 0), (None, 1)):  # from howe5 import x; in the package, from . import x
                reads.update(a.name for a in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "howe5"):
                reads.add(node.attr)
    return reads


def test_every_package_level_name_is_read():
    bound = _package_bindings()
    assert "__version__" in bound  # the walk found the package
    unread = bound - _package_reads()
    assert not unread, sorted(unread)
