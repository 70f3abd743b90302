"""Every top-level function and class of the package has a caller.

A name counts as reached when some module of src/howe5 (the package's
__init__ re-exports, which is not a use) or of perfbench/ names it outside
its own definition: as a name, an attribute, or a string equal to it, as
the benchmark's tracer names what it wraps; or when it is the console entry
point in pyproject.toml.  A name that only tests reach is code no caller
needs: delete it, or move it next to the tests.  ALLOWED lists the
exceptions, each with its reason.
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
