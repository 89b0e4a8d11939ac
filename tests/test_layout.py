"""Layout guards over the source tree."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "pascalhankel").glob("*.py"))
# the bench checks call into the program (laurent.convergent,
# series_of_fraction); bench/tracing.py only names functions to time them
CALLERS = SOURCES + [ROOT / "bench" / "workloads.py"]


def defined_names(path):
    """Top-level functions, classes and constants of a module, and the
    methods of its top-level classes; the caller drops dunders and `main`."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, defs):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (m.name for m in node.body if isinstance(m, defs))
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            yield from (t.id for t in ast.walk(target)
                        if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store))


def test_every_defined_name_is_used():
    # a use is a name read or an attribute node of the syntax tree, so a name
    # left only in a comment, a docstring, a string or its own assignment
    # counts as unused
    used = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = sorted(f"{path.stem}.{name}" for path in SOURCES
                  for name in defined_names(path)
                  if not (name.startswith("__") and name.endswith("__")) and name != "main"
                  and name not in used)
    assert dead == []
