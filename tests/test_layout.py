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
    """Top-level functions and classes of a module, and the methods of its
    top-level classes, without dunders and the `main` entry point."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, defs):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (m.name for m in node.body if isinstance(m, defs))


def test_every_defined_name_is_used():
    # a use is a name or attribute node of the syntax tree, so a name left
    # only in a comment, a docstring or a string counts as unused
    used = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = sorted(f"{path.stem}.{name}" for path in SOURCES
                  for name in defined_names(path)
                  if not (name.startswith("__") and name.endswith("__")) and name != "main"
                  and name not in used)
    assert dead == []
