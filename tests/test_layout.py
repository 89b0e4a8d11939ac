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
    """(name, is_method) for the top-level functions, classes and constants
    of a module and the methods of its top-level classes; the caller drops
    dunders and `main`."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, defs):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, True) for m in node.body if isinstance(m, defs))
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            yield from ((t.id, False) for t in ast.walk(target)
                        if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store))


def test_every_defined_name_is_used():
    # a use is a read in the syntax tree, so a name left only in a comment, a
    # docstring, a string or its own assignment counts as unused.  A module-level
    # name of module m is used when m reads it bare, a caller reads it as m.name
    # or a caller imports it with `from ... import`, so an unrelated name of
    # another module does not keep it; a method, whose receiver has no static
    # type, is used when any attribute bears its name
    used, attributes = set(), set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((path.stem, node.id))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom):
                module = (node.module or "").rpartition(".")[2]
                used.update((module, alias.name) for alias in node.names)
    dead = sorted(f"{path.stem}.{name}" for path in SOURCES
                  for name, method in defined_names(path)
                  if not (name.startswith("__") and name.endswith("__")) and name != "main"
                  and not (name in attributes if method else (path.stem, name) in used))
    assert dead == []
