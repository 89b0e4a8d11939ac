"""Layout guards over the source tree."""

from __future__ import annotations

import ast
import re
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
    text = "\n".join(path.read_text() for path in CALLERS)
    dead = sorted(f"{path.stem}.{name}" for path in SOURCES
                  for name in defined_names(path)
                  if not (name.startswith("__") and name.endswith("__")) and name != "main"
                  and len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2)
    assert dead == []
