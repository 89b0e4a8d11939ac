"""The benchmark's contract with the program, in-process: every op of
every workload that BENCHMARK.json declares runs through
bench/worker.run_op against the reference data of its own check, and
must come out ok.

A change that drops a name the checks import (laurent.convergent, say)
or alters a verify `checked` count fails here, in the main suite, not
only when the benchmark runs.  The ops write only into a temporary
scratch directory, never under bench/.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from pascalhankel import cli

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_ops_pass_their_checks(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    worker = importlib.import_module("worker")
    wl = workloads.WORKLOADS[name](0)
    for file_name, text in wl.inputs.items():
        (tmp_path / file_name).write_text(text)
    # the load generator hands the reference data to the worker as JSON
    refs = json.loads(json.dumps([op.expect.prepare() for op in wl.ops]))
    for op, ref in zip(wl.ops, refs):
        result = worker.run_op(cli, op, ref, str(tmp_path), None)
        allowed = {"ok", "known-defect"} if op.known_defect else {"ok"}
        assert result["status"] in allowed, (result["argv"], result["error"])
