"""The benchmark's contract with the program, in-process: every op of
every workload that BENCHMARK.json declares runs through
bench/worker.run_op against the reference data of its own check, and
must come out ok.

A change that drops a name the checks import (laurent.convergent, say),
alters a verify `checked` count or breaks the traced pass fails here,
in the main suite, not only when the benchmark runs.  The ops write
only into a temporary scratch directory, never under bench/.
"""

from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path

import pytest

import pascalhankel
from pascalhankel import cli

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(monkeypatch):
    """The bench modules that the worker process imports."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return (importlib.import_module("workloads"), importlib.import_module("worker"),
            importlib.import_module("tracing"))


def _workload(workloads, name, tmp_path):
    """The workload at seed 0, its input files written into tmp_path, and
    its checks' reference data."""
    wl = workloads.WORKLOADS[name](0)
    for file_name, text in wl.inputs.items():
        (tmp_path / file_name).write_text(text)
    # the load generator hands the reference data to the worker as JSON
    return wl, json.loads(json.dumps([op.expect.prepare() for op in wl.ops]))


@pytest.mark.parametrize("name", NAMES)
def test_workload_ops_pass_their_checks(name, tmp_path, monkeypatch):
    workloads, worker, _ = _bench(monkeypatch)
    wl, refs = _workload(workloads, name, tmp_path)
    for op, ref in zip(wl.ops, refs):
        result = worker.run_op(cli, op, ref, str(tmp_path), None)
        allowed = {"ok", "known-defect"} if op.known_defect else {"ok"}
        assert result["status"] in allowed, (result["argv"], result["error"])


@pytest.mark.parametrize("name", NAMES)
def test_traced_ops_yield_every_layer_metric(name, tmp_path, monkeypatch):
    """The traced pass: bench/tracing.py rebinds the layer modules'
    functions, and its notes read program names (LDUFactors.D,
    PointSet.s, ExactMatrix.entries, ...); a rename breaks an op or the
    metrics here."""
    workloads, worker, tracing = _bench(monkeypatch)
    wl, refs = _workload(workloads, name, tmp_path)
    for mod_name in tracing.LAYERS:
        module = getattr(pascalhankel, mod_name)
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value):  # restored after the test
                monkeypatch.setattr(module, attr, value)
    tracer = tracing.Tracer()
    tracer.install(pascalhankel)
    for i, (op, ref) in enumerate(zip(wl.ops, refs)):
        tracer.op = i
        result = worker.run_op(cli, op, ref, str(tmp_path), tracer)
        assert result["status"] == "ok", (result["argv"], result["error"])
    metrics = tracer.metrics(wl.exponents)
    # the worker adds cli.out_bytes and the run trace.overhead_s; each
    # workload fits only its own exponents
    others = {e.metric for n in NAMES if n != name for e in workloads.WORKLOADS[n](0).exponents}
    assert set(metrics) == ({m["name"] for m in SPEC["per_layer"]} - others
                            - {"cli.out_bytes", "trace.overhead_s"})
    roots = sum(end - start for _, parent, _, start, end, _ in tracer.spans if parent < 0)
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(roots, rel=1e-9)
