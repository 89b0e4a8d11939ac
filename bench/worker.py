"""One pass of a workload, in a fresh process.

Usage: python3 bench/worker.py '{"workload": ..., "seed": ..., "trace": 0|1}'

Imports pascalhankel from the checkout's src/, writes the seed's input
files, prints "ready", reads the checks' reference data as one JSON line
on stdin, runs each op through `pascalhankel.cli.run` and checks its
output, then prints one JSON line with the pass's results.  The speed
kernel runs before the first op and after each op (see speed.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def run_op(cli, op, ref, scratch: str, tracer) -> dict:
    argv = [a.format(dir=scratch) for a in op.argv]
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    with contextlib.redirect_stderr(err):
        if tracer:
            tracer.active = True
        t0 = perf_counter()
        try:
            code = cli.run(argv, out)
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        if tracer:
            tracer.active = False
    text = out.getvalue()
    if op.out_file:
        Path(scratch, op.out_file).write_text(text)
    if code == 0:
        try:
            error = op.expect.check(text, ref) or ""
        except Exception as exc:  # unparsable output is a mismatch
            error = f"output check raised {type(exc).__name__}: {exc}"
    elif code is not None:
        error = f"exit {code}: {err.getvalue().strip()[:200]}"
    # a known defect shows as an error exit or exception; a wrong answer is a failure
    status = "ok" if not error else "known-defect" if op.known_defect and code != 0 else "failed"
    return {"argv": " ".join(argv), "seconds": seconds, "status": status,
            "error": error, "out_bytes": len(text.encode())}


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import pascalhankel
    from pascalhankel import cli

    if Path(pascalhankel.__file__).resolve().parent != ROOT / "src" / "pascalhankel":
        print(f"pascalhankel imported from {pascalhankel.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import speed
    import tracing
    import workloads

    wl = workloads.WORKLOADS[spec["workload"]](spec["seed"])
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        for name, text in wl.inputs.items():
            Path(scratch, name).write_text(text)
        tracer = None
        if spec["trace"]:
            tracer = tracing.Tracer()
            tracer.install(pascalhankel)
        print("ready", flush=True)
        refs = json.loads(sys.stdin.readline())
        kernels = [speed.kernel_seconds()]
        ops = []
        for i, (op, ref) in enumerate(zip(wl.ops, refs)):
            if tracer:
                tracer.op = i
            ops.append(run_op(cli, op, ref, scratch, tracer))
            kernels.append(speed.kernel_seconds())
    result = {"ops": ops, "kernel_s": kernels,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        result["layers"] = tracer.metrics(wl.exponents)
        result["layers"]["cli.out_bytes"] = sum(o["out_bytes"] for o in ops)
        tracer.write(OUT_DIR / f"spans-{wl.name}.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
