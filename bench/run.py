"""pascalhankel benchmark: timed passes of fixed CLI scripts.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each was chosen): verify-sweep,
matrix-deep, cf-expand, net.

The load is closed-loop with one client: passes run one after another,
each in a fresh worker process (bench/worker.py) that runs one op at a
time, because a CLI user pays every cache fill on each invocation.  Passes
start until `--seconds` have elapsed; the last one always completes.

--trace 0 reports the end-to-end metrics: pass_s (median time of a
pass's ops), setup_s (median time from worker spawn until its first op
can start: interpreter start, importing pascalhankel, generating the
seed's inputs) and peak_rss_mb (median of the workers' peak resident
memory).  pass_s and setup_s are wall times rescaled to a fixed machine
speed (see speed.py); the raw wall times, pass_wall_s and setup_wall_s,
are printed beside them.  --trace 1 alternates untraced and traced passes
and reports per-layer metrics, in raw wall time, from the traced ones
(see tracing.py).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A fuller record, with the interpreter version, CPU count, seed
and every pass, goes to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
PASS_TIMEOUT_S = 150

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# exact.mat_mul.madds and net.discrepancy.boxes are computed from the
# operands' shapes, not counted inside the program
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    **{metric: "s" for metric in tracing.FUNCTION_TIMES},
    "cli.out_bytes": "bytes", "verify.checked": "count", "families.entries": "count",
    "sequences.calls": "count", "exact.mat_mul.calls": "count",
    "exact.mat_mul.madds": "count", "exact.rank.calls": "count",
    "exact.max_entry_bits": "bits", "laurent.quotients": "count",
    "net.rank_tests": "count", "net.rank_ok_ratio": "1", "net.points": "count",
    "net.discrepancy.boxes": "count", "exact.minors.exp": "1",
    "laurent.cf_expand.exp": "1", "net.discrepancy.exp": "1", "trace.overhead_s": "s",
}


def run_pass(name: str, seed: int, trace: bool, refs: list) -> dict:
    spec = json.dumps({"workload": name, "seed": seed, "trace": int(trace)})
    kernel = speed.kernel_seconds()
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), spec], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        if ready != "ready\n":
            raise RuntimeError(f"worker did not start: {ready!r}")
        out, _ = proc.communicate(json.dumps(refs) + "\n", timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    result = json.loads(out.splitlines()[-1])
    result["setup_wall_s"] = setup
    result["setup_s"] = speed.rescale(setup, kernel, result["kernel_s"][0])
    result["pass_wall_s"] = sum(op["seconds"] for op in result["ops"])
    result["pass_s"] = sum(speed.rescale_ops([op["seconds"] for op in result["ops"]],
                                             result["kernel_s"]))
    return result


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "pascalhankel" / "__init__.py").is_file():
        print(f"no pascalhankel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed)
    refs = [op.expect.prepare() for op in wl.ops]
    passes = []
    deadline = perf_counter() + args.seconds
    while True:
        passes.append(run_pass(wl.name, args.seed, args.trace and len(passes) % 2 == 1, refs))
        if perf_counter() >= deadline and len(passes) >= 1 + args.trace:
            break

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["status"] == "failed"]
    known = [op for op in ops if op["status"] == "known-defect"]
    plain = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    if args.trace:
        # a layer idle on this workload reads 0, as does an exponent it has no sizes for
        metrics = {m: statistics.median(p["layers"].get(m, 0.0) for p in traced)
                   for m in PER_LAYER}
        # rescaled, like pass_s, so that drift in machine speed cancels
        metrics["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in traced)
                                       - statistics.median(p["pass_s"] for p in plain))
        for p in traced:
            attributed = sum(p["layers"][f"{lay}.self_s"] for lay in tracing.LAYERS)
            if abs(attributed - p["pass_wall_s"]) > 1e-3 * p["pass_wall_s"]:
                raise RuntimeError(f"layer self times sum to {attributed}, "
                                   f"pass took {p['pass_wall_s']}")
    else:
        metrics = {m: statistics.median(p[m] for p in plain) for m in END_TO_END}

    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "load": "closed loop, one client, one fresh worker process per pass",
        "passes": passes, "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"# {wl.name} seed={args.seed} python={record['python']} nproc={record['nproc']} "
          f"passes={len(passes)} ({record['load']})")
    for m in ("pass_s", "pass_wall_s", "setup_s", "setup_wall_s"):
        q1, med, q3 = quartiles([p[m] for p in plain])
        print(f"{m:<12} {med:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(plain)})")
    if not args.trace:
        print(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"fail_ratio  {len(failed) + len(known)}/{len(ops)} = "
          f"{(len(failed) + len(known)) / len(ops):.4f}")
    for op in {op["argv"]: op for op in known}.values():
        print(f"known defect: {op['argv']}: {op['error']}")
    for op in failed:
        print(f"FAILED: {op['argv']}: {op['error']}")
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": {m: {"value": v, "unit": {**END_TO_END, **PER_LAYER}[m]}
                    for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
