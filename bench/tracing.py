"""Spans around the calls into pascalhankel's modules, for the traced run.

Nothing here touches the program's source: `install` rebinds the public
module-level functions of each module to timing wrappers.  The modules
call each other through module attributes (`exact.mat_mul(...)`) and
through their own globals, so both kinds of call pass through the
wrappers.  Spans stay in memory and are written out after the pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "verify", "families", "sequences", "exact", "laurent", "net")

# A wrapper adds a Python frame to every call, so some functions stay
# unwrapped and their time falls into the span that calls them.
SKIP = {
    # recursive through its lru_cache: a frame per level would lower the
    # index at which a cold call hits the recursion limit
    "sequences.catalan",
    # called once or twice per matrix entry (popcounts, entry predicates);
    # their time is entry generation, inside the window span
    "sequences.s2", "sequences.thue_morse", "sequences.lucas_binom_mod2",
    "families.entry", "families.h2_structure_entry",
    # only the CLI entry point is wrapped; it is the root of every op
    "cli.main",
}

# exact.window builds a family window's entries: it is window construction
LAYER_OF = {"exact.window": "families"}

# O(1) facts kept per call; anything costlier is derived after the pass
NOTES = {
    "exact.mat_mul": lambda args, r: args[0].rows * args[0].cols * args[1].cols,
    "exact.window": lambda args, r: r.rows * r.cols,
    "exact.determinant": lambda args, r: (args[0], (r,)),
    "exact.leading_principal_minors": lambda args, r: (args[0], r),
    "exact.ldu_decompose": lambda args, r: (args[0], r.D),
    "laurent.cf_expand": lambda args, r: (args[0].precision, len(r.partial_quotients)),
    "net.stacked_rank_ok": lambda args, r: r,
    "net.digital_points": lambda args, r: len(r.points),
    "net.star_discrepancy": lambda args, r: args[0],
    "verify.run_check": lambda args, r: r.checked,
    "verify.run_all": lambda args, r: sum(x.checked for x in r),
}

# problem size of a call, for the growth exponents
SIZE = {
    "exact.leading_principal_minors": lambda note: note[0].rows,
    "laurent.cf_expand": lambda note: note[0],
    "net.star_discrepancy": lambda note: len(note.points),
}

# per-function self times reported on their own
FUNCTION_TIMES = {
    "exact.mat_mul_s": ("exact.mat_mul",),
    "exact.inverse_s": ("exact.unimodular_triangular_inverse",),
    "exact.minors_s": ("exact.leading_principal_minors",),
    "exact.det_s": ("exact.determinant",),
    "exact.ldu_s": ("exact.ldu_decompose",),
    "exact.rank_s": ("exact.rank_mod_p",),
    "exact.serialize_s": ("exact.to_json", "exact.to_json_dict", "exact.to_csv"),
    "families.window_s": ("families.window_of", "exact.window"),
    "laurent.build_s": ("laurent.build_L",),
    "laurent.cf_expand_s": ("laurent.cf_expand",),
    "net.t_value_s": ("net.t_value",),
    "net.search_s": ("net.search_third_matrix",),
    "net.points_s": ("net.digital_points",),
    "net.discrepancy_s": ("net.star_discrepancy",),
}


def _bits(x) -> int:
    if isinstance(x, int):
        return abs(x).bit_length()
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    """Span recorder.  A span is [name, parent index, op index, start, end,
    note]; the parent is the innermost span open when the call began."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.active = False
        self.op = -1

    def install(self, package) -> None:
        for mod_name in LAYERS:
            module = getattr(package, mod_name)
            for attr, fn in list(vars(module).items()):
                name = f"{mod_name}.{attr}"
                if (attr.startswith("_") or name in SKIP or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                setattr(module, attr, self._wrap(name, fn))

    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, self.op, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if note is not None:
                rec[5] = note(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, op, t0, t1, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1}) + "\n")

    def metrics(self, exponents) -> dict:
        """Per-layer metrics of the pass.  A span's self time is its
        duration minus its children's, so the layers' self times add up
        to the time of the root spans, the ops."""
        spans = self.spans
        dur = [s[4] - s[3] for s in spans]
        own = list(dur)
        for s, d in zip(spans, dur):
            if s[1] >= 0:
                own[s[1]] -= d
        layer = [LAYER_OF.get(s[0], s[0].partition(".")[0]) for s in spans]
        by_fn = defaultdict(float)
        count = defaultdict(int)
        notes = defaultdict(list)
        out = {f"{name}.self_s": 0.0 for name in LAYERS}
        for s, t, lay in zip(spans, own, layer):
            by_fn[s[0]] += t
            count[s[0]] += 1
            out[f"{lay}.self_s"] += t
            if s[5] is not None:
                notes[s[0]].append(s[5])
        for metric, names in FUNCTION_TIMES.items():
            out[metric] = sum(by_fn[n] for n in names)

        rank_ok = notes["net.stacked_rank_ok"]
        bits = [0]
        for matrix, values in (notes["exact.determinant"] + notes["exact.leading_principal_minors"]
                               + notes["exact.ldu_decompose"]):
            bits.extend(_bits(x) for x in matrix.entries)
            bits.extend(_bits(x) for x in values)
        out.update({
            "verify.checked": sum(notes["verify.run_check"] + notes["verify.run_all"]),
            "families.entries": sum(notes["exact.window"]),
            "sequences.calls": sum(1 for s, lay in zip(spans, layer) if lay == "sequences"
                                   and (s[1] < 0 or layer[s[1]] != "sequences")),
            "exact.mat_mul.calls": count["exact.mat_mul"],
            "exact.mat_mul.madds": sum(notes["exact.mat_mul"]),
            "exact.rank.calls": count["exact.rank_mod_p"],
            "exact.max_entry_bits": max(bits),
            "laurent.quotients": sum(q for _, q in notes["laurent.cf_expand"]),
            "net.rank_tests": len(rank_ok),
            "net.rank_ok_ratio": sum(rank_ok) / len(rank_ok) if rank_ok else 0.0,
            "net.points": sum(notes["net.digital_points"]),
            "net.discrepancy.boxes": sum(_boxes(ps) for ps in notes["net.star_discrepancy"]),
        })
        for exp in exponents:
            out[exp.metric] = exp.fit(spans, own)
        return out


def _boxes(ps) -> int:
    """Anchored boxes the exact 2-d discrepancy examines: one per pair of a
    distinct x or 1 and a distinct y or 1 (one per point in 1-d)."""
    if ps.s == 1:
        return len(ps.points)
    return (len({pt[0] for pt in ps.points} | {1})
            * len({pt[1] for pt in ps.points} | {1}))


class Exponent:
    """Growth exponent of one function's time per call between two sizes:
    log(t_large / t_small) / log(large / small).  `ops` restricts the
    calls to those made by the given ops of the workload."""

    def __init__(self, metric, function, small, large, ops=None):
        self.metric, self.function = metric, function
        self.small, self.large, self.ops = small, large, ops

    def fit(self, spans, own) -> float:
        size_of = SIZE[self.function]
        times = {self.small: [], self.large: []}
        for s, t in zip(spans, own):
            if (s[0] == self.function and s[5] is not None
                    and (self.ops is None or s[2] in self.ops)):
                size = size_of(s[5])
                if size in times:
                    times[size].append(t)
        if not (times[self.small] and times[self.large]):
            return 0.0
        small = sum(times[self.small]) / len(times[self.small])
        large = sum(times[self.large]) / len(times[self.large])
        return math.log(large / small) / math.log(self.large / self.small)
