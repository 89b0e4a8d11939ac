"""Command-line entry point.

Verbs: matrix, verify, cf, seq, net.  Output depends only on the flags,
except verify's wall time, `elapsed`; exit status 0 on success, 1 on
verification failure, 2 on usage errors, 3 on internal errors.
"""

import argparse
import functools
import itertools
import json
import math
import sys
import traceback
from fractions import Fraction

from . import exact, families, laurent, net, sequences, verify


def _family(text: str) -> families.Family:
    try:
        return families.parse_family(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _dims(text: str) -> tuple:
    """--dims: the text (echoed in JSON output) and its families."""
    return text, tuple(_family(t) for t in text.split(","))


def _a_range(text: str) -> tuple:
    """--a-range LO:HI: the parameters LO, LO + 1, ..., HI."""
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None
    return tuple(range(lo, hi + 1))


def _int_type(ok, wanted: str):
    """argparse type: an int for which ok(value) holds."""
    def parse(text: str) -> int:
        value = int(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {value}")
        return value
    parse.__name__ = "int"  # argparse rejects non-integers as an "invalid int value"
    return parse


_nonnegative = _int_type(lambda value: value >= 0, "an integer >= 0")
_positive = _int_type(lambda value: value >= 1, "an integer >= 1")
# a prime that fits a machine word: is_prime decides it by twelve modular powers
_prime = _int_type(lambda p: p < 2 ** 64 and exact.is_prime(p), "a prime below 2^64")


def _point_set(lines) -> net.PointSet:
    """net discrepancy --input: one point per nonblank line, 1 or 2
    coordinates num/den in [0, 1).  Bad content is a usage error."""
    try:
        pts = [tuple(Fraction(tok) for tok in line.split(","))
               for line in map(str.strip, lines) if line]
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"--input: bad coordinate ({exc})") from None
    if not pts:
        raise argparse.ArgumentTypeError("--input: no points")
    s = len(pts[0])
    if s not in (1, 2):
        raise argparse.ArgumentTypeError(f"--input: {s} coordinates per point, expected 1 or 2")
    for pt in pts:
        if len(pt) != s or not all(0 <= x < 1 for x in pt):
            why = (f"has {len(pt)} coordinates, the first point has {s}" if len(pt) != s
                   else f"is not in [0, 1)^{s}")
            raise argparse.ArgumentTypeError(f"--input: point {','.join(map(str, pt))} {why}")
    return net.PointSet(s, tuple(pts))


@functools.cache  # parse_args keeps no state in the parser: one tree per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pascalhankel",
        description="Exact-arithmetic lab for Pascal/Catalan-Hankel matrix "
                    "identities, continued fractions, and digital nets.")
    sub = parser.add_subparsers(dest="verb", required=True)

    m = sub.add_parser("matrix", help="build, print, and measure matrix windows")
    msub = m.add_subparsers(dest="action", required=True)
    for name in ("show", "det", "rank", "ldu"):
        ms = msub.add_parser(name)
        ms.add_argument("--family", type=_family, required=True,
                        help="P1[:a=A], M1[:a=A], P2, M2, H1, H2")
        ms.add_argument("--n", type=_nonnegative, required=True)
        if name in ("show", "rank"):
            ms.add_argument("--m", type=_nonnegative, default=None)
        ms.add_argument("--k", type=_nonnegative, default=0)
        if name == "show":
            ms.add_argument("--format", choices=("json", "csv"), default="csv")
        if name == "rank":
            ms.add_argument("--p", type=_prime, required=True)

    v = sub.add_parser("verify", help="run identity verifications")
    v.add_argument("identity", help="identity id or 'all'")
    v.add_argument("--n-max", type=_positive, default=None)
    v.add_argument("--k-max", type=_nonnegative, default=None)
    v.add_argument("--a-range", dest="a", type=_a_range, default=None, metavar="LO:HI",
                   help="LO:HI (write --a-range=-5:5 for negative bounds)")
    v.add_argument("--json", action="store_true")

    c = sub.add_parser("cf", help="continued fractions of Laurent series")
    csub = c.add_subparsers(dest="action", required=True)
    ce = csub.add_parser("expand")
    ce.add_argument("--series", choices=tuple(laurent.SERIES), required=True)
    ce.add_argument("--coeffs", type=_positive, required=True)
    ce.add_argument("--quotients", type=_nonnegative, required=True)
    ce.add_argument("--json", action="store_true")

    s = sub.add_parser("seq", help="dump a sequence prefix")
    s.add_argument("kind", choices=tuple(sequences.SEQUENCES))
    s.add_argument("--count", type=_positive, required=True)

    n = sub.add_parser("net", help="digital (t,s)-sequence tools")
    nsub = n.add_subparsers(dest="action", required=True)
    nt = nsub.add_parser("t-value")
    nt.add_argument("--p", type=_prime, required=True)
    nt.add_argument("--dims", type=_dims, required=True, help="comma-separated families")
    nt.add_argument("--m-max", type=_positive, required=True)
    nt.add_argument("--json", action="store_true")
    np_ = nsub.add_parser("points")
    np_.add_argument("--p", type=_prime, required=True)
    np_.add_argument("--dims", type=_dims, required=True)
    np_.add_argument("--m", type=_nonnegative, required=True)
    np_.add_argument("--n", type=_nonnegative, required=True, help="at most p^m points")
    nd = nsub.add_parser("discrepancy")
    nd.add_argument("--input", required=True, help="points CSV, rationals as num/den")
    ns = nsub.add_parser("search")
    ns.add_argument("--p", type=_prime, default=3)
    ns.add_argument("--m-max", type=_positive, default=4)
    ns.add_argument("--candidates", choices=("m1", "random"), default="m1")
    ns.add_argument("--budget", type=_positive, required=True)
    ns.add_argument("--seed", type=int, default=0)
    ns.add_argument("--json", action="store_true")
    return parser


def _cmd_matrix(args, out) -> int:
    w = families.window_of(args.family, args.n, getattr(args, "m", None), args.k)
    if args.action == "show":
        if args.format == "json":
            print(exact.to_json(w), file=out)
        else:
            print(exact.to_csv(w), file=out)
    elif args.action == "det":
        print(exact.determinant(w), file=out)
    elif args.action == "rank":
        print(exact.rank_mod_p(w, args.p), file=out)
    elif args.action == "ldu":
        factors = exact.ldu_decompose(w)
        print("L:", file=out)
        print(exact.to_csv(factors.L), file=out)
        print("D: " + ",".join(str(d) for d in factors.D), file=out)
        print("U:", file=out)
        print(exact.to_csv(factors.U), file=out)
    return 0


def _cmd_verify(args, out) -> int:
    grid = {key: getattr(args, key) for key in ("n_max", "k_max", "a")
            if getattr(args, key) is not None}
    if args.identity == "all":
        if grid:
            raise verify.GridError("grid flags apply to single identities, not 'all'")
        reports = [verify.run_check(name) for name in verify.IDENTITIES]
    else:
        reports = [verify.run_check(args.identity, **grid)]
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], default=str), file=out)
    else:
        for r in reports:
            print(r.summary(), file=out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_cf(args, out) -> int:
    series = laurent.build_L(args.series, args.coeffs)
    cf = laurent.cf_expand(series, args.quotients)
    quotients = [laurent.poly_str(q) for q in cf.partial_quotients]
    if args.json:
        print(json.dumps({
            "series": args.series,
            "integer_part": laurent.poly_str(cf.integer_part),
            "partial_quotients": quotients,
            "exhausted_precision": cf.exhausted_precision,
        }), file=out)
    else:
        print(f"integer part: {laurent.poly_str(cf.integer_part)}", file=out)
        for i, q in enumerate(quotients, start=1):
            print(f"A_{i} = {q}", file=out)
        if cf.exhausted_precision:
            print("(precision exhausted)", file=out)
    return 0


def _cmd_seq(args, out) -> int:
    row = sequences.SEQUENCES[args.kind]
    text = getattr(row, "text", None)  # the Catalan rows' digits, linear in their length
    values = (list(itertools.islice(text(), args.count)) if text
              else [str(row(i)) for i in range(args.count)])
    print(json.dumps(values), file=out)
    return 0


def _cmd_net(args, out) -> int:
    if args.action == "t-value":
        dims, fams = args.dims
        ts = net.t_value(net.GeneratingSet(args.p, fams), args.m_max)
        if args.json:
            print(json.dumps({"p": args.p, "dims": dims,
                              "t_per_m": ts, "t": max(ts)}), file=out)
        else:
            print("m: " + " ".join(str(m) for m in range(1, args.m_max + 1)), file=out)
            print("t: " + " ".join(str(t) for t in ts), file=out)
            print(f"overall t = {max(ts)}", file=out)
    elif args.action == "points":
        if args.n > args.p ** args.m:
            raise argparse.ArgumentTypeError(
                f"cannot place {args.n} points at depth {args.m} in base {args.p}")
        d = args.p ** args.m  # each numerator x over d, in lowest terms as a Fraction prints it
        for pt in net.points(net.GeneratingSet(args.p, args.dims[1]), args.n, args.m):
            print(",".join(f"{x // (g := math.gcd(x, d))}/{d // g}" for x in pt), file=out)
    elif args.action == "discrepancy":
        with open(args.input) as fh:
            ps = _point_set(fh)
        print(net.star_discrepancy(ps), file=out)
    elif args.action == "search":
        results = net.search_third_matrix(args.p, args.m_max, args.candidates,
                                          args.budget, seed=args.seed)
        if not results:  # the m1 walk, a = 2 .. p - 1, is empty at p = 2
            raise argparse.ArgumentTypeError(f"no {args.candidates} candidate at --p {args.p}")
        if args.json:
            print(json.dumps(results), file=out)
        else:
            for r in results:
                print(f"{r['candidate']}: t={r['t']} per-m={r['t_per_m']}", file=out)
    return 0


# verb -> handler(args, out) returning the exit status
_COMMANDS = {"matrix": _cmd_matrix, "verify": _cmd_verify, "cf": _cmd_cf,
             "seq": _cmd_seq, "net": _cmd_net}


def run(argv, out=None) -> int:
    out = sys.stdout if out is None else out
    # an exact integer the lab computed prints at any length (3.10 may lack the limit)
    getattr(sys, "set_int_max_str_digits", lambda maxdigits: None)(0)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.verb](args, out)
    except (verify.GridError, argparse.ArgumentTypeError, exact.SingularMinorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception:  # any other crash is internal too, never a failed verification
        traceback.print_exc()
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
