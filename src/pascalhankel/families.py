"""Entry generators for the Pascal and Catalan-Hankel matrix families."""

import math
from dataclasses import dataclass

from . import exact, sequences


@dataclass(frozen=True)
class Family:
    """A named infinite matrix with a total entry function on N0 x N0.

    kind is a key of KINDS (the CLI name); a parametrizes P1 and M1.
    """

    kind: str
    a: int = 0


def _p1(a):
    # at a = 0, 0 ** 0 == 1 leaves the identity
    return lambda i, j: 0 if i > j else math.comb(j, i) * a ** (j - i)


def _m1(a):
    def m1(i, j):
        if i & ~j:
            return 0
        # bit-subset makes the exponent nonnegative; at a = 0, 0 ** 0 == 1
        return a ** (sequences.s2(j) - sequences.s2(i))

    return m1


def _hankel(kind):
    """Maker of the Hankel matrix (c_{i+j}) of the SEQUENCES entry `kind`."""
    c = sequences.SEQUENCES[kind]
    return lambda a: lambda i, j: c(i + j)


# CLI name -> (whether it takes the parameter a, maker of its entry
# function from a)
KINDS = {
    "P1": (True, _p1),
    "P2": (False, lambda a: lambda i, j: math.comb(i + j, i)),
    "M1": (True, _m1),
    "M2": (False, lambda a: lambda i, j: math.comb(i + j, i) % 2),
    "H1": (False, _hankel("catalan_interspersed")),
    "H2": (False, _hankel("catalan_interspersed_mod2")),
}


def P1(a: int) -> Family:
    return Family("P1", a=a)


def M1(a: int) -> Family:
    return Family("M1", a=a)


P2 = Family("P2")
M2 = Family("M2")
H1 = Family("H1")
H2 = Family("H2")


def entry_fn(f: Family):
    """Closure computing entries of f; total on N0 x N0."""
    if f.kind not in KINDS:
        raise ValueError(f"unknown family kind: {f.kind}")
    return KINDS[f.kind][1](f.a)


def window_of(f: Family, n: int, m: int | None = None, k: int = 0) -> exact.ExactMatrix:
    return exact.window(entry_fn(f), n, m, k)


def parse_family(text: str) -> Family:
    """Parse CLI family names: "P1:a=3", "M1:a=-2", "P2", "M2", "H1", "H2".

    Bare "P1" and "M1" default to a=1.
    """
    name, _, param = text.partition(":")
    name = name.strip().upper()
    if name not in KINDS:
        raise ValueError(f"unknown family: {text!r}")
    if not param:
        return Family(name, a=1 if KINDS[name][0] else 0)
    if not KINDS[name][0]:
        raise ValueError(f"family {name} takes no parameters")
    key, _, val = param.partition("=")
    if key.strip() != "a":
        raise ValueError(f"unknown parameter in {text!r}")
    return Family(name, a=int(val))
