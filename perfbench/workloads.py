"""Seeded request generators for the four benchmark workloads.

Every workload is a multiset of request *classes*.  A class fixes what sets a
request's cost (potential and order, dimension, command); its variants differ
in output format, JSON or text input, matrix seed or Swanson parameters.  The
seed shuffles the classes of each block and fixes, per class, the order in
which the class walks through its variants, so a run draws every variant of a
class in near-equal shares.  The timed loop runs whole blocks, each holding
the same multiset, so every run sees the same cost mix whatever the seed.

A class listed many times forms a *band*: a dense run of requests of one
cost.  Each workload puts one band where the median falls and one where its
tail percentile falls, so that those quantiles are read inside a band and do
not jump between classes of different cost from one run to the next.

The program only ever receives the generated argv and the series documents
written at set-up.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Callable, Iterator

FORMATS = ("text", "latex", "json")

#: finite-demo --tolerance; every reported deviation must stay below it.
FINITE_TOLERANCE = "1e-9"


@dataclass(frozen=True)
class Request:
    """One CLI invocation and how its output is checked.

    check is "golden" (exit code and stdout hash to the recorded digest under
    key), "finite" (exit 0, every reported deviation under the tolerance) or
    "error" (exit 1 with a one-line message containing expect).
    """

    argv: tuple[str, ...]
    check: str
    key: str = ""
    expect: str = ""


def bands(*counted) -> tuple:
    """(class, count) pairs as a class multiset, in the order given."""
    return tuple(cls for cls, count in counted for _ in range(count))


@dataclass(frozen=True)
class Workload:
    name: str
    #: one block of the timed loop, as a class multiset
    classes: tuple
    variants: Callable[[object, Path], list[Request]]
    #: tail percentile reported: one that falls inside the workload's upper
    #: band and has ten samples above it in a run of BENCHMARK.json's
    #: run_seconds; lower only if a run collects fewer samples
    tail_pct: float
    #: blocks of distinct classes run by the traced pass and each counting pass
    trace_blocks: int = 1
    #: whether requests may read their (potential, order) series from JSON
    from_json: bool = False

    @property
    def documents(self) -> tuple:
        """(potential, order) series written as JSON documents at set-up."""
        return tuple(dict.fromkeys(self.classes)) if self.from_json else ()


def golden(argv, key: str) -> Request:
    return Request(tuple(argv), "golden", key)


def document_name(potential: str, order: int) -> str:
    safe = "".join(ch if ch.isalnum() else "_" for ch in potential)
    return f"series_{safe}_{order}.json"


# -- series-sweep --------------------------------------------------------------

# Classes in order of cost.  The median band is four classes of about 31 ms,
# the p90 band three of about 150 ms (raw, on a 2-vCPU Xeon VM).
SWEEP_CLASSES = bands(
    (("i*x", 5), 2), (("i*x", 6), 2), (("i*x", 7), 3), (("i*x^2", 5), 3), (("i*x", 8), 3),
    (("i*x^3", 5), 3), (("i*x", 9), 4),
    (("i*x^2", 7), 3), (("i*x", 10), 3), (("i*x", 11), 3), (("i*x^3", 6), 3),
    *((cls, 1) for cls in (("i*x", 12), ("i*x^3", 7), ("i*x^2", 9), ("i*x^5", 5),
                           ("i*x", 13), ("i*x^3+x^2", 5), ("i*x^2", 11), ("i*x^3", 8),
                           ("i*x^3", 9), ("i*x^2", 13), ("i*x^3", 10), ("i*x^5", 7),
                           ("i*x^3", 11), ("i*x^3", 12))),
    (("i*x^3+x^2", 7), 2), (("i*x^5", 9), 2), (("i*x^3", 13), 2),
    (("i*x^5", 11), 1), (("i*x^3+x^2", 9), 1))


def solve_request(potential: str, order: int, fmt: str) -> Request:
    return golden(("solve-metric", "--potential", potential, "--order", str(order),
                   "--format", fmt), f"solve-metric|{potential}|{order}|{fmt}")


def _sweep_variants(cls, workdir: Path) -> list[Request]:
    potential, order = cls
    return [solve_request(potential, order, fmt) for fmt in FORMATS]


# -- log-positivity ------------------------------------------------------------

# Orders 3 and 4 of ten potentials, 5 and 6 of the cheaper ones, in order of
# cost.  The median band is i*x^3+x and i*x^3+x^2 at order 3 (about 50 ms
# raw, on a 2-vCPU Xeon VM), the p75 band i*x^2 and i*x+x^3 at order 4 (about
# 80 ms); orders 5 and 6 carry most of the time.
LOG_CLASSES = bands(
    (("i*x", 3), 4), (("x^2+i*x", 3), 4), (("i*x^2", 3), 5), (("i*x+x^3", 3), 5),
    (("i*x^2+x", 3), 3), (("i*x", 4), 2), (("i*x^3", 3), 3),
    (("i*x^3+x", 3), 7), (("i*x^3+x^2", 3), 7),
    (("i*x^4", 3), 2), (("x^2+i*x", 4), 2),
    (("i*x^2", 4), 5), (("i*x+x^3", 4), 5),
    *((cls, 1) for cls in (("i*x^5", 3), ("i*x", 5), ("i*x^2+x", 4), ("i*x^3", 4),
                           ("i*x^3+x", 4), ("i*x^2", 5), ("i*x^4", 4), ("i*x", 6),
                           ("x^2+i*x", 5), ("i*x^3+x^2", 4), ("i*x^5", 4), ("i*x^3", 5),
                           ("i*x^2", 6), ("i*x^3", 6))))


def _log_variants(cls, workdir: Path) -> list[Request]:
    potential, order = cls
    doc = str(workdir / document_name(potential, order))
    out = []
    for command in ("positivity", "log-metric"):
        for fmt in FORMATS:
            key = f"{command}|{potential}|{order}|{fmt}"
            out.append(golden((command, "--potential", potential, "--order", str(order),
                               "--format", fmt), key))
            out.append(golden((command, "--from-json", doc, "--format", fmt), key))
    return out


# -- finite-weyl ---------------------------------------------------------------

# The median band is N = 10 (about 40 ms raw, on a 2-vCPU Xeon VM), the p75
# band N = 13 (about 95 ms); the even N up to 24 carry most of the time and
# the memory.
FINITE_DIMS = bands((4, 2), (5, 2), (6, 2), (7, 2), (8, 3), (9, 3), (10, 13), (11, 1),
                    (12, 2), (13, 8), (14, 1), (16, 1), (18, 1), (20, 1), (22, 1), (24, 1))


def _finite_variants(n, workdir: Path) -> list[Request]:
    return [Request(("finite-demo", "--n", str(n), "--pairs", str(pairs),
                     "--seed", str(seed), "--tolerance", FINITE_TOLERANCE,
                     "--format", fmt), "finite")
            for pairs in (2, 3, 4) for seed in range(16) for fmt in ("text", "json")]


# -- exp-calculus --------------------------------------------------------------

SWANSON_VALUES = (Fraction(1, 2), Fraction(1), Fraction(2))
SWANSON_C = (Fraction(1), Fraction(-1, 2), Fraction(3, 2))
#: shears whose discriminant is c^2, a perfect square
SQUARE_SHEARS = {"s0": "0", "s2": "2*i/hbar"}
#: the x-constant kernel, which every p^2 + V(x) operator annihilates, and a multiple
APPLY_TARGETS = ("exp(2*i/hbar*p*x)", "x^2*exp(2*i/hbar*p*x)")
APPLY_HAMILTONIANS = ("p^2+i*x^3", "p^2+i*x^3+x^2", "p^2+i*x", "p^2+i*x^5")
STAR_LEFT = ("x*exp(p^2)", "(x^2+p)*exp(i*p^2/hbar)", "p*x^3*exp(-1/2*p^2)",
             "(1+x)*exp(3*p^2/hbar)")
STAR_RIGHT = ("p*exp(x^2)", "(x+p^2)*exp(i*x^2/hbar)", "x^2*p*exp(2*x^2)",
              "(p+x*p)*exp(-x^2/hbar)")
DAGGER_EXPRS = ("x*p*exp(i*p^2/hbar)", "(x^2+p)*exp(-1/2*p^2)", "p^3*exp(x^2)",
                "(x+i*p)*exp(2*i*x^2/hbar)")
HERMITIAN_EXPRS = ("exp(p^2)", "x*exp(p^2)", "(p^2+x^2)*exp(i*x^2/hbar)",
                   "p*x*exp(-p^2/hbar)")
NONTERMINATING_STARS = (("x*exp(x^2)", "exp(p^2)"), ("exp(p*x)", "p*exp(i*p^2/hbar)"),
                        ("exp(i*x^2/hbar)", "x/p"))

EXP_CLASSES = ("candidates-s0", "candidates-s0", "candidates-s2", "candidates-s2",
               "residual-s0", "residual-s0", "residual-s2", "residual-s2",
               "apply-pde", "apply-pde", "star", "star", "dagger", "dagger",
               "is-hermitian", "is-hermitian", "error-star", "error-discriminant")


def _q(value: Fraction) -> str:
    return f"({value})"


def swanson_hamiltonian(a: Fraction, b: Fraction, c: Fraction) -> str:
    return f"{_q(a)}*p^2+{_q(b)}*x^2+i*{_q(c)}*p*x"


def gaussian_candidate_texts(a: Fraction, b: Fraction, c: Fraction, shear: str) -> list[str]:
    """Both Gaussian metric branches for s = 0 or 2i/hbar, as expression text.

    Both shears make the discriminant c^2, whose root the engine takes as |c|;
    then r = (+-|c| - c) / (4*b*hbar) and t = (+-|c| + c) / (4*a*hbar).
    """
    shear_text = "" if shear == "0" else "+2*i*p*x/hbar"
    out = []
    for root in (abs(c), -abs(c)):
        r = (root - c) / (4 * b)
        t = (root + c) / (4 * a)
        out.append(f"exp({_q(r)}*p^2/hbar{shear_text}+{_q(t)}*x^2/hbar)")
    return out


def _swanson_triples():
    return [(a, b, c) for a in SWANSON_VALUES for b in SWANSON_VALUES for c in SWANSON_C]


def _is_square(q: Fraction) -> bool:
    return (q >= 0 and isqrt(q.numerator) ** 2 == q.numerator
            and isqrt(q.denominator) ** 2 == q.denominator)


def _exp_variants(cls: str, workdir: Path) -> list[Request]:
    out = []
    if cls.startswith("candidates-") or cls.startswith("residual-"):
        shear = SQUARE_SHEARS[cls.split("-")[1]]
        for a, b, c in _swanson_triples():
            params = (f"--a={a}", f"--b={b}", f"--c={c}")  # "=" keeps "-1/2" a value
            if cls.startswith("candidates-"):
                for fmt in FORMATS:
                    out.append(golden(("gaussian-candidates", *params, "--s", shear,
                                       "--format", fmt),
                                      f"gaussian-candidates|{a}|{b}|{c}|{shear}|{fmt}"))
                continue
            ham = swanson_hamiltonian(a, b, c)
            for metric in gaussian_candidate_texts(a, b, c, shear):
                for fmt in ("text", "json"):
                    out.append(golden(("residual", "--hamiltonian", ham, "--metric", metric,
                                       "--format", fmt),
                                      f"residual|{ham}|{metric}|{fmt}"))
    elif cls == "apply-pde":
        for ham in APPLY_HAMILTONIANS:
            for target in APPLY_TARGETS:
                for fmt in FORMATS:
                    out.append(golden(("apply-pde", "--hamiltonian", ham, "--target", target,
                                       "--format", fmt), f"apply-pde|{ham}|{target}|{fmt}"))
    elif cls == "star":
        for left in STAR_LEFT:
            for right in STAR_RIGHT:
                for fmt in FORMATS:
                    out.append(golden(("star", "--left", left, "--right", right,
                                       "--format", fmt), f"star|{left}|{right}|{fmt}"))
    elif cls in ("dagger", "is-hermitian"):
        exprs = DAGGER_EXPRS if cls == "dagger" else HERMITIAN_EXPRS
        for expr in exprs:
            for fmt in FORMATS:
                out.append(golden((cls, "--expr", expr, "--format", fmt),
                                  f"{cls}|{expr}|{fmt}"))
    elif cls == "error-star":
        for left, right in NONTERMINATING_STARS:
            out.append(Request(("star", "--left", left, "--right", right),
                               "error", expect="does not terminate"))
    elif cls == "error-discriminant":
        # s = i/hbar makes the discriminant c^2 + 4*a*b
        for a, b, c in _swanson_triples():
            if not _is_square(c * c + 4 * a * b):
                out.append(Request(("gaussian-candidates", f"--a={a}", f"--b={b}",
                                    f"--c={c}", "--s", "i/hbar"),
                                   "error", expect="not a perfect square"))
    else:
        raise ValueError(f"unknown exp-calculus class {cls!r}")
    return out


# -- registry ----------------------------------------------------------------

WORKLOADS = {wl.name: wl for wl in (
    # pde.apply, the ODE recursion, exact coefficients and rendering of outputs
    # up to tens of KB, with no star products: the bypass case for star changes.
    Workload("series-sweep", SWEEP_CLASSES, _sweep_variants, tail_pct=90),
    # star_log spends most of its time in symbols.star and rationals: the
    # mechanism case for a star kernel, and where star-log cancellation shows.
    Workload("log-positivity", LOG_CLASSES, _log_variants, tail_pct=75, from_json=True),
    # Float numpy with no exact arithmetic; repeated N hit the basis cache.
    # The only workload for finite and for memory.
    Workload("finite-weyl", FINITE_DIMS, _finite_variants, tail_pct=75),
    # Millisecond requests: chain-rule diff, HbarScalar, parsing and
    # per-request overhead, plus expected domain errors.
    Workload("exp-calculus", EXP_CLASSES, _exp_variants, tail_pct=99, trace_blocks=20),
)}


def pool(workload: Workload, workdir: Path) -> dict:
    """Every variant of every class, keyed by class."""
    return {cls: workload.variants(cls, workdir) for cls in dict.fromkeys(workload.classes)}


def blocks(workload: Workload, seed: int, workdir: Path) -> Iterator[list[Request]]:
    """Endless seeded sequence of blocks, each the class multiset shuffled.

    Each class cycles through its variants in a seeded order, so over a run
    every variant of a class is drawn about equally often.
    """
    rng = random.Random(seed)
    cycles = {}
    for cls, variants in pool(workload, workdir).items():
        variants = list(variants)
        rng.shuffle(variants)
        cycles[cls] = itertools.cycle(variants)
    while True:
        order = list(workload.classes)
        rng.shuffle(order)
        yield [next(cycles[cls]) for cls in order]
