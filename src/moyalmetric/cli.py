"""Batch command-line front end.

Every subcommand is one row of one command table, `_COMMANDS`: its help
text, its flags in --help order, the call that computes its result from the
parsed arguments, the value that serialize.dumps writes as its JSON, a
renderer of the whole text or LaTeX output and the exit code once that output
is written.  `main` computes, dumps or renders, and only then prints, so a
command that fails leaves stdout empty; finite-demo's result holds its failed
checks, so it writes its check table and then exits 1.  Those checks and their
budgets live in `finite.isomorphism_checks`; only finite-demo's two functions
import numpy and `finite`, so the other commands start without them.

Exit codes: 0 on success, 1 on domain errors (non-terminating series,
irrational discriminants, failed finite-dimensional checks, ...), 2 on usage
and parse errors.  Output goes to stdout in the selected --format
(text, latex or json); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from . import serialize
from .errors import InvalidDocument, MoyalError, ParseError
from .formatting import format_expression
from .parsing import parse_expression, parse_hbar_scalar
from .pde import (SwansonParams, derive_metric_operator, gaussian_metric_candidates,
                  residual, swanson_from_ladder)
from .series import MetricSeries, solve_metric_series
from .starlog import positivity_evidence, star_log
from .symbols import PhaseSymbol


def _fraction(text: str) -> Fraction:
    """A rational flag.  An exponent past the digit limit is refused before Fraction
    builds 10**exponent, which takes seconds past 10^7; the echo keeps 40 characters."""
    shown = text if len(text) <= 40 else text[:37] + "..."
    exponent, limit = re.search(r"[eE]([-+]?[\d_]+)\s*\Z", text), sys.get_int_max_str_digits()
    try:
        if exponent and abs(int(exponent[1])) > limit:
            raise argparse.ArgumentTypeError(f"exponent larger than {limit} in magnitude: {shown!r}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {shown!r}") from exc


def _int_at_least(low: int):
    def integer(text: str) -> int:  # argparse reports a ValueError as "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}: {text!r}")
        return value
    return integer


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0: {text!r}")
    return value


def _symbol(args, name: str, json_name: str = "from_json") -> PhaseSymbol:
    text, path = getattr(args, name), getattr(args, json_name)
    if (text is None) == (path is None):
        raise InvalidDocument(f"exactly one of --{name} or its JSON variant is required")
    if text is not None:
        return parse_expression(text)
    return serialize.load_document(path, serialize.symbol_from_obj)


def _series(args) -> MetricSeries:
    if args.from_json:
        return serialize.load_document(args.from_json, serialize.series_from_obj)
    if args.potential is None:
        raise InvalidDocument("either --potential/--order or --from-json is required")
    return solve_metric_series(parse_expression(args.potential), args.order)


def _applied(args, name: str) -> PhaseSymbol:
    """apply-pde and residual: L_H applied to --<name>."""
    return residual(parse_expression(args.hamiltonian), _symbol(args, name, f"{name}_from_json"))


def _lines(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _word(flag: bool) -> str:
    return "true" if flag else "false"


def _show_symbol(sym: PhaseSymbol, fmt: str) -> str:
    return format_expression(sym, fmt) + "\n"


def _show_operator(op, fmt: str) -> str:
    term = "Dx^{} Dp^{}" if fmt == "text" else "\\partial_x^{{{}}}\\partial_p^{{{}}}"
    return _lines(f"{term.format(m, n)}: {format_expression(coeff, fmt)}"
                  for (m, n), coeff in op.terms.items()) or "0\n"


def _show_series(series: MetricSeries, fmt: str) -> str:
    label = "g^{}" if fmt == "text" else "g^{{{}}}"
    return _lines(f"{label.format(n)}: {format_expression(series.order(n), fmt)}"
                  for n in range(series.max_order + 1))


def _show_report(report, fmt: str) -> str:
    flags = sorted(report.per_order_hermitian.items())
    return _lines([*(f"g^{n}: {_word(flag)}" for n, flag in flags),
                   f"verdict: {_word(report.verdict)}"])


def _show_swanson(params: SwansonParams, fmt: str) -> str:
    # constant symbols, in text style for LaTeX too
    return _lines(f"{name} = {format_expression(PhaseSymbol.monomial(getattr(params, name)))}"
                  for name in ("a", "b", "c"))


def _show_candidates(candidates, fmt: str) -> str:
    return _lines(format_expression(PhaseSymbol.exponential(eq), fmt) for eq in candidates)


@functools.cache  # n alone; finite.isomorphism_checks refuses n outside 2..64 first
def _finite_header(n: int) -> str:
    """finite-demo's dimension line and matrices, under every numpy print option pinned so
    that a caller's options neither change the text nor freeze into the cache."""
    import numpy as np

    from . import finite

    with np.printoptions(precision=6, suppress=True, linewidth=120, threshold=1000,
                         edgeitems=3, sign="-", floatmode="maxprec", legacy=False,
                         formatter=None, nanstr="nan", infstr="inf"):
        return _lines([f"dimension {n}, phase angle 2*pi/{n}",
                       "clock matrix:", str(finite.clock(n)),
                       "shift matrix:", str(finite.shift(n))])


def _finite_demo(args) -> dict:
    from . import finite

    checks = finite.isomorphism_checks(args.n, args.pairs, args.seed)
    return {"n": args.n, "pairs": args.pairs, "seed": args.seed, "tolerance": args.tolerance,
            "checks": checks, "pass": all(dev < args.tolerance for dev in checks.values())}


def _finite_json(doc: dict) -> dict:
    return {**doc, "checks": {name: dev if math.isfinite(dev) else None  # JSON has no NaN
                              for name, dev in doc["checks"].items()}}


def _show_finite(doc: dict, fmt: str) -> str:
    return _finite_header(doc["n"]) + _lines(
        [*(f"{name}: max deviation {dev:.3e}" for name, dev in doc["checks"].items()),
         f"result: {'ok' if doc['pass'] else 'FAILED'} (tolerance {doc['tolerance']:g})"])


class _Command(NamedTuple):
    help: str
    flags: tuple  # (flag, add_argument keywords) pairs, in --help order after --format
    compute: Callable[[argparse.Namespace], object]
    json_value: Callable[[object], object]  # result -> what dumps writes; late-bound builders
    render: Callable[[object, str], str]  # (result, text or latex) -> the whole stdout
    exit_code: Callable[[object], int] = lambda result: 0  # result -> code once stdout is written


def _itself(result):
    return result


def _symbol_flags(name: str, json_flag: str = "--from-json") -> tuple:
    return (f"--{name}", {}), (json_flag, {"metavar": "PATH"})


def _series_flags() -> tuple:
    return (("--potential", {}), ("--order", {"type": _int_at_least(1), "default": 1}),
            ("--from-json", {"metavar": "PATH", "help": "metric series document"}))


def _fraction_flags(*names: str) -> tuple:
    return tuple((f"--{name}", {"type": _fraction, "required": True}) for name in names)


_COMMANDS = {
    "star": _Command(
        "star product of two symbols",
        _symbol_flags("left", "--left-from-json") + _symbol_flags("right", "--right-from-json"),
        lambda args: _symbol(args, "left", "left_from_json").star(
            _symbol(args, "right", "right_from_json")),
        _itself, _show_symbol),
    "dagger": _Command("symbol of the hermitian-conjugate operator", _symbol_flags("expr"),
                       lambda args: _symbol(args, "expr").dagger(),
                       _itself, _show_symbol),
    "conj": _Command("complex conjugate of a symbol", _symbol_flags("expr"),
                     lambda args: _symbol(args, "expr").conjugate(),
                     _itself, _show_symbol),
    "is-hermitian": _Command("test the hermiticity criterion", _symbol_flags("expr"),
                             lambda args: _symbol(args, "expr").is_hermitian(),
                             lambda flag: {"hermitian": flag},
                             lambda flag, fmt: _word(flag) + "\n"),
    "derive-pde": _Command("differential operator of the metric equation",
                           _symbol_flags("hamiltonian"),
                           lambda args: derive_metric_operator(_symbol(args, "hamiltonian")),
                           lambda op: serialize.operator_to_obj(op), _show_operator),
    "apply-pde": _Command("apply the metric operator of H to a symbol",
                          (("--hamiltonian", {"required": True}),
                           *_symbol_flags("target", "--target-from-json")),
                          lambda args: _applied(args, "target"),
                          _itself, _show_symbol),
    "residual": _Command("metric-equation residual of a candidate",
                         (("--hamiltonian", {"required": True}),
                          *_symbol_flags("metric", "--metric-from-json")),
                         lambda args: _applied(args, "metric"),
                         _itself, _show_symbol),
    "solve-metric": _Command(
        "perturbative metric series for p^2 + g*V(x)",
        (("--potential", {"required": True}),
         ("--order", {"type": _int_at_least(1), "required": True})),
        lambda args: solve_metric_series(parse_expression(args.potential), args.order),
        _itself, _show_series),
    "log-metric": _Command("star-logarithm of a metric series", _series_flags(),
                           lambda args: star_log(_series(args)),
                           _itself, _show_series),
    "positivity": _Command("hermiticity report for the star-log", _series_flags(),
                           lambda args: positivity_evidence(_series(args)),
                           lambda report: serialize.report_to_obj(report), _show_report),
    "swanson": _Command("quadratic-model couplings from ladder parameters",
                        _fraction_flags("omega", "alpha", "beta"),
                        lambda args: swanson_from_ladder(args.omega, args.alpha, args.beta),
                        lambda params: serialize.swanson_to_obj(params), _show_swanson),
    "gaussian-candidates": _Command(
        "exact Gaussian metrics of the quadratic model",
        (*_fraction_flags("a", "b", "c"),
         ("--s", {"default": "0", "help": "hbar-Laurent scalar expression"})),
        lambda args: gaussian_metric_candidates(SwansonParams(args.a, args.b, args.c),
                                                parse_hbar_scalar(args.s)),
        lambda eqs: serialize.candidates_to_obj(eqs), _show_candidates),
    "finite-demo": _Command(  # writes its check table even when a check fails
        "clock/shift matrices and isomorphism checks",
        (("--n", {"type": int, "required": True}),
         ("--pairs", {"type": _int_at_least(1), "default": 50}),
         ("--seed", {"type": _int_at_least(0), "default": 7}),
         ("--tolerance", {"type": _positive_float, "default": 1e-9})),
        _finite_demo, _finite_json, _show_finite,
        lambda doc: 0 if doc["pass"] else 1),
}


@functools.cache  # parsing leaves the parsers unchanged; build them once per process
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's sub-parser, by command name."""
    parser = argparse.ArgumentParser(
        prog="moyalmetric",
        description="Exact star-product calculus for metric operators of "
                    "non-hermitian Hamiltonians.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, command in _COMMANDS.items():
        p = commands[name] = sub.add_parser(name, help=command.help)
        p.add_argument("--format", choices=("text", "latex", "json"), default="text")
        for flag, options in command.flags:
            p.add_argument(flag, **options)
    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def _bind_dash_values(argv: list[str]) -> list[str]:
    """argv with each value that begins with a single '-' joined to the flag before it
    as --flag=value, in one pass: argparse alone reads '-1/2' or '-x' there as an
    unknown option.  Every flag is -h or begins with '--', so those stay flags; --help,
    its prefixes and the separator -- take no value."""
    out: list[str] = []
    for arg in argv:
        if (out and arg[:1] == "-" and arg[:2] != "--" and arg != "-h"
                and out[-1][:2] == "--" and "=" not in out[-1]
                and not "--help".startswith(out[-1])):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as parse_args does, in one pass where argv[0] names a command: the
    top-level parser hands everything after the command to that command's sub-parser
    and refuses what it leaves over, so that sub-parser can take it directly.  An empty
    argv, -h, --help or an unknown word goes through the top-level parser."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(_bind_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        command = _COMMANDS[args.command]
        result = command.compute(args)
        out = (serialize.dumps(command.json_value(result)) + "\n" if args.format == "json"
               else command.render(result, args.format))
    except (ParseError, InvalidDocument) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MoyalError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return command.exit_code(result)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
