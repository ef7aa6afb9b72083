"""Batch command-line front end.

Exit codes: 0 on success, 1 on domain errors (non-terminating series,
irrational discriminants, failed finite-dimensional checks, ...), 2 on usage
and parse errors.  Output goes to stdout in the selected --format
(text, latex or json); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction

import numpy as np

from . import finite, serialize
from .errors import InvalidDocument, MoyalError, ParseError
from .formatting import format_expression
from .parsing import parse_expression, parse_hbar_scalar
from .pde import (DifferentialOperator, SwansonParams, derive_metric_operator,
                  gaussian_metric_candidates, residual, swanson_from_ladder)
from .rationals import GaussianRational
from .series import MetricSeries, solve_metric_series
from .starlog import positivity_evidence, star_log
from .symbols import PhaseSymbol


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


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


def _read_symbol(args, text_attr: str, json_attr: str, what: str) -> PhaseSymbol:
    text = getattr(args, text_attr, None)
    path = getattr(args, json_attr, None)
    if (text is None) == (path is None):
        raise InvalidDocument(f"exactly one of --{what} or its JSON variant is required")
    if text is not None:
        return parse_expression(text)
    return serialize.symbol_from_obj(serialize.load_document(path))


def _read_series(args) -> MetricSeries:
    if getattr(args, "from_json", None):
        return serialize.series_from_obj(serialize.load_document(args.from_json))
    if args.potential is None:
        raise InvalidDocument("either --potential/--order or --from-json is required")
    return solve_metric_series(parse_expression(args.potential), args.order)


def _print_symbol(sym: PhaseSymbol, fmt: str) -> None:
    print(format_expression(sym, fmt))


def _print_series(series: MetricSeries, fmt: str) -> None:
    if fmt == "json":
        print(serialize.dumps(serialize.series_to_obj(series)))
        return
    for n in range(series.max_order + 1):
        label = f"g^{n}" if fmt == "text" else f"g^{{{n}}}"
        print(f"{label}: {format_expression(series.order(n), fmt)}")


def _print_operator(op: DifferentialOperator, fmt: str) -> None:
    if fmt == "json":
        print(serialize.dumps(serialize.operator_to_obj(op)))
        return
    for (m, n), coeff in sorted(op.terms.items()):
        if fmt == "text":
            print(f"Dx^{m} Dp^{n}: {format_expression(coeff, 'text')}")
        else:
            print(f"\\partial_x^{{{m}}}\\partial_p^{{{n}}}: {format_expression(coeff, 'latex')}")


def _cmd_star(args) -> int:
    left = _read_symbol(args, "left", "left_from_json", "left")
    right = _read_symbol(args, "right", "right_from_json", "right")
    _print_symbol(left.star(right), args.format)
    return 0


def _cmd_dagger(args) -> int:
    sym = _read_symbol(args, "expr", "from_json", "expr")
    _print_symbol(sym.dagger(), args.format)
    return 0


def _cmd_conj(args) -> int:
    sym = _read_symbol(args, "expr", "from_json", "expr")
    _print_symbol(sym.conjugate(), args.format)
    return 0


def _cmd_is_hermitian(args) -> int:
    sym = _read_symbol(args, "expr", "from_json", "expr")
    verdict = sym.is_hermitian()
    if args.format == "json":
        print(serialize.dumps({"hermitian": verdict}))
    else:
        print("true" if verdict else "false")
    return 0


def _cmd_derive_pde(args) -> int:
    ham = _read_symbol(args, "hamiltonian", "from_json", "hamiltonian")
    _print_operator(derive_metric_operator(ham), args.format)
    return 0


def _cmd_apply_pde(args) -> int:
    ham = parse_expression(args.hamiltonian)
    target = _read_symbol(args, "target", "target_from_json", "target")
    _print_symbol(derive_metric_operator(ham).apply(target), args.format)
    return 0


def _cmd_residual(args) -> int:
    ham = parse_expression(args.hamiltonian)
    metric = _read_symbol(args, "metric", "metric_from_json", "metric")
    _print_symbol(residual(ham, metric), args.format)
    return 0


def _cmd_solve_metric(args) -> int:
    series = solve_metric_series(parse_expression(args.potential), args.order)
    _print_series(series, args.format)
    return 0


def _cmd_log_metric(args) -> int:
    _print_series(star_log(_read_series(args)), args.format)
    return 0


def _cmd_positivity(args) -> int:
    report = positivity_evidence(_read_series(args))
    if args.format == "json":
        print(serialize.dumps(serialize.report_to_obj(report)))
        return 0
    for n, flag in sorted(report.per_order_hermitian.items()):
        print(f"g^{n}: {'true' if flag else 'false'}")
    print(f"verdict: {'true' if report.verdict else 'false'}")
    return 0


def _cmd_swanson(args) -> int:
    params = swanson_from_ladder(args.omega, args.alpha, args.beta)
    if args.format == "json":
        print(serialize.dumps(serialize.swanson_to_obj(params)))
    else:
        for name in ("a", "b", "c"):
            print(f"{name} = {getattr(params, name)}")
    return 0


def _cmd_gaussian_candidates(args) -> int:
    params = SwansonParams(a=GaussianRational(args.a), b=GaussianRational(args.b),
                           c=GaussianRational(args.c))
    s = parse_hbar_scalar(args.s)
    candidates = gaussian_metric_candidates(params, s)
    if args.format == "json":
        print(serialize.dumps(serialize.candidates_to_obj(candidates)))
        return 0
    for eq in candidates:
        print(format_expression(PhaseSymbol.exponential(eq), args.format))
    return 0


def _finite_checks(n: int, pairs: int, seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    g, h = finite.clock(n), finite.shift(n)
    phi = finite.phase_angle(n)
    eye = np.eye(n)
    checks: dict[str, float] = {}
    checks["gh_phase"] = float(np.max(np.abs(g @ h - np.exp(1j * phi) * h @ g)))
    checks["g_power_n"] = float(np.max(np.abs(np.linalg.matrix_power(g, n) - eye)))
    checks["h_power_n"] = float(np.max(np.abs(np.linalg.matrix_power(h, n) - eye)))
    checks["trace_gh"] = float(abs(np.trace(g @ h)))

    # Gram matrix tr(U_i^dag U_j) = N * delta_ij, one row per matvec; np.max keeps a NaN
    flat = finite.basis_words(n).reshape(n * n, n * n)
    gram_rows = np.empty(n * n)
    for i, word in enumerate(flat):
        row = flat @ np.conj(word)
        row[i] -= n
        gram_rows[i] = np.abs(row).max()
    checks["trace_orthogonality"] = float(np.max(gram_rows))

    devs = np.empty((pairs, 3))  # round trip, star, dagger per pair
    for k in range(pairs):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        sa, sb = finite.to_symbol(A), finite.to_symbol(B)
        devs[k, 0] = np.max(np.abs(finite.from_symbol(sa) - A))
        prod = finite.discrete_star(sa, sb)
        devs[k, 1] = np.max(np.abs(prod.coeffs - finite.to_symbol(A @ B).coeffs))
        dag = finite.discrete_dagger(sa)
        devs[k, 2] = np.max(np.abs(dag.coeffs - finite.to_symbol(A.conj().T).coeffs))
    checks["round_trip"], checks["star_isomorphism"], checks["dagger_transpose"] = (
        float(dev) for dev in np.max(devs, axis=0))
    return checks


def _cmd_finite_demo(args) -> int:
    n = args.n
    checks = _finite_checks(n, args.pairs, args.seed)
    passed = all(dev < args.tolerance for dev in checks.values())
    if args.format == "json":
        finite_checks = {name: dev if math.isfinite(dev) else None  # JSON has no NaN
                         for name, dev in checks.items()}
        print(serialize.dumps({"n": n, "pairs": args.pairs, "seed": args.seed,
                               "tolerance": args.tolerance, "checks": finite_checks,
                               "pass": passed}))
    else:
        np.set_printoptions(precision=6, suppress=True, linewidth=120)
        print(f"dimension {n}, phase angle 2*pi/{n}")
        print("clock matrix:")
        print(finite.clock(n))
        print("shift matrix:")
        print(finite.shift(n))
        for name, dev in checks.items():
            print(f"{name}: max deviation {dev:.3e}")
        print(f"result: {'ok' if passed else 'FAILED'} (tolerance {args.tolerance:g})")
    return 0 if passed else 1


@functools.cache  # parse_args leaves the parser unchanged; build it once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moyalmetric",
        description="Exact star-product calculus for metric operators of "
                    "non-hermitian Hamiltonians.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "latex", "json"), default="text")
        p.set_defaults(func=func)
        return p

    p = add("star", _cmd_star, "star product of two symbols")
    p.add_argument("--left")
    p.add_argument("--left-from-json", metavar="PATH")
    p.add_argument("--right")
    p.add_argument("--right-from-json", metavar="PATH")

    for name, func, help_text in (
            ("dagger", _cmd_dagger, "symbol of the hermitian-conjugate operator"),
            ("conj", _cmd_conj, "complex conjugate of a symbol"),
            ("is-hermitian", _cmd_is_hermitian, "test the hermiticity criterion")):
        p = add(name, func, help_text)
        p.add_argument("--expr")
        p.add_argument("--from-json", metavar="PATH")

    p = add("derive-pde", _cmd_derive_pde, "differential operator of the metric equation")
    p.add_argument("--hamiltonian")
    p.add_argument("--from-json", metavar="PATH")

    p = add("apply-pde", _cmd_apply_pde, "apply the metric operator of H to a symbol")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--target")
    p.add_argument("--target-from-json", metavar="PATH")

    p = add("residual", _cmd_residual, "metric-equation residual of a candidate")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--metric")
    p.add_argument("--metric-from-json", metavar="PATH")

    p = add("solve-metric", _cmd_solve_metric, "perturbative metric series for p^2 + g*V(x)")
    p.add_argument("--potential", required=True)
    p.add_argument("--order", type=_int_at_least(1), required=True)

    for name, func, help_text in (
            ("log-metric", _cmd_log_metric, "star-logarithm of a metric series"),
            ("positivity", _cmd_positivity, "hermiticity report for the star-log")):
        p = add(name, func, help_text)
        p.add_argument("--potential")
        p.add_argument("--order", type=_int_at_least(1), default=1)
        p.add_argument("--from-json", metavar="PATH", help="metric series document")

    p = add("swanson", _cmd_swanson, "quadratic-model couplings from ladder parameters")
    p.add_argument("--omega", type=_fraction, required=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--beta", type=_fraction, required=True)

    p = add("gaussian-candidates", _cmd_gaussian_candidates,
            "exact Gaussian metrics of the quadratic model")
    p.add_argument("--a", type=_fraction, required=True)
    p.add_argument("--b", type=_fraction, required=True)
    p.add_argument("--c", type=_fraction, required=True)
    p.add_argument("--s", default="0", help="hbar-Laurent scalar expression")

    p = add("finite-demo", _cmd_finite_demo, "clock/shift matrices and isomorphism checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pairs", type=_int_at_least(1), default=50)
    p.add_argument("--seed", type=_int_at_least(0), default=7)
    p.add_argument("--tolerance", type=_positive_float, default=1e-9)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (ParseError, InvalidDocument) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MoyalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
