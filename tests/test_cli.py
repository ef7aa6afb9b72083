import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from moyalmetric import cli, parse_expression, solve_metric_series
from moyalmetric.cli import main
from moyalmetric.rationals import MAX_ROOT_TERMS
from moyalmetric.series import MetricSeries
from moyalmetric.serialize import series_from_obj, series_to_obj, symbol_from_obj, symbol_to_obj
from moyalmetric.symbols import MAX_LIVE_ORDER, MAX_POWER_TERM_PAIRS, PhaseSymbol

LIMIT = sys.get_int_max_str_digits()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _count_hbar_scalars(monkeypatch) -> list:
    """Record every HbarScalar built from here on: by the constructor, and by the
    private constructor through which the arithmetic wraps its canonical results."""
    from moyalmetric import rationals

    built = []
    tuple_new, canonical = rationals.HbarScalar.__new__, rationals._scalar

    def counting_new(cls, terms=()):
        built.append(terms)
        return tuple_new(cls, terms)

    def counting_scalar(pairs):
        built.append(pairs)
        return canonical(pairs)

    monkeypatch.setattr(rationals.HbarScalar, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(rationals, "_scalar", counting_scalar)
    return built


def finite_demo_oracle(n: int, pairs: int, seed: int, tolerance: float) -> str:
    """finite-demo's text output as the earlier handler printed it, line by line under
    numpy's default print options, rendered by the installed numpy."""
    import numpy as np

    from moyalmetric import finite
    from moyalmetric.cli import _finite_checks

    checks = _finite_checks(n, pairs, seed)
    passed = all(dev < tolerance for dev in checks.values())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        print(f"dimension {n}, phase angle 2*pi/{n}")
        with np.printoptions(precision=6, suppress=True, linewidth=120):
            print("clock matrix:")
            print(finite.clock(n))
            print("shift matrix:")
            print(finite.shift(n))
        for name, dev in checks.items():
            print(f"{name}: max deviation {dev:.3e}")
        print(f"result: {'ok' if passed else 'FAILED'} (tolerance {tolerance:g})")
    return out.getvalue()


class TestBasicCommands:
    def test_star(self, capsys):
        code, out, _ = run(capsys, "star", "--left", "x", "--right", "p")
        assert code == 0
        assert out.strip() == "i*hbar + x*p"

    def test_star_non_terminating_exits_1(self, capsys):
        code, out, err = run(capsys, "star",
                             "--left", "exp(2*i*x*p/hbar)",
                             "--right", "exp(2*i*x*p/hbar)")
        assert code == 1
        assert "terminate" in err
        assert not out

    def test_dagger_and_conj(self, capsys):
        code, out, _ = run(capsys, "dagger", "--expr", "p^2 + i*g*x^3")
        assert code == 0
        assert parse_expression(out.strip()) == parse_expression("p^2 - i*g*x^3")
        code, out, _ = run(capsys, "conj", "--expr", "i*x")
        assert code == 0
        assert out.strip() == "-i*x"

    def test_is_hermitian(self, capsys):
        code, out, _ = run(capsys, "is-hermitian", "--expr", "p^2 + x^2")
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(capsys, "is-hermitian", "--expr", "i*g*x^3")
        assert (code, out.strip()) == (0, "false")

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "is-hermitian", "--expr", "p^2 +* x")
        assert code == 2
        assert "byte" in err

    def test_division_by_zero_exits_2(self, capsys):
        for argv in (("dagger", "--expr", "x/0"),
                     ("gaussian-candidates", "--a", "1", "--b", "1", "--c", "1", "--s", "1/0")):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", "error: division by zero (at byte 1)\n")

    def test_usage_error_exits_2(self, capsys):
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_derive_pde(self, capsys):
        code, out, _ = run(capsys, "derive-pde", "--hamiltonian", "p^2 + i*g*x^3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "Dx^0 Dp^0: 2*i*g*x^3"
        assert len(lines) == 6

    def test_derive_pde_of_a_zero_operator_prints_0(self, capsys):
        for hamiltonian in ("1", "0"):
            for fmt in ("text", "latex"):
                assert run(capsys, "derive-pde", "--hamiltonian", hamiltonian,
                           "--format", fmt) == (0, "0\n", "")
            code, out, _ = run(capsys, "derive-pde", "--hamiltonian", hamiltonian,
                               "--format", "json")
            assert (code, json.loads(out)) == (0, {"terms": []})

    def test_apply_pde_kernel(self, capsys):
        code, out, _ = run(capsys, "apply-pde", "--hamiltonian", "p^2 + i*g*x^3",
                           "--target", "exp(2*i*x*p/hbar)")
        assert (code, out.strip()) == (0, "0")

    def test_residual(self, capsys):
        code, out, _ = run(capsys, "residual", "--hamiltonian", "p^2 + x^2",
                           "--metric", "1")
        assert (code, out.strip()) == (0, "0")

    def test_swanson(self, capsys):
        code, out, _ = run(capsys, "swanson", "--omega", "2", "--alpha", "1",
                           "--beta", "0")
        assert code == 0
        assert out.splitlines() == ["a = 1/2", "b = 3/2", "c = 1"]

    def test_swanson_prints_its_couplings_as_text_in_both_styles(self, capsys):
        for argv, out in ((("--omega", "1", "--alpha", "2", "--beta", "0"),
                           "a = -1/2\nb = 3/2\nc = 2\n"),
                          (("--omega", "2", "--alpha", "1", "--beta", "1"),
                           "a = 0\nb = 2\nc = 0\n")):
            for fmt in ("text", "latex"):
                assert run(capsys, "swanson", *argv, "--format", fmt) == (0, out, "")

    def test_gaussian_candidates(self, capsys):
        code, out, _ = run(capsys, "gaussian-candidates", "--a", "1/2",
                           "--b", "3/2", "--c", "1", "--s", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["exp(x^2*hbar^-1)", "exp(-1/3*p^2*hbar^-1)"]

    def test_gaussian_candidates_take_the_root_with_a_positive_real_part(self, capsys):
        # the discriminant leads with 12 - 16i = (4 - 2i)^2 = (-4 + 2i)^2
        assert run(capsys, "gaussian-candidates", "--a", "1", "--b", "2", "--c", "2",
                   "--s", "1/hbar") == (
            0, "exp((1/4-1/4*i)*p^2*hbar^-1 + x*p*hbar^-1 + (3/2-1/2*i)*x^2*hbar^-1)\n"
               "exp((-3/4+1/4*i)*p^2*hbar^-1 + x*p*hbar^-1 + (-1/2+1/2*i)*x^2*hbar^-1)\n", "")

    def test_gaussian_candidates_irrational_exits_1(self, capsys):
        code, _, err = run(capsys, "gaussian-candidates", "--a", "1/2",
                           "--b", "3/2", "--c", "1", "--s", "1")
        assert code == 1
        assert "square" in err

    def test_gaussian_candidates_over_wide_hbar_spans(self, capsys):
        # the Laurent root once looped over every power in the span: hbar^2000
        # took seconds and hbar^99999 did not finish
        for b, s, code, out, err in (
                ("-1", "hbar^2000", 0,
                 "exp(-1/2*i*p^2*hbar^2000 + x*p*hbar^2000 + x^2*hbar^-1"
                 " + 1/2*i*x^2*hbar^2000)\n"
                 "exp(p^2*hbar^-1 + 1/2*i*p^2*hbar^2000 + x*p*hbar^2000"
                 " - 1/2*i*x^2*hbar^2000)\n", ""),
                ("1", "hbar^99999", 1, "",
                 "error: discriminant is not a perfect square in the coefficient field\n")):
            start = time.perf_counter()
            got = run(capsys, "gaussian-candidates", "--a", "1", "--b", b, "--c", "2", "--s", s)
            assert time.perf_counter() - start < 2
            assert got == (code, out, err)

    def test_gaussian_candidates_refuse_a_dense_root_at_its_budget(self, capsys):
        # the discriminant's root has a term at every power from hbar^1 to
        # hbar^401, with growing coefficients: 2.7 s before the budget
        start = time.perf_counter()
        got = run(capsys, "gaussian-candidates", "--a", "1", "--b", "1", "--c", "2",
                  "--s", "2*i/hbar + 1 + hbar^400")
        assert time.perf_counter() - start < 0.1
        assert got == (1, "", f"error: square root has more than {MAX_ROOT_TERMS} terms\n")

    def test_solve_metric_text(self, capsys):
        code, out, _ = run(capsys, "solve-metric", "--potential", "i*x^3",
                           "--order", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "g^0: 1"
        assert "x^4*p^-1*hbar^-1" in lines[1]

    def test_positivity(self, capsys):
        code, out, _ = run(capsys, "positivity", "--potential", "i*x^3",
                           "--order", "3")
        assert code == 0
        assert out.strip().splitlines()[-1] == "verdict: true"

    def test_order_below_one_is_a_usage_error(self, capsys):
        for argv in (("solve-metric", "--potential", "i*x^3", "--order", "0"),
                     ("positivity", "--potential", "i*x^3", "--order", "-1"),
                     ("log-metric", "--potential", "i*x^3", "--order", "two")):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert not out
            assert "--order" in err

    def test_deep_nesting_is_a_parse_error(self, capsys):
        for left in ("(" * 5000 + "x" + ")" * 5000, "-" * 5000 + "x"):
            code, out, err = run(capsys, "star", f"--left={left}", "--right", "p")
            assert (code, out) == (2, "")
            assert err.count("\n") == 1
            assert "nests deeper" in err and "at byte 101" in err

    def test_coefficient_past_the_digit_limit_exits_1(self, capsys):
        for fmt in ("text", "latex", "json"):
            code, out, err = run(capsys, "dagger", "--expr", "2^99999", "--format", fmt)
            assert (code, out) == (1, "")
            assert err.count("\n") == 1 and f"more than {LIMIT} digits" in err
            assert "set_int_max_str_digits" not in err

    def test_swanson_coupling_past_the_digit_limit_exits_1(self, capsys):
        # a = (omega - alpha - beta)/2 = 3*nines/2 has one digit more than the limit
        nines = "9" * LIMIT
        for fmt in ("text", "latex", "json"):
            assert run(capsys, "swanson", "--omega", nines, f"--alpha=-{nines}",
                       f"--beta=-{nines}", "--format", fmt) == (
                1, "", f"error: coefficient has more than {LIMIT} digits, too long to print\n")

    @pytest.mark.parametrize("command, flag, others", [
        ("swanson", "omega", ("--alpha", "0", "--beta", "0")),
        ("gaussian-candidates", "c", ("--a", "1", "--b", "1"))])
    def test_rational_with_a_huge_exponent_is_refused_at_once(self, capsys, command, flag,
                                                             others):
        # Fraction("1e10000000") alone takes seconds, building 10**exponent first
        for value in ("1e100000000", "-1e100000000", "1e-100000000", f"7E+{LIMIT + 1}"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, f"--{flag}={value}", *others)
            assert time.perf_counter() - start < 1
            assert (code, out) == (2, "")
            assert err.splitlines()[-1] == (
                f"moyalmetric {command}: error: argument --{flag}: exponent larger than "
                f"{LIMIT} in magnitude: {value!r}")
        # an exponent at the limit reaches the coefficient's digit-limit refusal
        assert run(capsys, command, f"--{flag}=7e{LIMIT}", *others) == (
            1, "", f"error: coefficient has more than {LIMIT} digits, too long to print\n")

    def test_refused_rational_is_echoed_in_at_most_40_characters(self, capsys):
        for value in ("7" * 5000, "1e" + "9" * 5000):
            code, out, err = run(capsys, "swanson", "--omega", value, "--alpha", "0",
                                 "--beta", "0")
            assert (code, out) == (2, "")
            assert err.splitlines()[-1] == ("moyalmetric swanson: error: argument --omega: "
                                            f"not a rational number: {value[:37] + '...'!r}")

    def test_exponent_past_the_digit_limit_exits_1(self, capsys):
        nines = "9" * 4000
        for expr in (f"(x^{nines})^{nines}", f"exp(p^2*(hbar^{nines})^{nines})"):
            for fmt in ("text", "latex", "json"):
                code, out, err = run(capsys, "dagger", "--expr", expr, "--format", fmt)
                assert (code, out) == (1, "")
                assert err == f"error: exponent has more than {LIMIT} digits, too long to print\n"

    def test_live_order_past_the_digit_limit_exits_1(self, capsys):
        # the refusals name the power that needs the order, so they cannot print it either
        nines = "9" * 4000
        for argv in (("derive-pde", "--hamiltonian", f"p^2+(x^{nines})^{nines}"),
                     ("derive-pde", "--hamiltonian", f"p^2+x+(p^{nines})^{nines}"),
                     ("star", "--left", f"(x^{nines})^{nines}", "--right", f"(p^{nines})^{nines}"),
                     ("dagger", "--expr", f"(x^{nines})^{nines}*(p^{nines})^{nines}")):
            for fmt in ("text", "latex", "json"):
                assert run(capsys, *argv, "--format", fmt) == (
                    1, "", f"error: exponent has more than {LIMIT} digits, too long to print\n")

    def test_result_too_long_to_print_prints_nothing(self, capsys, tmp_path):
        # g^0 and g^1 of the log print; its g^2 slice carries the 7999-digit square
        series = MetricSeries({0: PhaseSymbol.monomial(1),
                               1: PhaseSymbol.monomial(10 ** 3999 + 7, x=1)}, 2)
        doc = tmp_path / "series.json"
        doc.write_text(json.dumps(series_to_obj(series)))
        for fmt in ("text", "latex", "json"):
            code, out, err = run(capsys, "log-metric", "--from-json", str(doc), "--format", fmt)
            assert (code, out) == (1, "")
            assert err.count("\n") == 1 and f"more than {LIMIT} digits" in err

    def test_power_past_the_budget_exits_1(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "dagger", "--expr", "(1+x+p)^1000")
        assert time.perf_counter() - start < 5
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and f"limit of {MAX_POWER_TERM_PAIRS}" in err

    def test_coefficient_powers_past_the_digit_limit_are_refused(self, capsys):
        for expr in ("2^10000000000", "(1/3)^100000", "2^20000/2^20000"):
            start = time.perf_counter()
            code, out, err = run(capsys, "dagger", "--expr", expr)
            assert time.perf_counter() - start < 5
            assert (code, out) == (1, "")
            assert err == f"error: coefficient has more than {LIMIT} digits, too long to print\n"

    def test_modulus_one_coefficient_powers(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "dagger", "--expr", "((3+4*i)/5)^1000000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == f"error: coefficient has more than {LIMIT} digits, too long to print\n"
        assert run(capsys, "star", "--left", "((3+4*i)/5)^2", "--right", "1") == (
            0, "(-7/25+24/25*i)\n", "")
        assert run(capsys, "star", "--left", "((1+i)/2)^2", "--right", "1") == (0, "1/2*i\n", "")

    def test_coefficient_powers_within_the_digit_limit(self, capsys):
        for expr, expected in (("2^14000", f"{2 ** 14000}\n"), ("i^1000000", "1\n"),
                               ("(2*p)^-3", "1/8*p^-3\n")):
            assert run(capsys, "dagger", "--expr", expr) == (0, expected, "")
        code, out, err = run(capsys, "dagger", "--expr", "(x+p)^-1")
        assert (code, out) == (2, "")
        assert err == "error: negative power of x or g is not representable (at byte 0)\n"

    def test_polynomial_requests_build_no_hbar_scalar(self, capsys, monkeypatch):
        from moyalmetric.rationals import HbarScalar

        built = _count_hbar_scalars(monkeypatch)
        scalar = HbarScalar([(1, 2)])
        assert scalar == ((1, 2),) and len(built) == 1
        assert -scalar == ((1, -2),) and scalar * scalar == ((2, 4),) and len(built) == 3
        built.clear()
        for argv in (("positivity", "--potential", "i*x^3", "--order", "5"),
                     ("solve-metric", "--potential", "i*x^3+x^2", "--order", "8",
                      "--format", "json"),
                     ("dagger", "--expr", "x^2*p^3+i*x*p")):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out
        assert built == []

    def test_polynomial_documents_load_no_hbar_scalar(self, capsys, monkeypatch, tmp_path):
        doc = tmp_path / "series.json"
        code, out, _ = run(capsys, "solve-metric", "--potential", "i*x^3", "--order", "5",
                           "--format", "json")
        assert code == 0
        doc.write_text(out)
        code, expected, _ = run(capsys, "positivity", "--potential", "i*x^3", "--order", "5")
        assert code == 0
        built = _count_hbar_scalars(monkeypatch)
        assert run(capsys, "positivity", "--from-json", str(doc)) == (0, expected, "")
        assert built == []

    def test_non_invertible_power_names_its_reason(self, capsys):
        negative = "negative power of x or g is not representable"
        monomial = "only a single monomial can be inverted"
        for expr, reason, offset in (("x^-1", negative, 0), ("(x+p)^-1", negative, 0),
                                     ("p*exp(x^2)^-1", monomial, 2), ("1+0^-1", monomial, 2)):
            code, out, err = run(capsys, "dagger", "--expr", expr)
            assert (code, out) == (2, "")
            assert err == f"error: {reason} (at byte {offset})\n"

    def test_number_past_the_digit_limit_is_a_parse_error(self, capsys):
        digits = "7" * 5000
        for expr, offset in ((digits, 0), (f"x^{digits}", 2), (f"x^-{digits}", 3)):
            code, out, err = run(capsys, "dagger", "--expr", expr)
            assert (code, out) == (2, "")
            assert err.count("\n") == 1 and f"at byte {offset}" in err
            assert f"more than {LIMIT} digits" in err
            assert "set_int_max_str_digits" not in err

    def test_non_termination_names_the_blocking_factors(self, capsys):
        code, out, err = run(capsys, "star", "--left", "x + exp(i*x*p/hbar)",
                             "--right", "p + 1/p^2")
        assert (code, out) == (1, "")
        assert err == ("error: star series does not terminate: left factor has "
                       "x-dependent exp(i*x*p*hbar^-1) and right factor has "
                       "negative power p^-2\n")
        code, out, err = run(capsys, "is-hermitian", "--expr", "x^2*exp(x^2)/p + exp(p^2)")
        assert (code, out) == (1, "")
        assert err == ("error: twist series does not terminate: symbol has "
                       "x-dependent exp(x^2) and negative power p^-1\n")

    def test_sums_of_terminating_parts_twist(self, capsys):
        assert run(capsys, "is-hermitian", "--expr", "exp(x^2) + exp(p^2)") == (0, "true\n", "")
        code, out, err = run(capsys, "dagger", "--expr", "x^2*p^-1 + exp(x^2)")
        assert (code, err) == (0, "")
        assert (parse_expression(out.strip())
                == parse_expression("x^2*p^-1 - 2*i*x*p^-2*hbar - 2*p^-3*hbar^2 + exp(x^2)"))

    def test_dagger_refusal_names_the_input_exponent(self, capsys):
        code, out, err = run(capsys, "dagger", "--expr", "exp(i*p*x/hbar)")
        assert (code, out) == (1, "")
        assert err == ("error: twist series does not terminate: symbol has "
                       "x-dependent exp(i*x*p*hbar^-1) and p-dependent exp(i*x*p*hbar^-1)\n")

    def test_help_text_is_unchanged(self, capsys, monkeypatch):
        # cli_help.txt holds argparse's layout on CPython 3.11, the version CI runs
        monkeypatch.setenv("COLUMNS", "80")
        golden = (Path(__file__).parent / "cli_help.txt").read_text()
        pieces = re.split(r"^==> moyalmetric (.*?)--help <==\n", golden, flags=re.M)[1:]
        assert len(pieces) == 2 * 14  # the top level and every subcommand
        for command, expected in zip(pieces[::2], pieces[1::2]):
            code, out, _ = run(capsys, *command.split(), "--help")
            assert (code, out) == (0, expected), command

    def test_parser_is_built_once(self):
        from moyalmetric.cli import build_parser

        assert build_parser() is build_parser()

    def test_every_sub_parser_is_a_table_row(self):
        assert set(cli._parsers()[1]) == set(cli._COMMANDS)

    def test_order_past_the_limit_exits_1(self, capsys, tmp_path):
        from moyalmetric.series import MAX_ORDER

        code, out, err = run(capsys, "solve-metric", "--potential", "i*x^3",
                             "--order", str(MAX_ORDER + 1))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and f"limit of {MAX_ORDER}" in err
        doc = tmp_path / "series.json"
        doc.write_text(json.dumps({"max_order": 10 ** 9, "orders": {}}))
        code, out, err = run(capsys, "log-metric", "--from-json", str(doc))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and "max_order" in err

    def test_finite_demo(self, capsys):
        code, out, _ = run(capsys, "finite-demo", "--n", "3", "--pairs", "5")
        assert code == 0
        assert "result: ok" in out

    def test_finite_demo_leaves_numpy_print_options_alone(self, capsys):
        import numpy as np

        before = np.get_printoptions()
        code, out, _ = run(capsys, "finite-demo", "--n", "3", "--pairs", "2")
        assert code == 0 and "result: ok" in out
        assert np.get_printoptions() == before

    @pytest.mark.parametrize("n", [2, 3, 5, 13, 31, 32, 64])  # numpy summarises from 32
    @pytest.mark.parametrize("fmt", ["text", "latex"])
    def test_finite_demo_text_matches_the_print_oracle(self, capsys, n, fmt):
        expected = finite_demo_oracle(n, pairs=1, seed=7, tolerance=1e-9)
        for _ in range(2):  # the second call reads the cached matrix text
            assert run(capsys, "finite-demo", "--n", str(n), "--pairs", "1",
                       "--format", fmt) == (0, expected, "")

    def test_finite_demo_text_ignores_the_callers_print_options(self, capsys):
        import numpy as np

        from moyalmetric.cli import _finite_header

        expected = finite_demo_oracle(5, pairs=2, seed=7, tolerance=1e-9)
        _finite_header.cache_clear()  # the first render happens under the caller's options
        with np.printoptions(threshold=5, sign="+"):
            for _ in range(2):
                assert run(capsys, "finite-demo", "--n", "5", "--pairs", "2") == (0, expected, "")
        assert run(capsys, "finite-demo", "--n", "5", "--pairs", "2") == (0, expected, "")

    def test_refused_dimensions_are_not_cached(self, capsys):
        from moyalmetric.cli import _finite_header

        size = _finite_header.cache_info().currsize
        for n in ("1", "65"):
            code, out, err = run(capsys, "finite-demo", "--n", n, "--pairs", "1")
            assert (code, out) == (1, "") and err.startswith("error: ")
        assert _finite_header.cache_info().currsize == size

    def test_finite_demo_json(self, capsys):
        code, out, _ = run(capsys, "finite-demo", "--n", "4", "--pairs", "3",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert all(dev < 1e-9 for dev in doc["checks"].values())


    def test_finite_demo_needs_pairs_and_a_seed(self, capsys):
        for flag, value in (("--pairs", "0"), ("--pairs", "-3"), ("--seed", "-1"),
                            ("--seed", "x")):
            code, out, err = run(capsys, "finite-demo", "--n", "3", flag, value)
            assert (code, out) == (2, "")
            assert f"argument {flag}" in err
        code, out, _ = run(capsys, "finite-demo", "--n", "3", "--pairs", "1",
                           "--seed", "0", "--format", "json")
        assert code == 0 and json.loads(out)["pass"] is True

    def test_finite_demo_tolerance_must_be_finite_and_positive(self, capsys):
        for value in ("nan", "inf", "-inf", "-1", "0", "x"):
            code, out, err = run(capsys, "finite-demo", "--n", "3", f"--tolerance={value}")
            assert (code, out) == (2, "")
            assert "argument --tolerance" in err and "finite number > 0" in err
        code, out, _ = run(capsys, "finite-demo", "--n", "3", "--pairs", "2",
                           "--tolerance", "1e-6", "--format", "json")
        assert code == 0 and json.loads(out)["tolerance"] == 1e-6

    def test_finite_demo_nan_deviation_fails(self, capsys, monkeypatch):
        from moyalmetric import finite
        exact_to_symbol = finite.to_symbol

        def to_symbol_with_nan(operator):
            symbol = exact_to_symbol(operator)
            symbol.coeffs[..., 0, 1] = float("nan")  # in every operator of a stack
            return symbol

        monkeypatch.setattr(finite, "to_symbol", to_symbol_with_nan)
        code, out, _ = run(capsys, "finite-demo", "--n", "4", "--pairs", "2")
        assert code == 1
        assert "round_trip: max deviation nan" in out and "result: FAILED" in out
        code, out, _ = run(capsys, "finite-demo", "--n", "4", "--pairs", "2",
                           "--format", "json")
        doc = json.loads(out)  # strict JSON: the NaN is reported as null
        assert code == 1 and doc["pass"] is False
        assert doc["checks"]["round_trip"] is None
        assert doc["checks"]["trace_orthogonality"] < 1e-9

    @pytest.mark.parametrize("n", [4, 64])  # one chunk of 3 pairs; chunks of 2 and 1
    def test_finite_demo_nan_in_the_last_pair_fails(self, capsys, monkeypatch, n):
        # Python's max() would drop a NaN that is not first; the pair maxima must not.
        from moyalmetric import finite

        pairs = 3
        for name, check in (("from_symbol", "round_trip"), ("discrete_star", "star_isomorphism")):
            for fmt in ("text", "latex", "json"):
                exact, calls = getattr(finite, name), []

                def nan_in_the_last_pair(*args, exact=exact, calls=calls):
                    out = exact(*args)
                    calls.append(args)
                    if len(calls) == pairs:  # an operator, or a symbol's coefficients
                        getattr(out, "coeffs", out)[0, 1] = float("nan")
                    return out

                with monkeypatch.context() as patch:
                    patch.setattr(finite, name, nan_in_the_last_pair)
                    code, out, _ = run(capsys, "finite-demo", "--n", str(n), "--pairs", str(pairs),
                                       "--format", fmt)
                assert code == 1 and len(calls) == pairs
                if fmt != "json":
                    assert f"{check}: max deviation nan" in out and "result: FAILED" in out
                    assert out.count(" nan") == 1
                else:
                    doc = json.loads(out)  # strict JSON: the NaN is reported as null
                    assert doc["pass"] is False
                    assert [key for key, dev in doc["checks"].items() if dev is None] == [check]
                    assert all(dev < 1e-9 for dev in doc["checks"].values() if dev is not None)

    def test_finite_demo_past_the_pairs_budget_exits_1(self, capsys):
        from moyalmetric.cli import MAX_PAIRS

        assert MAX_PAIRS >= 50  # the default
        for pairs in (MAX_PAIRS + 1, 10 ** 12):  # 10^12 pairs would be a 24 TB array
            start = time.perf_counter()
            code, out, err = run(capsys, "finite-demo", "--n", "2", "--pairs", str(pairs))
            assert time.perf_counter() - start < 1
            assert (code, out) == (1, "")
            assert err.count("\n") == 1 and "--pairs" in err and f"limit of {MAX_PAIRS}" in err

    def test_finite_demo_past_the_basis_budget_exits_1(self, capsys):
        code, out, err = run(capsys, "finite-demo", "--n", "65", "--pairs", "1")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and "at most 64, got 65" in err

    @pytest.mark.parametrize("n, message", [
        *((n, f"dimension must be an integer in [2, 256], got {n}") for n in (-1, 0, 1, 300)),
        *((n, f"the basis tensor takes 16*N^4 bytes; dimension must be at most 64, got {n}")
          for n in (65, 256)),
    ])
    def test_finite_demo_refuses_a_dimension(self, capsys, n, message):
        for _ in range(2):  # the second time 65 and 256 have passed the per-N checks before
            assert (run(capsys, "finite-demo", "--n", str(n), "--pairs", "1")
                    == (1, "", f"error: {message}\n"))

class TestDeterminismAndJson:
    def test_identical_invocations_byte_identical(self, capsys):
        args = ["solve-metric", "--potential", "i*x^3", "--order", "2",
                "--format", "json"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_symbol_json_round_trip_via_from_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, "star", "--left", "x^2 + i*p", "--right", "p^3",
                           "--format", "json")
        assert code == 0
        doc = tmp_path / "sym.json"
        doc.write_text(out)
        code, out2, _ = run(capsys, "dagger", "--from-json", str(doc))
        assert code == 0
        direct = parse_expression("x^2 + i*p").star(parse_expression("p^3")).dagger()
        assert parse_expression(out2.strip()) == direct

    def test_series_json_round_trip_via_from_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, "solve-metric", "--potential", "i*x^3",
                           "--order", "3", "--format", "json")
        assert code == 0
        doc = tmp_path / "series.json"
        doc.write_text(out)
        code, out2, _ = run(capsys, "log-metric", "--from-json", str(doc),
                            "--format", "json")
        assert code == 0
        from moyalmetric import solve_metric_series, star_log
        from moyalmetric.parsing import parse_expression as pe

        expected = star_log(solve_metric_series(pe("i*x^3"), 3))
        assert series_from_obj(json.loads(out2)) == expected

    def test_emitted_symbol_documents_reingest(self, capsys):
        code, out, _ = run(capsys, "dagger", "--expr", "x*p", "--format", "json")
        assert code == 0
        assert symbol_from_obj(json.loads(out)) == parse_expression("x*p").dagger()

    def test_bad_json_document_exits_2(self, capsys, tmp_path):
        doc = tmp_path / "bad.json"
        doc.write_text("{\"nope\": 1}")
        code, _, err = run(capsys, "dagger", "--from-json", str(doc))
        assert code == 2
        assert "document" in err

    @pytest.mark.parametrize("content", [
        b"[" * 100_000 + b"]" * 100_000, b'{"terms": 5}', b'{"terms": null}',
        b"[" + b"9" * 5000 + b"]", b'{"terms": [\xff]}'],
        ids=["deep", "terms-5", "terms-null", "long-int", "not-utf8"])
    def test_malformed_documents_exit_2(self, capsys, tmp_path, content):
        doc = tmp_path / "bad.json"
        doc.write_bytes(content)
        code, out, err = run(capsys, "dagger", "--from-json", str(doc))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and str(doc) in err
        assert "set_int_max_str_digits" not in err

    def test_non_integer_json_fields_exit_2(self, capsys, tmp_path):
        def poly_entry(**fields):
            entry = {"coeff": ["1", "1", "0", "1"], "x": 2, "p": 1, "hbar": 1, "g": 0}
            entry.update(fields)
            return {"terms": [{"exp": {"r": [], "s": [], "t": []}, "poly": [entry]}]}

        doc = tmp_path / "sym.json"
        for fields, named in (({"x": 2.7}, "'x'"), ({"p": True}, "'p'"),
                              ({"hbar": "1"}, "'hbar'"),
                              ({"coeff": ["1", "1", "0", 1.0]}, "imD"),
                              ({"coeff": ["1", "0", "0", "1"]}, "zero denominator reD"),
                              ({"coeff": ["1", "1", "0", "0"]}, "zero denominator imD"),
                              ({"coeff": ["1", "0", "1", "0"]}, "zero denominator reD")):
            doc.write_text(json.dumps(poly_entry(**fields)))
            code, out, err = run(capsys, "dagger", "--from-json", str(doc))
            assert (code, out) == (2, "")
            assert err.count("\n") == 1 and named in err
        doc.write_text(json.dumps(poly_entry()))
        code, out, _ = run(capsys, "dagger", "--from-json", str(doc))
        assert (code, out.strip()) == (0, "2*i*x*hbar^2 + x^2*p*hbar")

    def test_non_integer_series_fields_exit_2(self, capsys, tmp_path):
        doc = tmp_path / "series.json"
        doc.write_text(json.dumps({"max_order": 1.5, "orders": {}}))
        code, _, err = run(capsys, "log-metric", "--from-json", str(doc))
        assert code == 2
        assert "max_order" in err

    def test_non_canonical_series_order_keys_exit_2(self, capsys, tmp_path):
        doc = tmp_path / "series.json"
        slice_ = {"terms": []}
        long_key = "1" * 5000
        for orders, named in (({"01": slice_}, "'01'"), ({" 1": slice_}, "' 1'"),
                              ({"+1": slice_}, "'+1'"), ({"1_0": slice_}, "'1_0'"),
                              ({"1": slice_, "01": slice_}, "'01'"),
                              ({long_key: slice_}, "'1111")):
            doc.write_text(json.dumps({"max_order": 2, "orders": orders}))
            code, out, err = run(capsys, "log-metric", "--from-json", str(doc))
            assert (code, out) == (2, "")
            assert err.count("\n") == 1 and f"series order key {named}" in err
            assert "set_int_max_str_digits" not in err
        doc.write_text(json.dumps({"max_order": 2, "orders": []}))
        code, out, err = run(capsys, "log-metric", "--from-json", str(doc))
        assert (code, out) == (2, "") and "'orders' object" in err

    def test_missing_input_exits_2(self, capsys, tmp_path):
        doc = tmp_path / "sym.json"
        doc.write_text(json.dumps(symbol_to_obj(parse_expression("x"))))
        both = ("--from-json", str(doc))
        for argv, flag in ((["dagger"], "--expr"),
                           (["conj", "--expr", "x", *both], "--expr"),
                           (["star", "--left", "x"], "--right"),
                           (["star", "--right", "p", "--left", "x",
                             "--left-from-json", str(doc)], "--left"),
                           (["derive-pde", "--hamiltonian", "p^2", *both], "--hamiltonian"),
                           (["apply-pde", "--hamiltonian", "p^2"], "--target"),
                           (["residual", "--hamiltonian", "p^2", "--metric", "1",
                             "--metric-from-json", str(doc)], "--metric"),
                           (["log-metric"], "--potential")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.count("\n") == 1 and flag in err, argv

    def test_library_round_trips_for_other_documents(self):
        # output-only documents read back part by part through the loaders that stay
        from moyalmetric import (SwansonParams, derive_metric_operator,
                                 gaussian_metric_candidates, parse_hbar_scalar,
                                 positivity_evidence, swanson_from_ladder)
        from moyalmetric.serialize import (candidates_to_obj, dumps, operator_to_obj,
                                           rational_from_obj, report_to_obj, swanson_to_obj)

        def reread(obj):
            return json.loads(dumps(obj))

        L = derive_metric_operator(parse_expression("p^2 + i*g*x^3"))
        doc = reread(operator_to_obj(L))
        assert {(t["dx"], t["dp"]): symbol_from_obj(t["coeff"]) for t in doc["terms"]} == L.terms

        params = swanson_from_ladder(2, 1, 0)
        doc = reread(swanson_to_obj(params))
        assert SwansonParams(*(rational_from_obj(doc[name]) for name in "abc")) == params

        report = positivity_evidence(solve_metric_series(parse_expression("i*x^3"), 2))
        doc = reread(report_to_obj(report))
        assert series_from_obj(doc["log_series"]) == report.log_series
        assert doc["per_order_hermitian"] == {"1": True, "2": True} and doc["verdict"] is True

        candidates = gaussian_metric_candidates(SwansonParams(1, 2, 3), parse_hbar_scalar("0"))
        doc = reread(candidates_to_obj(candidates))
        assert ([symbol_from_obj(c) for c in doc["candidates"]]
                == [PhaseSymbol.exponential(eq) for eq in candidates])


class TestLightImports:
    def test_parser_loads_without_numpy(self):
        code = ("import sys; import moyalmetric.cli as cli; cli.build_parser(); "
                "print('numpy' in sys.modules)")
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out == "False\n"


class TestProcessEntryPoint:
    @pytest.mark.parametrize("argv, code, stdout, stderr", [
        (("finite-demo", "--n", "3", "--pairs", "2"), 0, "table", ""),
        (("finite-demo", "--n", "1", "--pairs", "1"), 1, "",
         "error: dimension must be an integer in [2, 256], got 1\n"),
        (("dagger", "--expr", "x^-1"), 2, "",
         "error: negative power of x or g is not representable (at byte 0)\n"),
    ], ids=["checks-pass", "domain-error", "parse-error"])
    def test_python_m_exits_with_the_code_main_returns(self, argv, code, stdout, stderr):
        if stdout == "table":
            stdout = finite_demo_oracle(3, pairs=2, seed=7, tolerance=1e-9)
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-m", "moyalmetric.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stdout, done.stderr) == (code, stdout, stderr)


class TestDashValues:
    """argparse alone reads a value that begins with '-' and is not a plain negative
    number as an unknown option, and exits 2 with "expected one argument"."""

    @pytest.mark.parametrize("argv, code", [
        (("swanson", "--omega", "-1/2", "--alpha", "0", "--beta", "0"), 0),
        (("swanson", "--omega", "-1e3", "--alpha", "0", "--beta", "0"), 0),
        (("swanson", "--omega", "-2", "--alpha", "0", "--beta", "0"), 0),
        (("dagger", "--expr", "-x"), 0),
        (("dagger", "--expr", "-hbar*x"), 0),  # not -h with the argument bar*x
        (("swanson", "--om", "-1/2", "--alpha", "0", "--beta", "0"), 0),  # a prefix
        (("solve-metric", "--potential", "-i*x^3", "--order", "2"), 0),
        (("star", "--left", "-p", "--right", "-x"), 0),
        (("gaussian-candidates", "--a", "1/2", "--b", "-3/2", "--c", "1",
          "--s", "-2*i/hbar"), 0),
        (("finite-demo", "--n", "-1", "--pairs", "1"), 1),
    ])
    def test_a_dash_value_binds_to_the_flag_before_it(self, capsys, argv, code):
        joined = [argv[0]]
        for k in range(1, len(argv), 2):
            joined.append(f"{argv[k]}={argv[k + 1]}")
        result = run(capsys, *argv)
        assert result[0] == code
        assert result == run(capsys, *joined)

    @pytest.mark.parametrize("argv", [
        ("star", "--left", "--right", "x"),
        ("dagger", "--expr", "--form", "json"),  # argparse takes a unique prefix for its flag
        ("star", "--left", "-h"),
        ("dagger", "--expr", "--format=json"),
        ("dagger", "--expr", "--"),
        ("dagger", "--expr", "--x"),
    ])
    def test_a_flag_after_a_flag_stays_a_flag(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(f"argument {argv[1]}: expected one argument")


class TestDispatch:
    """main hands everything after a command to that command's sub-parser.  The oracle is
    the top-level parse_args, which walks argv and then has the sub-parser walk it again."""

    CORPUS = [
        (), ("-h",), ("--help",), ("--he",), ("-hx",), ("star", "-h"), ("residual", "--help"),
        ("--help", "star"), ("dagger", "--he"), ("star", "-hx"),
        ("frobnicate",), ("frobnicate", "--expr", "x"), ("--format", "json", "dagger"),
        ("--bogus",), ("dagger", "--expr", "x", "--bogus"), ("dagger", "--bogus=1", "--expr", "x"),
        ("dagger", "--expr", "x", "extra"), ("dagger", "--expr", "x", "extra", "more"),
        ("residual", "--metric", "x"), ("swanson", "--omega", "1"), ("finite-demo",),
        ("star", "--le", "x", "--ri", "p"), ("star", "--le=x", "--right", "p", "--fo", "latex"),
        ("residual", "--ham", "p^2", "--met", "x"), ("dagger", "--ex=x", "--fo", "latex"),
        ("dagger", "--", "--expr", "x"), ("dagger", "--expr", "x", "--"),
        ("dagger", "--expr", "--", "x"), ("dagger", "--expr", "x", "--format=latex"),
        ("dagger", "--expr", "x", "--format", "html"), ("dagger", "--expr", "x", "--expr", "p"),
        ("swanson", "--omega", "-1/2", "--alpha", "0", "--beta", "0"),
        ("swanson", "--omega", "1/0", "--alpha", "0", "--beta", "0"),
        ("solve-metric", "--potential", "i*x^3", "--order", "0"),
        ("solve-metric", "--potential", "i*x^3", "--order", "two"),
        ("solve-metric", "--potential", "i*x^3", "--order", "2", "--format", "json"),
        ("finite-demo", "--n", "1", "--pairs", "1"), ("finite-demo", "--n", "3", "--pairs", "2"),
        ("finite-demo", "--n", "3", "--tolerance", "0"),
        ("residual", "--hamiltonian", "p^2 + i*x^3", "--metric", "x*p"),
        ("residual", "--hamiltonian", "p^2 + i*x^3", "--metric", "x/0"),
        ("is-hermitian", "--expr", "-x^2", "-p"),
    ]

    @pytest.mark.parametrize("argv", CORPUS)
    def test_matches_the_top_level_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        direct = run(capsys, *argv)
        monkeypatch.setattr(cli, "_parse", lambda args: cli.build_parser().parse_args(args))
        assert run(capsys, *argv) == direct

    def test_a_command_skips_the_top_level_parser(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the top-level parser walked argv")

        monkeypatch.setattr(cli.build_parser(), "parse_known_args", refuse)
        assert run(capsys, "conj", "--expr", "i*x") == (0, "-i*x\n", "")
        with pytest.raises(AssertionError, match="walked argv"):
            main(["--help"])


class TestProductBudget:
    def test_plain_product_of_allowed_powers_exits_1(self, capsys):
        expr = "*".join(["(1+x+p)^30"] * 4)
        start = time.perf_counter()
        code, out, err = run(capsys, "is-hermitian", "--expr", expr)
        assert time.perf_counter() - start < 5
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert f"product needs 246016 term pairs, past the limit of {MAX_POWER_TERM_PAIRS}" in err


class TestLiveOrderBudget:
    def test_star_builds_no_op_past_the_live_order(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "star", "--left", "x^20000", "--right", "p^5")
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert out.count(" + ") + out.count(" - ") == 5

    @pytest.mark.parametrize("argv, order", [
        (("dagger", "--expr", "x^1000000000*p^1000000000"), 1000000000),
        (("is-hermitian", "--expr", "x^8000*p^8000"), 8000),
        (("is-hermitian", "--expr", "x^3000*p^3000"), 3000),
    ])
    def test_twist_past_the_budget_exits_1(self, capsys, argv, order):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == (f"error: twist series needs order {order}, past the limit of "
                       f"{MAX_LIVE_ORDER}, for x^{order}*p^{order} in the symbol\n")


    def test_metric_operator_past_the_budget_exits_1(self, capsys):
        for hamiltonian, power in (("p^2+i*x^20000", "x^20000 in the Hamiltonian"),
                                   ("p^2000+i*x^3", "p^2000 in its adjoint")):
            start = time.perf_counter()
            code, out, err = run(capsys, "derive-pde", "--hamiltonian", hamiltonian)
            assert time.perf_counter() - start < 1
            assert (code, out) == (1, "")
            order = power.split()[0][2:]
            assert err == (f"error: metric operator needs order {order}, past the limit of "
                           f"{MAX_LIVE_ORDER}, for {power}\n")
        code, out, err = run(capsys, "derive-pde", "--hamiltonian", f"p^2+i*x^{MAX_LIVE_ORDER}")
        assert (code, err) == (0, "")
        assert out.startswith(f"Dx^0 Dp^0: 2*i*x^{MAX_LIVE_ORDER}\n")


# -- fuzzing: every input ends in exit 0, 1 or 2, never a traceback ----------

def _run_quiet(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_outcome(code: int, out: str, err: str) -> None:
    assert code in (0, 1, 2)
    if code:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (out, err)


_ATOMS = st.sampled_from(["0", "1", "2", "7", "3/4", "i", "x", "p", "hbar", "g",
                          "exp(i*x*p/hbar)", "exp(-p^2)", "exp(hbar*x^2)", "exp(x)"])


def _grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
        inner.map("({})".format),
        inner.map("-{}".format),
        st.tuples(inner, st.integers(-2, 3)).map(lambda t: f"({t[0]})^{t[1]}"))


_EXPRESSIONS = st.recursive(_ATOMS, _grow, max_leaves=6)


@st.composite
def _grammar_strings(draw):
    """Grammar expressions, some with one character inserted or deleted."""
    text = draw(_EXPRESSIONS)
    edit = draw(st.sampled_from(["none", "none", "insert", "delete"]))
    if edit != "none" and text:
        at = draw(st.integers(0, len(text) - 1))
        junk = draw(st.sampled_from(list("()+-*/^ 0.ix_é\n")))
        text = text[:at] + (junk if edit == "insert" else "") + text[at + 1:]
    return text


_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
              st.text(max_size=6), st.sampled_from(["0", "-1", "1", "7", "00", "1e3"])),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


def _slots(node, found):
    """Every (container, key) in a JSON document, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        found.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, found)
    return found


@st.composite
def _mutated_series_documents(draw):
    doc = json.loads(_SERIES_TEXT)
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            node[key] = draw(_JSON_VALUES)
        else:
            del node[key]
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


_SERIES_TEXT = json.dumps(series_to_obj(solve_metric_series(parse_expression("i*x^3+x"), 3)))
_FUZZ = settings(max_examples=150, deadline=timedelta(seconds=10), derandomize=True)


class TestFuzz:
    @_FUZZ
    @given(st.sampled_from(["dagger", "is-hermitian"]), _grammar_strings(),
           st.sampled_from(["text", "latex", "json"]))
    def test_one_symbol_commands(self, command, text, fmt):
        _check_outcome(*_run_quiet([command, f"--expr={text}", "--format", fmt]))

    @_FUZZ
    @given(_grammar_strings(), _grammar_strings())
    def test_star(self, left, right):
        _check_outcome(*_run_quiet(["star", f"--left={left}", f"--right={right}"]))

    @_FUZZ
    @given(_mutated_series_documents(), st.sampled_from(["text", "latex", "json"]))
    def test_log_metric_from_mutated_series(self, tmp_path_factory, text, fmt):
        path = tmp_path_factory.mktemp("fuzz") / "series.json"
        path.write_text(text)
        _check_outcome(*_run_quiet(["log-metric", "--from-json", str(path), "--format", fmt]))
