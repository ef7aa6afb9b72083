"""Lossless JSON documents for every value type the CLI emits.

Rational numbers are stored as arrays of four decimal strings
[reN, reD, imN, imD] so arbitrary precision survives the round trip; Laurent
scalars in hbar become arrays [[h, reN, reD, imN, imD], ...] with the power h
as a plain integer.  All lists are emitted in canonical order, making the
output byte-deterministic.

Only symbol and series documents are read back (the --from-json inputs);
operator, parameter, report and candidate documents are output only.

`dumps` is the one statement of the symbol and series layout: it writes any
PhaseSymbol or MetricSeries value it meets, one string per term straight from
`sorted_parts()`.  The operator, report and candidate documents hold their
symbols and series as values, and symbol_to_obj and series_to_obj read the
text of dumps back for callers that want plain dicts.
"""

from __future__ import annotations

import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii as _string

from .errors import CoefficientTooLong, ExponentTooLong, InvalidDocument
from .pde import DifferentialOperator, SwansonParams
from .rationals import HS_ZERO, ZERO, GaussianRational, HbarScalar, from_integers
from .series import MetricSeries, check_order
from .starlog import PositivityReport
from .symbols import ExpQuadratic, PhaseSymbol

_DECIMAL = re.compile(r"-?[0-9]+")
_ORDER_KEY = re.compile(r"0|[1-9][0-9]*")
_RATIONAL_FIELDS = tuple(f"rational entry {name}" for name in ("reN", "reD", "imN", "imD"))


def _int(value, field: str) -> int:
    """A JSON integer; floats, booleans and strings are rejected."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidDocument(f"{field} must be an integer, got {value!r:.40}")


def _decimal(value, field: str) -> int:
    """A decimal-string integer as written by rational_to_obj, or a JSON integer."""
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        try:
            return int(value)
        except ValueError as exc:  # past the interpreter's int digit limit
            raise InvalidDocument(f"{field} has too many digits") from exc
    return _int(value, field)


def rational_to_obj(c: GaussianRational) -> list[str]:
    try:
        return list(map(str, c.as_integer_ratios()))
    except ValueError:  # past the interpreter's int-to-string digit limit
        raise CoefficientTooLong from None


def rational_from_obj(obj) -> GaussianRational:
    if not isinstance(obj, list) or len(obj) != 4:
        raise InvalidDocument(f"bad rational entry {obj!r:.40}")
    ren, red, imn, imd = [_decimal(v, field) for v, field in zip(obj, _RATIONAL_FIELDS)]
    # over den = lcm(|reD|, |imD|), each den // d carries the sign of its denominator
    den = math.lcm(red, imd)
    if not den:
        raise InvalidDocument(f"bad rational entry {obj!r:.40}: zero denominator "
                              f"{'reD' if not red else 'imD'}")
    return from_integers(ren * (den // red), imn * (den // imd), den)


def hbar_scalar_from_obj(obj) -> HbarScalar:
    if not isinstance(obj, list):
        raise InvalidDocument("hbar scalar must be a list")
    if not obj:  # the exponent fields of every polynomial part
        return HS_ZERO
    terms = []
    for entry in obj:
        if not isinstance(entry, list) or len(entry) != 5:
            raise InvalidDocument(f"bad hbar scalar entry {entry!r}")
        terms.append((_int(entry[0], "hbar scalar power"), rational_from_obj(entry[1:])))
    return HbarScalar(terms)


def symbol_to_obj(sym: PhaseSymbol) -> dict:
    return json.loads(dumps(sym))


def symbol_from_obj(obj) -> PhaseSymbol:
    if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
        raise InvalidDocument("symbol document must have a 'terms' list")
    parts: dict = {}
    for term in obj["terms"]:
        try:
            eq = ExpQuadratic(hbar_scalar_from_obj(term["exp"]["r"]),
                              hbar_scalar_from_obj(term["exp"]["s"]),
                              hbar_scalar_from_obj(term["exp"]["t"]))
            poly = parts.setdefault(eq, {})
            for entry in term["poly"]:
                key = (_int(entry["x"], "symbol term field 'x'"),
                       _int(entry["p"], "symbol term field 'p'"),
                       _int(entry["hbar"], "symbol term field 'hbar'"),
                       _int(entry["g"], "symbol term field 'g'"))
                poly[key] = poly.get(key, ZERO) + rational_from_obj(entry["coeff"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidDocument(f"malformed symbol term: {exc}") from exc
    try:
        return PhaseSymbol(parts)
    except ValueError as exc:
        raise InvalidDocument(str(exc)) from exc


def series_to_obj(series: MetricSeries) -> dict:
    return json.loads(dumps(series))


def _order_key(key: str) -> int:
    """An order key in canonical decimal, as dumps writes it."""
    if _ORDER_KEY.fullmatch(key):
        return _decimal(key, f"series order key {key!r:.40}")
    raise InvalidDocument(f"series order key {key!r:.40} is not a canonical decimal integer")


def series_from_obj(obj) -> MetricSeries:
    if (not isinstance(obj, dict) or "max_order" not in obj
            or not isinstance(obj.get("orders"), dict)):
        raise InvalidDocument("series document must have 'max_order' and an 'orders' object")
    max_order = _int(obj["max_order"], "max_order")
    check_order(max_order, "max_order")
    try:
        orders = {_order_key(n): symbol_from_obj(sub) for n, sub in obj["orders"].items()}
        return MetricSeries(orders, max_order)
    except (TypeError, ValueError) as exc:
        raise InvalidDocument(f"malformed series document: {exc}") from exc


def operator_to_obj(operator: DifferentialOperator) -> dict:
    return {"terms": [{"dx": m, "dp": n, "coeff": coeff}
                      for (m, n), coeff in operator.terms.items()]}


def swanson_to_obj(params: SwansonParams) -> dict:
    return {"a": rational_to_obj(params.a),
            "b": rational_to_obj(params.b),
            "c": rational_to_obj(params.c)}


def report_to_obj(report: PositivityReport) -> dict:
    return {"verdict": report.verdict,
            "per_order_hermitian": {str(n): flag for n, flag
                                    in sorted(report.per_order_hermitian.items())},
            "log_series": report.log_series}


def candidates_to_obj(candidates: list[ExpQuadratic]) -> dict:
    return {"candidates": [PhaseSymbol.exponential(eq) for eq in candidates]}


def dumps(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, without its pure-Python encoder;
    a PhaseSymbol or MetricSeries is written as its symbol or series document.

    Dict keys must be strings.  A number past the interpreter's int-to-string
    digit limit raises CoefficientTooLong if any coefficient of a symbol or
    series in obj is one, and ExponentTooLong otherwise.
    """
    out: list[str] = []
    try:
        _encode(obj, out, "\n")
    except ValueError:  # from int.__repr__ or an f-string
        _check_coefficients(obj)
        raise ExponentTooLong from None
    return "".join(out)


def _check_coefficients(obj) -> None:
    """CoefficientTooLong if a coefficient of a symbol or series in obj is past the digit limit."""
    if isinstance(obj, MetricSeries):
        obj = list(obj.orders.values())
    if isinstance(obj, PhaseSymbol):
        for eq, terms in obj.parts.items():
            for pairs in (*eq, terms.items()):  # (power, c) per scalar, (key, c) per term
                for _, c in pairs:
                    rational_to_obj(c)
    elif isinstance(obj, (dict, list, tuple)):
        for value in obj.values() if isinstance(obj, dict) else obj:
            _check_coefficients(value)


def _encode(obj, out: list[str], newline: str) -> None:
    """Append the indented JSON text of obj; newline starts each line at its depth.
    An int dict value and a list of strings (a rational entry) take one append."""
    if isinstance(obj, str):
        out.append(_string(obj))
    elif isinstance(obj, int) and not isinstance(obj, bool):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict) and obj:
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if type(value) is int:
                out.append(f"{sep}{_string(key)}: {int.__repr__(value)}")
            else:
                out.append(f"{sep}{_string(key)}: ")
                _encode(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        inner = newline + "  "
        if all(type(value) is str for value in obj):
            out.append(f"[{inner}{(',' + inner).join(map(_string, obj))}{newline}]")
            return
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _encode(value, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, PhaseSymbol):
        _write_symbol(obj, out, newline)
    elif isinstance(obj, MetricSeries):
        _write_series(obj, out, newline)
    else:  # None, booleans, floats, {} and []
        out.append(json.dumps(obj))


def _write_symbol(sym: PhaseSymbol, out: list[str], newline: str) -> None:
    """Append the symbol document of sym at depth newline, one string per term."""
    n1, n2, n3, n4, n5, n6 = (newline + "  " * k for k in range(1, 7))
    if not sym:
        out.append(f'{{{n1}"terms": []{newline}}}')
        return
    head = f'{{{n1}"terms": ['
    for eq, terms in sym.sorted_parts():
        head = f'{head}{n2}{{{n3}"exp": {{{n4}'
        for name, scalar in zip("rst", eq):
            out.append(f'{head}"{name}": [')
            sep = n5
            for h, c in scalar:
                rn, rd, imn, imd = c.as_integer_ratios()
                out.append(f'{sep}[{n6}{h},{n6}"{rn}",{n6}"{rd}",{n6}"{imn}",{n6}"{imd}"{n5}]')
                sep = f",{n5}"
            out.append(f"{n4}]" if scalar else "]")
            head = f",{n4}"
        head = f'{n3}}},{n3}"poly": ['
        for (x, p, h, g), c in terms:
            rn, rd, imn, imd = c.as_integer_ratios()
            out.append(f'{head}{n4}{{{n5}"coeff": [{n6}"{rn}",{n6}"{rd}",{n6}"{imn}",{n6}"{imd}"'
                       f'{n5}],{n5}"x": {x},{n5}"p": {p},{n5}"hbar": {h},{n5}"g": {g}{n4}}}')
            head = ","
        out.append(f"{n3}]{n2}}}")
        head = ","
    out.append(f"{n1}]{newline}}}")


def _write_series(series: MetricSeries, out: list[str], newline: str) -> None:
    """Append the series document of series at depth newline."""
    n1, n2 = newline + "  ", newline + "    "
    head = f'{{{n1}"max_order": {series.max_order},{n1}"orders": {{'
    if not series.orders:
        out.append(f"{head}}}{newline}}}")
        return
    for n in sorted(series.orders):
        out.append(f'{head}{n2}"{n}": ')
        _write_symbol(series.orders[n], out, n2)
        head = ","
    out.append(f"{n1}}}{newline}}}")


def load_document(path: str, from_obj):
    """from_obj of the JSON document at path; each InvalidDocument names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidDocument(f"cannot read JSON document {path}: {exc}") from exc
    except RecursionError:
        raise InvalidDocument(f"cannot read JSON document {path}: it nests too deeply") from None
    except ValueError:  # an integer past the interpreter's int digit limit
        raise InvalidDocument(f"cannot read JSON document {path}: an integer has more "
                              f"than {sys.get_int_max_str_digits()} digits") from None
    try:
        return from_obj(obj)
    except InvalidDocument as exc:
        raise InvalidDocument(f"JSON document {path}: {exc}") from exc
