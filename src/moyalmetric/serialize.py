"""Lossless JSON documents for every value type the CLI emits.

Rational numbers are stored as arrays of four decimal strings
[reN, reD, imN, imD] so arbitrary precision survives the round trip; Laurent
scalars in hbar become arrays [[h, reN, reD, imN, imD], ...] with the power h
as a plain integer.  All lists are emitted in canonical order, making the
output byte-deterministic.

Only symbol and series documents are read back (the --from-json inputs);
operator, parameter, report and candidate documents are output only.
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
from .symbols import ExpQuadratic, PhaseSymbol, _canon_key

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


def hbar_scalar_to_obj(scalar: HbarScalar) -> list:
    return [[h] + rational_to_obj(c) for h, c in scalar]


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
    parts = sym.parts
    terms = []
    for eq in sorted(parts, key=ExpQuadratic.sort_key):
        poly = parts[eq]
        poly_entries = []
        for key in sorted(poly, key=_canon_key):
            xd, pd, hd, gd = key
            poly_entries.append({"coeff": rational_to_obj(poly[key]),
                                 "x": xd, "p": pd, "hbar": hd, "g": gd})
        terms.append({"exp": {"r": hbar_scalar_to_obj(eq.r),
                              "s": hbar_scalar_to_obj(eq.s),
                              "t": hbar_scalar_to_obj(eq.t)},
                      "poly": poly_entries})
    return {"terms": terms}


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
    return {"max_order": series.max_order,
            "orders": {str(n): symbol_to_obj(series.order(n))
                       for n in sorted(series.orders)}}


def _order_key(key: str) -> int:
    """An order key in canonical decimal, as series_to_obj writes it."""
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
    return {"terms": [{"dx": m, "dp": n, "coeff": symbol_to_obj(coeff)}
                      for (m, n), coeff in sorted(operator.terms.items())]}


def swanson_to_obj(params: SwansonParams) -> dict:
    return {"a": rational_to_obj(params.a),
            "b": rational_to_obj(params.b),
            "c": rational_to_obj(params.c)}


def report_to_obj(report: PositivityReport) -> dict:
    return {"verdict": report.verdict,
            "per_order_hermitian": {str(n): flag for n, flag
                                    in sorted(report.per_order_hermitian.items())},
            "log_series": series_to_obj(report.log_series)}


def candidates_to_obj(candidates: list[ExpQuadratic]) -> dict:
    return {"candidates": [symbol_to_obj(PhaseSymbol.exponential(eq))
                           for eq in candidates]}


def dumps(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, without its pure-Python encoder.

    Dict keys must be strings.  An int past the interpreter's int-to-string
    digit limit raises ExponentTooLong.
    """
    out: list[str] = []
    try:
        _encode(obj, out, "\n")
    except ValueError:  # from int.__repr__
        raise ExponentTooLong from None
    return "".join(out)


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
    else:  # None, booleans, floats, {} and []
        out.append(json.dumps(obj))


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
