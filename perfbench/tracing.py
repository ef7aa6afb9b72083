"""Spans and size counters recorded from outside the package.

Both work by patching public names: a function is replaced in every
moyalmetric module namespace that holds it (derive_metric_operator lives in
pde, series, cli and the package itself), a method under every class
attribute that aliases it (__add__ and __radd__).  Patches is a context
manager, so every patched name is restored before the next timed run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field, fields
from time import perf_counter

MARK = "_perfbench_wrapper"

#: span name -> "module:attribute path" of the public callable it wraps
SPAN_POINTS = {
    "symbols.star": "symbols:PhaseSymbol.star",
    "symbols.mul": "symbols:PhaseSymbol.__mul__",
    "symbols.add": "symbols:PhaseSymbol.__add__",
    "symbols.diff": "symbols:PhaseSymbol.diff",
    "symbols.twist": "symbols:PhaseSymbol.exp_twist",
    "pde.derive": "pde:derive_metric_operator",
    "pde.apply": "pde:DifferentialOperator.apply",
    "series.ode": "series:solve_kinetic_ode",
    "starlog.log": "starlog:star_log",
    "starlog.positivity": "starlog:positivity_evidence",
    "finite.to_symbol": "finite:to_symbol",
    "finite.from_symbol": "finite:from_symbol",
    "finite.star": "finite:discrete_star",
    "finite.dagger": "finite:discrete_dagger",
    "finite.basis": "finite:basis_words",
    "parsing.expression": "parsing:parse_expression",
    "parsing.hbar_scalar": "parsing:parse_hbar_scalar",
    "formatting.expression": "formatting:format_expression",
    # Document-level serializers only: the per-coefficient helpers run ~10^3
    # times per request and their time stays in the caller's serialize self time.
    **{f"serialize.{name}": f"serialize:{name}" for name in (
        "dumps", "load_document", "symbol_to_obj", "symbol_from_obj", "series_to_obj",
        "series_from_obj", "operator_to_obj", "report_to_obj", "candidates_to_obj",
        "swanson_to_obj")},
    "cli.main": "cli:main",
}


def _modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if name == "moyalmetric" or name.startswith("moyalmetric.")]


def _resolve(point: str):
    module_name, path = point.split(":")
    owner = importlib.import_module(f"moyalmetric.{module_name}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Patches:
    """Installs wrappers and restores every original on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, point: str, make_wrapper) -> None:
        owner, attr = _resolve(point)
        original = vars(owner)[attr]
        wrapper = make_wrapper(original)
        setattr(wrapper, MARK, True)
        targets = [owner] if isinstance(owner, type) else _modules()
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is original:
                    self._saved.append((target, name, original))
                    setattr(target, name, wrapper)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            target, name, original = self._saved.pop()
            setattr(target, name, original)


def installed_wrappers() -> list[str]:
    """Names in moyalmetric modules and their classes that still hold a wrapper."""
    found = []
    for mod in _modules():
        for name, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found.extend(f"{mod.__name__}.{name}.{attr}"
                             for attr, member in vars(value).items()
                             if getattr(member, MARK, False))
    return found


# -- spans -------------------------------------------------------------------

class SpanRecorder:
    """Keeps one span per wrapped call in memory: name, start, end, parent, request."""

    FIELDS = ("name", "start", "end", "parent", "request")

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []

    def install(self, patches: Patches) -> None:
        for name, point in SPAN_POINTS.items():
            patches.wrap(point, functools.partial(self._wrapper, name))

    def _wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced


def layer_of(name: str) -> str:
    return name.split(".")[0]


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def span_metrics(spans: list[list]) -> dict[str, float]:
    """Calls and self seconds per wrapped name, and per layer.

    A layer's calls count entries into it: spans whose parent lies in
    another layer (positivity_evidence calling star_log is one starlog call).
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for (name, _, _, parent, _), own in zip(spans, selfs):
        layer = layer_of(name)
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + own
        if parent < 0 or layer_of(spans[parent][0]) != layer:
            out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
    return out


# -- size counters -----------------------------------------------------------

def _terms(sym) -> int:
    return sum(len(poly) for poly in sym.parts.values())


def _bits(sym) -> int:
    best = 0
    for poly in sym.parts.values():
        for c in poly.values():
            best = max(best, c.re.numerator.bit_length(), c.re.denominator.bit_length(),
                       c.im.numerator.bit_length(), c.im.denominator.bit_length())
    return best


@dataclass
class Counts:
    """Size counters of one counting pass; two passes on one seed must agree."""

    rationals_new: int = 0
    rationals_mul: int = 0
    rationals_add: int = 0
    max_bits: int = 0
    star_calls: int = 0
    twist_calls: int = 0
    exp_calls: int = 0
    term_pairs: int = 0
    terms_out: int = 0
    terms_max: int = 0
    log_terms_kept: int = 0
    log_star_terms: int = 0
    basis_calls: int = 0
    basis_dims: list = field(default_factory=list)
    chars_out: int = 0
    json_bytes: int = 0
    _in_log: int = 0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if not f.name.startswith("_")}

    def install(self, patches: Patches) -> None:
        for point, make in (
                ("rationals:GaussianRational.__init__", self._count("rationals_new")),
                ("rationals:GaussianRational.__mul__", self._count("rationals_mul")),
                ("rationals:GaussianRational.__add__", self._count("rationals_add")),
                ("symbols:PhaseSymbol.star", self._star),
                ("symbols:PhaseSymbol.exp_twist", self._twist),
                ("series:solve_kinetic_ode", self._ode),
                ("pde:DifferentialOperator.apply", self._apply),
                ("starlog:star_log", self._star_log),
                ("finite:basis_words", self._basis),
                ("formatting:format_expression", self._format),
                ("serialize:dumps", self._dumps)):
            patches.wrap(point, make)

    def _count(self, attr: str):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                setattr(self, attr, getattr(self, attr) + 1)
                return fn(*args, **kwargs)
            return counted
        return make

    def _see(self, sym) -> None:
        self.max_bits = max(self.max_bits, _bits(sym))

    def _star(self, fn):
        @functools.wraps(fn)
        def star(left, right):
            out = fn(left, right)
            self.star_calls += 1
            self.exp_calls += not (left.is_polynomial and right.is_polynomial)
            self.term_pairs += _terms(left) * _terms(right)
            terms = _terms(out)
            self.terms_out += terms
            if self._in_log:
                self.log_star_terms += terms
            self._see(out)
            return out
        return star

    def _twist(self, fn):
        @functools.wraps(fn)
        def twist(sym, sign):
            out = fn(sym, sign)
            self.twist_calls += 1
            self.exp_calls += not sym.is_polynomial
            self._see(out)
            return out
        return twist

    def _ode(self, fn):
        @functools.wraps(fn)
        def ode(rhs):
            out = fn(rhs)
            self.terms_max = max(self.terms_max, _terms(out))
            self._see(out)
            return out
        return ode

    def _apply(self, fn):
        @functools.wraps(fn)
        def apply(operator, f):
            out = fn(operator, f)
            self._see(out)
            return out
        return apply

    def _star_log(self, fn):
        @functools.wraps(fn)
        def star_log(series):
            self._in_log += 1
            try:
                out = fn(series)
            finally:
                self._in_log -= 1
            for sym in out.orders.values():
                self.log_terms_kept += _terms(sym)
                self._see(sym)
            return out
        return star_log

    def _basis(self, fn):
        @functools.wraps(fn)
        def basis_words(n):
            self.basis_calls += 1
            if n not in self.basis_dims:
                self.basis_dims.append(n)
            return fn(n)
        return basis_words

    def _format(self, fn):
        @functools.wraps(fn)
        def format_expression(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.chars_out += len(out)
            return out
        return format_expression

    def _dumps(self, fn):
        @functools.wraps(fn)
        def dumps(obj):
            out = fn(obj)
            self.json_bytes += len(out.encode())
            return out
        return dumps


def count_metrics(c: Counts) -> dict[str, tuple[float, str]]:
    """Per-layer size metrics, with units, from one counting pass."""
    calls = c.star_calls + c.twist_calls
    return {
        "rationals.new.calls": (c.rationals_new, "count"),
        "rationals.mul.calls": (c.rationals_mul, "count"),
        "rationals.add.calls": (c.rationals_add, "count"),
        "rationals.max_bits": (c.max_bits, "bits"),
        "symbols.star.term_pairs": (c.term_pairs, "pairs"),
        "symbols.star.terms_out": (c.terms_out, "terms"),
        "symbols.exp_share": (c.exp_calls / calls if calls else 0.0, "ratio"),
        "series.terms_max": (c.terms_max, "terms"),
        "starlog.kept_term_ratio": (c.log_terms_kept / c.log_star_terms
                                    if c.log_star_terms else 0.0, "ratio"),
        "finite.basis.calls": (c.basis_calls, "count"),
        "finite.basis.hit_ratio": (1 - len(c.basis_dims) / c.basis_calls
                                   if c.basis_calls else 0.0, "ratio"),
        "finite.basis.bytes_computed": (sum(16 * n ** 4 for n in c.basis_dims), "bytes"),
        "formatting.chars_out": (c.chars_out, "chars"),
        "serialize.bytes": (c.json_bytes, "bytes"),
    }
