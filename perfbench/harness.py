"""Closed-loop load generator and checker for moyalmetric.cli.main.

One client runs in this process and sends the next request only when the
previous one has returned and its output has been checked.  The timed loop
runs with no wrapper installed.

The host shares its cores with other machines and, for spells of a fraction
of a second to a minute, runs this process up to 1.7 times slower; how much
of a run falls in such spells varies from run to run.  So a fixed reference
loop of stdlib Fraction arithmetic (under a millisecond) is timed before the
first request and after each one, and every latency is scaled to full host
speed: multiplied by the run's fastest reference reading over the mean of
the two readings around it.  Set-up times are scaled the same way.
Only the ratio of readings enters, so a change to moyalmetric moves the
scaled figures as much as the raw ones.

With tracing on there is no timed loop: a fixed list of requests (the first
blocks of the seeded sequence, each class listed once) runs once to warm
caches, then untraced, traced, and twice more with the size counters, so
every count repeats exactly for a given seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from moyalmetric import cli

from . import tracing
from .workloads import Request, Workload, blocks, document_name, solve_request

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"
SPANS_DIR = HERE / ".out"

#: fresh interpreters timed for setup_s; the median is reported
SETUP_PROCESSES = 31
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import moyalmetric.cli as c; c.build_parser()")
#: candidate tail percentiles; the highest with ten samples above it is used
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
FAILURES_SHOWN = 5
#: terms summed by the reference loop timed between requests
REFERENCE_TERMS = 120


@dataclass
class Outcome:
    latency: float
    rc: int | None
    stdout: str
    stderr: str


def execute(argv) -> Outcome:
    """Run cli.main in process; an escaping exception is kept as its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception:  # a traceback is a failed request, not a benchmark crash
            rc = None
            err.write(traceback.format_exc())
        latency = perf_counter() - start
    return Outcome(latency, rc, out.getvalue(), err.getvalue())


def digest(rc: int | None, stdout: str) -> str:
    return hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()[:16]


def load_expected(name: str) -> dict[str, str]:
    path = EXPECTED_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def finite_deviations(stdout: str) -> list[float]:
    if stdout.startswith("{"):
        return [float(v) for v in json.loads(stdout)["checks"].values()]
    return [float(line.rsplit(" ", 1)[1]) for line in stdout.splitlines()
            if ": max deviation " in line]


def failure(req: Request, out: Outcome, expected: dict[str, str]) -> str | None:
    """Why the outcome of req is wrong, or None when it passes."""
    if out.rc is None:
        return "traceback: " + out.stderr.strip().splitlines()[-1]
    if req.check == "golden":
        want = expected.get(req.key)
        if want is None:
            return "no recorded output"
        return None if digest(out.rc, out.stdout) == want else "output differs from record"
    if req.check == "finite":
        if out.rc != 0:
            return f"exit {out.rc}"
        try:
            devs = finite_deviations(out.stdout)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable report: {exc}"
        tol = float(req.argv[req.argv.index("--tolerance") + 1])
        return None if devs and all(d < tol for d in devs) else "deviation over tolerance"
    if req.check == "error":
        lines = out.stderr.splitlines()
        ok = (out.rc == 1 and not out.stdout and len(lines) == 1
              and lines[0].startswith("error: ") and req.expect in lines[0])
        return None if ok else f"expected a one-line domain error, got exit {out.rc}"
    raise ValueError(f"unknown check {req.check!r}")


@dataclass
class Tally:
    expected: dict[str, str]
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def run(self, req: Request) -> Outcome:
        out = execute(req.argv)
        self.attempted += 1
        why = failure(req, out, self.expected)
        if why is not None:
            self.failed += 1
            if len(self.failures) < FAILURES_SHOWN:
                self.failures.append(f"{' '.join(req.argv)}: {why}")
        return out


def reference() -> float:
    """Wall time of a fixed loop of stdlib Fraction arithmetic: how fast the
    host runs us now.  It slows with the host much as the workloads do; a
    plain integer loop follows them less closely."""
    start = perf_counter()
    acc, digits = Fraction(0), {}
    for i in range(1, REFERENCE_TERMS):
        acc += Fraction(i, i * i + 1)
        digits[i] = str(acc.numerator % 1000)
    return perf_counter() - start


@dataclass
class Sample:
    latency: float
    before: float  # reference reading just before
    after: float  # and just after


def fastest(samples: list[Sample]) -> float:
    return min(min(s.before, s.after) for s in samples)


def at_full_speed(samples: list[Sample], floor: float) -> list[float]:
    """Each latency times floor, the fastest reference reading of the run,
    over the mean of the two readings around it."""
    return [s.latency * 2 * floor / (s.before + s.after) for s in samples]


def measure_setup(src: Path) -> list[Sample]:
    """Wall time of fresh interpreters that import the CLI and build its parser."""
    samples = []
    before = reference()
    for _ in range(SETUP_PROCESSES):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(src)],
                              capture_output=True, text=True, timeout=120)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        after = reference()
        samples.append(Sample(elapsed, before, after))
        before = after
    return samples


def write_documents(wl: Workload, workdir: Path, run: Callable[[Request], str]) -> None:
    """Series documents for --from-json requests; run returns a request's stdout."""
    for potential, order in wl.documents:
        text = run(solve_request(potential, order, "json"))
        (workdir / document_name(potential, order)).write_text(text)


def tail(latencies: list[float], highest: float) -> tuple[float, float]:
    """(percentile, value) at the highest ladder percentile, up to highest,
    that has at least ten samples above it."""
    n = len(latencies)
    pct = max([p for p in TAIL_LADDER if p <= highest and n * (100 - p) / 100 >= 10]
              or [TAIL_LADDER[0]])
    ordered = sorted(latencies)
    pos = (n - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return pct, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timed_loop(gen, seconds: float, tally: Tally) -> tuple[list[Sample], float]:
    """Whole blocks until the deadline has passed; returns samples and wall time."""
    samples = []
    start = perf_counter()
    deadline = start + seconds
    before = reference()
    while True:
        for req in next(gen):
            latency = tally.run(req).latency
            after = reference()
            samples.append(Sample(latency, before, after))
            before = after
        if perf_counter() >= deadline:
            return samples, perf_counter() - start


def traced_pass(requests: list[Request], tally: Tally) -> tuple[list[list], list[float]]:
    recorder = tracing.SpanRecorder()
    latencies = []
    with tracing.Patches() as patches:
        recorder.install(patches)
        for i, req in enumerate(requests):
            recorder.request = i
            latencies.append(tally.run(req).latency)
    return recorder.spans, latencies


def counting_pass(requests: list[Request], tally: Tally) -> tracing.Counts:
    counts = tracing.Counts()
    with tracing.Patches() as patches:
        counts.install(patches)
        for req in requests:
            tally.run(req)
    return counts


def write_spans(name: str, seed: int, spans: list[list]) -> Path:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{name}-{seed}.json"
    path.write_text(json.dumps({"fields": tracing.SpanRecorder.FIELDS, "spans": spans},
                               separators=(",", ":")))
    return path


PER_LAYER_TIMES = (
    "symbols.star", "symbols.mul", "symbols.add", "symbols.diff", "symbols.twist",
    "pde.derive", "pde.apply", "series.ode", "finite.to_symbol", "finite.from_symbol",
    "finite.star", "finite.dagger", "starlog", "cli", "parsing", "formatting", "serialize")
PER_LAYER_CALLS = (
    "symbols.star", "symbols.mul", "symbols.diff", "symbols.twist", "pde.derive",
    "pde.apply", "series.ode", "starlog", "parsing", "formatting", "serialize")


def run(wl: Workload, seed: int, seconds: float, trace: bool, src: Path, report) -> dict:
    """One benchmark run; returns the result object and reports a summary."""
    name = wl.name
    tally = Tally(load_expected(name))
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        setup = measure_setup(src)

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        workdir = Path(tmp)
        write_documents(wl, workdir, lambda req: tally.run(req).stdout)
        leftover = tracing.installed_wrappers()
        if leftover:
            raise RuntimeError(f"wrappers installed before the first request: {leftover}")

        agree = True
        if trace:
            distinct = replace(wl, classes=tuple(dict.fromkeys(wl.classes)))
            fixed = [req for block in itertools.islice(blocks(distinct, seed, workdir),
                                                       wl.trace_blocks)
                     for req in block]
            for req in fixed:  # warm-up: fills caches such as finite's basis cache
                tally.run(req)
            untraced = [tally.run(req).latency for req in fixed]
            spans, traced = traced_pass(fixed, tally)
            first, second = counting_pass(fixed, tally), counting_pass(fixed, tally)
            agree = first.as_dict() == second.as_dict()
            leftover = tracing.installed_wrappers()
            if leftover:
                raise RuntimeError(f"wrappers left installed: {leftover}")
            report(f"spans: {len(spans)} over {len(fixed)} requests, "
                   f"written to {write_spans(name, seed, spans)}")
            if not agree:
                report(f"counting passes disagree: {first.as_dict()} != {second.as_dict()}")
        else:
            samples, elapsed = timed_loop(blocks(wl, seed, workdir), seconds, tally)
            floor = fastest(setup + samples)
            setup_s = statistics.median(at_full_speed(setup, floor))
            latencies = at_full_speed(samples, floor)
            p50 = statistics.median(latencies)
            pct, tail_s = tail(latencies, wl.tail_pct)
            raw = [s.latency for s in samples]
            report(f"{name}: {len(samples)} requests in {elapsed:.2f} s; raw p50 "
                   f"{statistics.median(raw) * 1e3:.3f} ms, p{pct:g} "
                   f"{tail(raw, pct)[1] * 1e3:.3f} ms, {len(raw) / sum(raw):.3f} /s busy; "
                   f"at full speed p50 {p50 * 1e3:.3f} ms, p{pct:g} {tail_s * 1e3:.3f} ms")
            report(f"setup: raw median {statistics.median(s.latency for s in setup):.4f} s "
                   f"over {len(setup)} interpreters; reference floor {floor * 1e3:.4f} ms")

    if trace:
        per_span = tracing.span_metrics(spans)
        for key in PER_LAYER_CALLS:
            metrics[f"{key}.calls"] = (per_span.get(f"{key}.calls", 0), "count")
        for key in PER_LAYER_TIMES:
            metrics[f"{key}.self_s"] = (per_span.get(f"{key}.self_s", 0.0), "s")
        metrics.update(tracing.count_metrics(first))
        traced_p50, untraced_p50 = statistics.median(traced), statistics.median(untraced)
        metrics["tracing.overhead_s"] = (traced_p50 - untraced_p50, "s")
        report(f"tracing overhead on {len(fixed)} requests run twice: traced p50 "
               f"{traced_p50 * 1e3:.3f} ms - untraced p50 {untraced_p50 * 1e3:.3f} ms")
    else:
        metrics["setup_s"] = (setup_s, "s")
        metrics["request_p50_s"] = (p50, "s")
        metrics["request_tail_s"] = (tail_s, "s")
        metrics["throughput_rps"] = (len(latencies) / sum(latencies), "1/s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB")

    failed_ratio = tally.failed / tally.attempted
    for line in tally.failures:
        report(f"FAILED {line}")
    for key, (value, unit) in metrics.items():
        report(f"  {key:32s} {value:.6g} {unit}")
    report(f"  {'failed_ratio':32s} {failed_ratio:.6g} ({tally.failed}/{tally.attempted})")
    return {"correct": tally.failed == 0 and agree,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()}}
