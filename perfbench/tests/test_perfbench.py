"""The benchmark's own checks: tiny runs of every workload, per-layer metrics
that must move on the workload meant to stress them, and clean patching.

Run from the checkout root: python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from moyalmetric import cli, pde, series
from moyalmetric.symbols import PhaseSymbol
from perfbench import harness, tracing
from perfbench.workloads import WORKLOADS, pool

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that must be non-zero on the workload meant to stress them.
STRESSED = {
    "log-positivity": [
        "symbols.star.calls", "symbols.star.self_s", "symbols.star.term_pairs",
        "symbols.star.terms_out", "symbols.mul.calls", "symbols.mul.self_s",
        "symbols.add.self_s", "symbols.diff.calls", "symbols.diff.self_s",
        "rationals.new.calls", "rationals.mul.calls", "rationals.add.calls",
        "rationals.max_bits", "starlog.calls", "starlog.self_s", "starlog.kept_term_ratio"],
    "series-sweep": [
        "pde.derive.calls", "pde.derive.self_s", "pde.apply.calls", "pde.apply.self_s",
        "series.ode.calls", "series.ode.self_s", "series.terms_max", "rationals.new.calls",
        "rationals.max_bits", "parsing.calls", "formatting.calls", "formatting.chars_out"],
    "finite-weyl": [
        "finite.to_symbol.self_s", "finite.from_symbol.self_s", "finite.star.self_s",
        "finite.dagger.self_s", "finite.basis.calls", "finite.basis.hit_ratio",
        "finite.basis.bytes_computed", "cli.self_s"],
    "exp-calculus": [
        "symbols.exp_share", "symbols.twist.calls", "symbols.twist.self_s", "parsing.calls",
        "parsing.self_s", "formatting.calls", "formatting.self_s", "formatting.chars_out",
        "serialize.calls", "serialize.self_s", "serialize.bytes", "cli.self_s"],
}


def tiny(name):
    """The workload cut to its first (cheapest) distinct classes; exp-calculus
    is cheap whole."""
    wl = WORKLOADS[name]
    if name == "exp-calculus":
        return wl
    return replace(wl, classes=tuple(dict.fromkeys(wl.classes))[:3])


@pytest.fixture(scope="module")
def runs():
    """One untraced and one traced tiny run of every workload."""
    saved = harness.SETUP_PROCESSES
    harness.SETUP_PROCESSES = 1
    try:
        return {(name, trace): harness.run(tiny(name), 0, 0.0, trace, ROOT / "src",
                                           lambda line: None)
                for name in WORKLOADS for trace in (False, True)}
    finally:
        harness.SETUP_PROCESSES = saved


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_reports_every_metric(runs, name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = runs[name, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in BENCH[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == wanted
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(STRESSED))
def test_layer_metrics_move_on_their_workload(runs, name):
    metrics = runs[name, True]["metrics"]
    zero = [key for key in STRESSED[name] if not metrics[key]["value"] > 0]
    assert not zero


def test_series_sweep_makes_no_star_products(runs):
    assert runs["series-sweep", True]["metrics"]["symbols.star.calls"]["value"] == 0
    assert runs["series-sweep", True]["metrics"]["symbols.star.term_pairs"]["value"] == 0


def test_names_in_benchmark_json_match_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_every_drawable_golden_request_has_a_record(tmp_path):
    for name, wl in WORKLOADS.items():
        expected = harness.load_expected(name)
        keys = {req.key for variants in pool(wl, tmp_path).values()
                for req in variants if req.check == "golden"}
        assert keys <= set(expected), name


def test_tracing_patches_every_namespace_and_restores_all():
    originals = (cli.derive_metric_operator, series.derive_metric_operator,
                 pde.derive_metric_operator, PhaseSymbol.__add__, PhaseSymbol.__radd__)
    recorder, counts = tracing.SpanRecorder(), tracing.Counts()
    with tracing.Patches() as patches:
        recorder.install(patches)
        counts.install(patches)
        assert cli.derive_metric_operator is series.derive_metric_operator
        assert cli.derive_metric_operator is not originals[2]
        assert PhaseSymbol.__radd__ is PhaseSymbol.__add__ is not originals[3]
        assert tracing.installed_wrappers()
        assert cli.main(["solve-metric", "--potential", "i*x", "--order", "2"]) == 0
    assert not tracing.installed_wrappers()
    assert (cli.derive_metric_operator, series.derive_metric_operator,
            pde.derive_metric_operator, PhaseSymbol.__add__, PhaseSymbol.__radd__) == originals
    names = {span[0] for span in recorder.spans}
    assert {"cli.main", "pde.derive", "series.ode", "pde.apply"} <= names
    assert counts.rationals_new > 0


def test_self_time_subtracts_direct_children():
    spans = [["cli.main", 0.0, 10.0, -1, 0],
             ["pde.derive", 1.0, 4.0, 0, 0],
             ["symbols.mul", 2.0, 3.0, 1, 0],
             ["parsing.expression", 5.0, 6.0, 0, 0]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    metrics = tracing.span_metrics(spans)
    assert metrics["cli.self_s"] == 6.0 and metrics["pde.derive.calls"] == 1


def test_tail_uses_highest_percentile_with_ten_samples_above():
    values = [float(i) for i in range(1, 201)]
    assert harness.tail(values, 99)[0] == 95
    assert harness.tail(values, 90)[0] == 90
    assert harness.tail(values[:15], 99)[0] == 50


def test_latencies_are_scaled_by_the_reference_readings_around_them():
    Sample = harness.Sample
    samples = [Sample(0.02, 1.0, 1.0), Sample(0.05, 1.0, 1.5), Sample(0.08, 2.0, 2.0)]
    assert harness.fastest(samples) == 1.0
    assert harness.at_full_speed(samples, 1.0) == pytest.approx([0.02, 0.04, 0.04])


def test_refuses_to_run_without_the_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".out", ".work-*"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exp-calculus",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
