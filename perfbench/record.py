#!/usr/bin/env python3
"""Record the expected outputs of every request the generators can draw, as
digests of exit code and stdout.

Usage (from the checkout root):
    python3 perfbench/record.py [WORKLOAD ...]

To re-verify the recorded digests, run it and check that
`git diff --exit-code perfbench/expected` shows no change.

Before anything is written, the outputs are checked against the library by
routes that do not go through the CLI text: every metric series leaves a
metric-equation residual of p^2 + g*V only beyond its order, its JSON and
text renderings parse back to it, star_exp undoes its star-log, and every
Gaussian candidate has zero residual.  Requests that share a key (a series
given by --potential or by --from-json) must produce the same output.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]

from moyalmetric import (GaussianRational, PhaseSymbol, SwansonParams,  # noqa: E402
                         gaussian_metric_candidates, parse_expression, parse_hbar_scalar,
                         residual, serialize, solve_metric_series, star_exp, star_log)

from perfbench import harness, workloads  # noqa: E402

GOLDEN_WORKLOADS = ("series-sweep", "log-positivity", "exp-calculus")


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"independent check failed: {what}")


def verify_series(potential: str, order: int, outputs: dict[str, str]) -> None:
    V = parse_expression(potential)
    series = solve_metric_series(V, order)
    H = PhaseSymbol.monomial(1, p=2) + V * PhaseSymbol.monomial(1, g=1)
    leftover = residual(H, series.assemble()).g_slices()
    key = f"solve-metric|{potential}|{order}|"
    require(min(leftover, default=order + 1) > order, f"{key} residual {sorted(leftover)}")
    if key + "json" in outputs:
        require(serialize.series_from_obj(json.loads(outputs[key + "json"])) == series,
                f"{key}json parses to another series")
    if key + "text" in outputs:
        for line in outputs[key + "text"].splitlines():
            label, expr = line.split(": ", 1)
            require(parse_expression(expr) == series.order(int(label[2:])),
                    f"{key}text {label} parses to another symbol")
    log_key = f"log-metric|{potential}|{order}|json"
    if log_key in outputs:
        log = star_log(series)
        require(star_exp(log) == series, f"star_exp does not undo {log_key}")
        require(serialize.series_from_obj(json.loads(outputs[log_key])) == log,
                f"{log_key} parses to another series")


def verify_candidates(outputs: dict[str, str]) -> None:
    for a, b, c in workloads._swanson_triples():
        ham = workloads.swanson_hamiltonian(a, b, c)
        H = parse_expression(ham)
        params = SwansonParams(GaussianRational(a), GaussianRational(b), GaussianRational(c))
        for shear in workloads.SQUARE_SHEARS.values():
            exact = [PhaseSymbol.exponential(eq) for eq in
                     gaussian_metric_candidates(params, parse_hbar_scalar(shear))]
            texts = workloads.gaussian_candidate_texts(a, b, c, shear)
            what = f"candidates of {ham} at s = {shear}"
            require([parse_expression(t) for t in texts] == exact, what + " differ")
            for theta, text in zip(exact, texts):
                require(not residual(H, theta), what + " have a residual")
                require(outputs[f"residual|{ham}|{text}|text"] == "0\n",
                        what + ": the CLI residual is not 0")


def record(name: str) -> dict[str, str]:
    wl = workloads.WORKLOADS[name]
    digests: dict[str, str] = {}
    outputs: dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=harness.HERE) as tmp:
        workdir = Path(tmp)

        def run(req: workloads.Request) -> str:
            out = harness.execute(req.argv)
            if out.rc != 0:
                raise SystemExit(f"{' '.join(req.argv)} exited {out.rc}:\n{out.stderr}")
            d = harness.digest(out.rc, out.stdout)
            if digests.setdefault(req.key, d) != d:
                raise SystemExit(f"requests with key {req.key} disagree")
            outputs[req.key] = out.stdout
            return out.stdout

        harness.write_documents(wl, workdir, run)
        for variants in workloads.pool(wl, workdir).values():
            for req in variants:
                if req.check == "golden":
                    run(req)
    if name == "exp-calculus":
        verify_candidates(outputs)
    else:
        for potential, order in (wl.documents or dict.fromkeys(wl.classes)):
            verify_series(potential, order, outputs)
    return dict(sorted(digests.items()))


def main(argv: list[str]) -> int:
    for name in argv or GOLDEN_WORKLOADS:
        digests = record(name)
        path = harness.EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(digests, indent=0) + "\n")
        print(f"{name}: recorded {len(digests)} outputs to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
