"""modtalg benchmark: time `modtalg.analysis.analyze` end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload corpus-allbp --seed 0 --seconds 36 --trace 0

A closed loop: one process, no threads, one case after another.  A pass runs
every case of the workload once; passes repeat while the next one is
expected to end within `--seconds`.  Every report is checked against its
golden copy under `perfbench/golden/`.  `--trace 0` reports the end-to-end metrics; `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object; the exit code is 1
when any analysis raised or differed from its golden report, 2 when the
benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import tracer
import workloads

SETUP_REPEATS = 5
# The top-level spans' self times must add up to the externally timed
# `analyze` calls within this share; the gap is the root wrappers' own cost.
SELF_SUM_TOLERANCE = 0.01

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metric name -> unit.
PER_LAYER = {
    "talg.assert_two_sided_ideal.s": "s",
    "talg.assert_two_sided_ideal.calls": "count",
    "talg.check_radical_postconditions.s": "s",
    "talg.check_radical_postconditions.self_s": "s",
    "talg.radical.s": "s",
    "talg.radical.self_s": "s",
    "talg.radical.quotient_s": "s",
    "talg.radical.calls": "count",
    "talg.generate_algebra.s": "s",
    "talg.b0_b1.s": "s",
    "talg.annihilator_W0.s": "s",
    "talg.dim_T": "count",
    "talg.dim_rad": "count",
    "ffmat.charpoly_coeffs.s": "s",
    "ffmat.charpoly_coeffs.calls": "count",
    "ffmat.charpoly_coeffs.mats": "count",
    "ffmat.rref_array.s": "s",
    "ffmat.rref_array.calls": "count",
    "ffmat.rref_array.cells": "count",
    "ffmat.kernel_array.s": "s",
    "ffmat.solve_array.s": "s",
    "ffmat.solve_array.calls": "count",
    "characterize.b0_unit_element.s": "s",
    "characterize.b0_unit_element.calls": "count",
    "characterize.check_equivalences.s": "s",
    "characterize.check_corollary.s": "s",
    "primary.build_primary.s": "s",
    "primary.filtration.s": "s",
    "primary.composition_factors.s": "s",
    "primary.uniserial_check.s": "s",
    "primary.selfcontra_W0.s": "s",
    "scheme.validate_axioms.s": "s",
    "scheme.strata.s": "s",
    "analysis.compute_artifacts.self_s": "s",
    "analysis.analyze.s": "s",
    "ffmat.self_s": "s",
    "talg.self_s": "s",
    "primary.self_s": "s",
    "characterize.self_s": "s",
    "analysis.self_s": "s",
    "trace_overhead_frac": "frac",
    "trace_selfsum_frac": "frac",
}
# Per-layer metrics named differently in tracer.layer_metrics.
SOURCE = {
    "talg.radical.quotient_s": "talg.radical.nested_s",
    "talg.dim_T": "talg.generate_algebra.count",
    "talg.dim_rad": "talg.radical.count_outer",
    "ffmat.charpoly_coeffs.mats": "ffmat.charpoly_coeffs.count",
    "ffmat.rref_array.cells": "ffmat.rref_array.count",
}
COUNTER_UNIT = "count"
# Timed in the traced set-up, since `analyze` does not validate schemes.
FROM_SETUP = "scheme.validate_axioms.s"


class Tally:
    """Analyses attempted and failed, over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_pass(modtalg, cases, goldens, tally: Tally) -> tuple[float, float]:
    """Analyze every case once; return (pass wall time, time inside analyze).

    The pass time covers `analyze` and `report_to_json`, as `modtalg analyze
    --json` runs them; the golden comparison is outside it.
    """
    analysis, field_ctx = modtalg.analysis, modtalg.ffmat.field_ctx
    wall = in_analyze = 0.0
    for case, golden in zip(cases, goldens):
        tally.attempted += 1
        t0 = perf_counter()
        try:
            report = analysis.analyze(case.scheme, field_ctx(case.prime),
                                      case.base_points, case.name)
            t1 = perf_counter()
            text = analysis.report_to_json(report)
        except Exception:
            wall += perf_counter() - t0
            tally.failed += 1
            print(f"perfbench: {case.case_id} raised", file=sys.stderr)
            traceback.print_exc()
            continue
        t2 = perf_counter()
        wall += t2 - t0
        in_analyze += t1 - t0
        if not workloads.golden_matches(text, golden, case.base_points):
            tally.failed += 1
            print(f"perfbench: {case.case_id} differs from its golden report", file=sys.stderr)
    return wall, in_analyze


def warm_up(modtalg) -> None:
    """One tiny analysis, so lazy imports and first-call costs fall outside
    the timed passes."""
    s = modtalg.scheme.validate_axioms(modtalg.scheme.gen_cyclic(4))
    modtalg.analysis.analyze(s, modtalg.ffmat.field_ctx(2), (0,))


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up time in a fresh interpreter, as measured by setup_probe.py."""
    done = subprocess.run(
        [sys.executable, str(workloads.BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def repeat_for(seconds: float, step) -> list:
    """Call step() at least once, and again while the next call is expected
    to end within `seconds` of the first; return the results."""
    results, durations = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        results.append(step())
        durations.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(durations) > seconds:
            return results


def end_to_end(modtalg, args, cases, goldens, tally) -> dict[str, float]:
    setup = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    warm_up(modtalg)
    walls = repeat_for(args.seconds, lambda: run_pass(modtalg, cases, goldens, tally)[0])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"perfbench: passes {[round(w, 3) for w in walls]} s, set-ups "
          f"{[round(t, 3) for t in setup]} s", file=sys.stderr)
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(setup),
    }


def per_layer(modtalg, args, cases, goldens, tally, setup_trace) -> tuple[dict[str, float], bool]:
    """Untraced and traced passes in pairs, alternating which goes first;
    per-layer metrics from the traced ones (times: median over passes;
    counters: the first traced pass)."""
    pairs = 0

    def traced_pass():
        t = tracer.Tracer()
        with t.installed():
            wall, in_analyze = run_pass(modtalg, cases, goldens, tally)
        metrics = tracer.layer_metrics(t)
        metrics["trace_selfsum_frac"] = sum(t.self_times()) / in_analyze if in_analyze else 0.0
        return wall, metrics

    def pair():
        nonlocal pairs
        pairs += 1
        if pairs % 2:
            plain = run_pass(modtalg, cases, goldens, tally)[0]
            return (plain, *traced_pass())
        traced, metrics = traced_pass()
        return run_pass(modtalg, cases, goldens, tally)[0], traced, metrics

    warm_up(modtalg)
    plain, traced, layers = zip(*repeat_for(args.seconds, pair))
    setup_metrics = tracer.layer_metrics(setup_trace)
    out: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        if name.startswith("trace_"):
            continue
        source = SOURCE.get(name, name)
        if unit == COUNTER_UNIT:
            out[name] = layers[0][source]
        elif name == FROM_SETUP:
            out[name] = setup_metrics[source]
        else:
            out[name] = statistics.median(m[source] for m in layers)
    out["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    out["trace_selfsum_frac"] = statistics.median(m["trace_selfsum_frac"] for m in layers)
    accounted = all(abs(m["trace_selfsum_frac"] - 1) <= SELF_SUM_TOLERANCE for m in layers)
    if not accounted:
        print("perfbench: span self times do not add up to the traced analyze time",
              file=sys.stderr)
    print(f"perfbench: {len(plain)} untraced and {len(traced)} traced passes", file=sys.stderr)
    return out, accounted


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        modtalg = workloads.import_modtalg()
    except workloads.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_trace = tracer.Tracer()
    with setup_trace.installed() if args.trace else contextlib.nullcontext():
        cases = workloads.build_cases(args.workload, args.seed)
    goldens = []
    for case in cases:
        path = case.golden_path(args.workload)
        if not path.is_file():
            print(f"perfbench: missing golden report {path}", file=sys.stderr)
            return 2
        goldens.append(path.read_text())

    tally = Tally()
    if args.trace:
        values, accounted = per_layer(modtalg, args, cases, goldens, tally, setup_trace)
        units = PER_LAYER
    else:
        values, accounted = end_to_end(modtalg, args, cases, goldens, tally), True
        units = END_TO_END
    correct = tally.failed == 0 and accounted
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_frac {tally.failed / tally.attempted:.6g} frac "
          f"({tally.failed} of {tally.attempted} analyses)")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
