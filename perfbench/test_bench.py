"""Self-tests of the benchmark: tracing, exact counters, relabeling, goldens.

    python3 -m pytest perfbench -q
"""

import json

import numpy as np
import pytest

import run
import tracer
import workloads

modtalg = workloads.import_modtalg()
from modtalg import analysis, ffmat, scheme, talg  # noqa: E402

EXACT = ("calls", "count", "count_outer")


def _cyclic8_p2(base_points=(0,), entries=None):
    table = scheme.gen_cyclic(8) if entries is None else scheme.relation_table(entries)
    s = scheme.validate_axioms(table)
    return analysis.analyze(s, ffmat.field_ctx(2), base_points, "cyclic-8")


def _traced_cyclic8_p2():
    t = tracer.Tracer()
    with t.installed():
        _cyclic8_p2()
    return t


def test_counters_repeat_exactly():
    first, second = (tracer.layer_metrics(_traced_cyclic8_p2()) for _ in range(2))
    exact = {k: v for k, v in first.items() if k.rsplit(".", 1)[1] in EXACT}
    assert exact == {k: second[k] for k in exact}
    assert first["talg.generate_algebra.count"] > 0
    assert first["ffmat.rref_array.calls"] > 0
    assert first["ffmat.rref_array.count"] > 0
    assert first["ffmat.charpoly_coeffs.count"] > 0
    assert first["characterize.b0_unit_element.calls"] == 2


def test_self_times_partition_the_traced_time():
    t = _traced_cyclic8_p2()
    roots = [s for s in t.spans if s.parent < 0]
    assert [s.name for s in roots] == ["scheme.validate_axioms", "analysis.analyze"]
    total = sum(s.duration for s in roots)
    self_times = t.self_times()
    assert all(x >= 0 for x in self_times)
    assert sum(self_times) == pytest.approx(total, rel=1e-9)
    metrics = tracer.layer_metrics(t)
    layers = sum(metrics[f"{m}.self_s"] for m in tracer.TRACED)
    assert layers == pytest.approx(total, rel=1e-9)


def test_nested_radical_is_the_quotient_certificate():
    metrics = tracer.layer_metrics(_traced_cyclic8_p2())
    assert metrics["talg.radical.calls"] == 2
    assert metrics["talg.radical.nested_s"] > 0
    assert metrics["talg.radical.s"] >= metrics["talg.radical.nested_s"]


def test_tracer_restores_bindings():
    originals = (talg.rref_array, ffmat.rref_array, analysis.analyze, modtalg.analyze)
    with tracer.Tracer().installed():
        assert talg.rref_array is not originals[0]
        assert ffmat.rref_array is not originals[1]
        assert modtalg.analyze is not originals[3]
    assert (talg.rref_array, ffmat.rref_array, analysis.analyze, modtalg.analyze) == originals


def test_relabeled_report_matches_canonical_golden():
    n = 8
    golden = analysis.report_to_json(_cyclic8_p2(range(n)))
    perm = workloads.relabeling(5, 0, n)
    assert not np.array_equal(perm, np.arange(n))
    moved = workloads.relabel_table(scheme.gen_cyclic(n).entries, perm)
    bps = [int(perm[x]) for x in range(n)]
    text = analysis.report_to_json(_cyclic8_p2(bps, moved))
    assert text != golden
    assert workloads.golden_matches(text, golden, bps)


def test_golden_mismatch_is_detected():
    text = analysis.report_to_json(_cyclic8_p2())
    corrupted = json.loads(text)
    corrupted["dim_rad"] = [corrupted["dim_rad"][0] + 1]
    corrupted = json.dumps(corrupted, sort_keys=True, indent=2) + "\n"
    assert workloads.golden_matches(text, text, (0,))
    assert not workloads.golden_matches(text, corrupted, (0,))
    assert not workloads.golden_matches(text, text, (1,))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_case_has_a_golden_report(workload):
    for case in workloads.build_cases(workload, seed=0):
        assert case.golden_path(workload).is_file(), case.case_id


def test_benchmark_json_matches_the_runner():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
