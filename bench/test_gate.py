"""Self-test of the benchmark: its correctness gate, tracer and metric list.

Run from the root of the checkout with ``python3 -m pytest -q bench``.
The CLI runs here use small grids so the whole file takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json

import run

SMALL_QPOLY = dataclasses.replace(
    run.WORKLOADS["box-qpoly-32"],
    steps=lambda seed, tmp: [["verify", "qpoly", "--grid", "16,16,16,16",
                              "--box=-2:2"]])

SMALL_FLD = dataclasses.replace(
    run.WORKLOADS["fld-qpoly-24"],
    steps=lambda seed, tmp: [
        [*argv[:4], "16,16,16,16", *argv[5:]] if argv[0] == "generate" else argv
        for argv in run.WORKLOADS["fld-qpoly-24"].steps(seed, tmp)])

REPORT = """su2topo-report:
  version: 0.1.0
  results:
    ledger:
      zero_count: 2
      index_sum: 2
      chi: 2
  zeros:
    - zero:
        degree: 1
    - zero:
        degree: 1
  checks:
    - name: ledger-equivalence
      status: PASS
      detail: |C2 - sum(beta*eta)| = 2.220e-16 < 0.05
    - name: euler-alias
      status: PASS
      detail: chi = 2 equals ledger sum 2
  overall: PASS
"""


def test_parse_report_flattens_nested_keys_and_list_items():
    flat = run.parse_report(REPORT)
    assert flat["results.ledger.zero_count"] == "2"
    assert flat["zeros.1.zero.degree"] == "1"
    assert flat["checks.1.name"] == "euler-alias"
    assert flat["checks.0.detail"] == "|C2 - sum(beta*eta)| = 2.220e-16 < 0.05"
    assert flat["overall"] == "PASS"


def test_gate_passes_the_expected_report():
    assert run.check_report(REPORT, SMALL_QPOLY) == []


def test_gate_fails_a_failed_or_missing_check():
    failed = REPORT.replace("status: PASS", "status: FAIL", 1)
    failed = failed.replace("overall: PASS", "overall: FAIL")
    assert run.check_report(failed, SMALL_QPOLY) == [
        "check ledger-equivalence is FAIL", "overall = FAIL"]
    missing = REPORT.replace("name: euler-alias", "name: other")
    assert run.check_report(missing, SMALL_QPOLY) == ["check euler-alias missing"]


def test_gate_fails_changed_report_bytes():
    runs = [run.Run(False, 1.0, 1.0, [0], digest) for digest in ("a", "a", "b")]
    run.mark_changed_reports(runs)
    assert [bool(r.problems) for r in runs] == [False, False, True]


def test_wrong_expected_integer_fails_the_run(tmp_path):
    wrong = dataclasses.replace(
        SMALL_QPOLY, expected={**SMALL_QPOLY.expected, "results.ledger.zero_count": 3})
    outcome = run.measure(wrong, seed=0, seconds=0, traced=False, tmp=str(tmp_path))
    result = outcome["result"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert outcome["notes"]["runs"][0]["problems"] == [
        "results.ledger.zero_count = 2, expected 3"]


def test_correct_run_passes_the_gate(tmp_path):
    result = run.measure(SMALL_QPOLY, seed=0, seconds=0, traced=False,
                         tmp=str(tmp_path))["result"]
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert [*result["metrics"]] == [name for name, _ in run.END_TO_END]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_keeps_report_bytes_and_fills_layers(tmp_path):
    steps = SMALL_QPOLY.steps(0, str(tmp_path))
    env = run.child_env()
    plain = run.run_workload(SMALL_QPOLY, steps, env, str(tmp_path), traced=False)
    traced = run.run_workload(SMALL_QPOLY, steps, env, str(tmp_path), traced=True)
    assert plain.problems == traced.problems == []
    assert traced.digest == plain.digest
    layers = traced.layers
    assert layers["phi_mapping.zeros_found"] == 2
    assert layers["phi_mapping.surface_degree.calls"] == 2
    assert layers["phi_mapping.newton.evals"] > 0
    assert layers["generators.quaternion_polynomial_field.self_s"] > 0
    assert layers["chern_density.chern_density.unit.self_s"] > 0
    # central_diff reaches phi_mapping through ``from .lattice import``.
    assert layers["lattice.central_diff.calls"] > 0
    # Bypassed layers: no file I/O, no interpolant, no 3-chart routes.
    for name in ("lattice.interpolate.calls", "fldio.file_bytes",
                 "fldio.fnv1a64.self_s", "decomposition.decompose.self_s",
                 "chern_simons.fn_data.self_s"):
        assert layers[name] == 0, name


def test_traced_file_round_trip_uses_fldio_and_the_interpolant(tmp_path):
    steps = SMALL_FLD.steps(5, str(tmp_path))
    traced = run.run_workload(SMALL_FLD, steps, run.child_env(), str(tmp_path),
                              traced=True)
    assert traced.problems == []
    layers = traced.layers
    assert layers["fldio.file_bytes"] == (tmp_path / "phi.fld").stat().st_size
    assert layers["fldio.fnv1a64.self_s"] > 0
    assert layers["fldio.write_mb_per_s"] > 0 and layers["fldio.read_mb_per_s"] > 0
    assert layers["lattice.interpolate.calls"] > 0
    assert layers["lattice.interpolate_with_gradient.calls"] > 0


def test_self_time_subtracts_directly_nested_spans():
    spans = [["cli.main", -1, 0.0, 10.0], ["report.render", 0, 1.0, 3.0],
             ["lattice.interpolate", 1, 1.5, 2.5], ["report.render", 0, 4.0, 6.0]]
    values = run.layer_values([{"spans": spans, "counts": {}}] * 2)
    assert values["cli.main.self_s"] == 12.0
    assert values["report.render.self_s"] == 6.0
    assert values["lattice.interpolate.calls"] == 2


def test_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [*run.WORKLOADS]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
