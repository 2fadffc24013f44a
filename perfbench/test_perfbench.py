"""Self-tests of the benchmark: its correctness gate, its layer metrics, and its
refusal to run where there is no package to measure."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import semitotal
import spans
import workloads

HERE = Path(__file__).resolve().parent


def _small_inputs(labels, run):
    natural = {label: workloads.build(label) for label in labels}
    ops = [(label, g, v) for label in labels for v in workloads.VARIANTS
           for g in (natural[label], workloads.relabel(natural[label], 7, label))]
    inputs = {"natural": natural, "ops": ops}
    return inputs, run(inputs, None)


def test_verify_gate_fails_one_claim_per_corrupted_summary():
    expected = workloads.load_expected("verify_b14_summary.json")
    outputs = (0, json.dumps({"summary": expected}))
    assert workloads.check_verify({}, outputs) == (33, [])
    corrupted = copy.deepcopy(expected)
    corrupted["T1.i"]["rules"]["within2"]["pass"] += 1
    attempted, failures = workloads.check_verify({}, outputs, corrupted)
    assert (attempted, len(failures)) == (33, 1)
    assert workloads.check_verify({}, (1, ""))[1] != []


def test_solve_gate_fails_the_operations_of_a_corrupted_value():
    inputs, outputs = _small_inputs(["P16", "P4xP4"], workloads.run_solve)
    attempted, failures = workloads.check_solve(inputs, outputs)
    assert (attempted, failures) == (16, [])
    corrupted = copy.deepcopy(workloads.load_expected("solve.json"))
    corrupted["P16"]["within2"] += 1
    attempted, failures = workloads.check_solve(inputs, outputs, corrupted)
    assert len(failures) == 2  # natural and relabelled P16 under within2
    assert all("oracle" in f for f in failures)


def test_count_gate_fails_a_corrupted_coefficient_and_a_shifted_polynomial():
    inputs, outputs = _small_inputs(["P4xP4"], workloads.run_count)
    expected = {"P4xP4": {v: outputs[2 * i] for i, v in enumerate(workloads.VARIANTS)}}
    assert workloads.check_count(inputs, outputs, expected) == (8, [])
    corrupted = copy.deepcopy(expected)
    corrupted["P4xP4"]["plain"][-1] += 1
    assert len(workloads.check_count(inputs, outputs, corrupted)[1]) == 2
    shifted = [[0] + c[:-1] for c in outputs]
    assert len(workloads.check_count(inputs, shifted, {"P4xP4": {
        v: shifted[2 * i] for i, v in enumerate(workloads.VARIANTS)}})[1]) == 8


def test_stability_metrics_account_for_every_residue():
    tracer = spans.Tracer()
    original = semitotal.stability_witness
    spans.instrument(tracer)
    try:
        semitotal.stability_witness(semitotal.cycle(7), semitotal.WitnessRule.EXACTLY_TWO)
    finally:
        tracer.restore()
    assert semitotal.stability_witness is original
    m = spans.layer_metrics(tracer, ["T1.i"])
    assert m["stability.calls"] == 1
    assert m["stability.residues"] == m["graph.delete_vertices.calls"] > 0
    assert m["domination.number.calls"] == m["stability.residues_solved"] + 1
    assert m["stability.cache_hits"] >= 0
    assert m["claims.T1.i.s"] == 0.0


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
