import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from itertools import combinations, islice
from pathlib import Path

import networkx as nx
import pytest

from semitotal import (
    BudgetExceededError,
    CapacityError,
    Conventions,
    CountPolynomial,
    DEFAULT_CONVENTIONS,
    Graph,
    PLAIN,
    SEMITOTAL_EXACT,
    SEMITOTAL_WITHIN,
    WitnessRule,
    claim_ids,
    complete,
    corona_bound_check,
    count_by_size,
    cycle,
    domination_number,
    friendship,
    half_order_characterization_check,
    path,
    run_claims,
)
from semitotal import claims, is_semitotal, semitotal, stability
from semitotal import report as report_module
from semitotal.claims import _all_trees, _tree_code
import semitotal.domination as domination
from semitotal.domination import _gate_applies, _is_valid, _levels, _solved, _solved_once, _valid_sets
from semitotal.cli import cli

from conftest import to_nx

# every identity the harness must know about, frozen; a missing id fails the build
CLAIM_MANIFEST = [
    "T1.i", "T1.ii", "T1.iii", "T1.iv", "T1.v",
    "T2.2.i", "T2.2.ii", "T2.2.iii", "T2.2.iv", "T2.2.v", "T2.2.vi", "T2.2.vii",
    "T-corona", "T-join", "T-joinK", "T-grid",
    "C-COUNT-star", "C-COUNT-Kmn-small", "C-COUNT-Kmn-large", "C-COUNT-Fn",
    "L-half", "T-half", "T-halfgraph",
    "T-poly-T", "T-poly-diamond", "T-split",
    "T4-stab-Kmn", "T4-stab-path", "T4-stab-cycle", "T4-stab-wheel",
    "T4-stab-joinpaths", "T4-stab-grid", "T4-stab-FBS",
]


def test_registry_matches_manifest():
    assert claim_ids() == CLAIM_MANIFEST


def test_pattern_filtering():
    report = run_claims("T1.*", budget=8)
    assert {r.claim for r in report.rows} <= {"T1.i", "T1.ii", "T1.iii", "T1.iv", "T1.v"}
    assert report.claim_order == ["T1.i", "T1.ii", "T1.iii", "T1.iv", "T1.v"]


def test_instances_appear_once_per_rule():
    report = run_claims("T1.*", budget=10)
    triples = [(r.claim, r.instance, r.rule) for r in report.rows]
    assert len(triples) == len(set(triples))


def test_t1_wheel_formula_passes_only_under_exact_rule():
    report = run_claims("T1.ii", budget=12)
    summary = report.summary()["T1.ii"]
    assert summary["passing_rule"] == "exact2"
    assert summary["rules"]["exact2"]["fail"] == 0
    assert summary["rules"]["within2"]["fail"] > 0


def test_friendship_count_discrepancy_is_reported():
    report = run_claims("C-COUNT-Fn", budget=9)
    row = next(r for r in report.rows if r.instance == "F2 i=3" and r.rule == "exact2")
    assert row.verdict == "FAIL"
    assert row.predicted == "8"
    assert row.oracle == "4"
    # the report matches an independent enumeration
    assert count_by_size(friendship(2), SEMITOTAL_EXACT)[3] == 4


def test_star_count_claim_passes_under_exact_rule():
    report = run_claims("C-COUNT-star", budget=9)
    summary = report.summary()["C-COUNT-star"]
    assert summary["rules"]["exact2"]["fail"] == 0
    assert summary["passing_rule"] == "exact2"


def test_poly_tree_claim_reports_first_difference():
    report = run_claims("T-poly-T", budget=8)
    row = next(r for r in report.rows
               if r.rule == "within2" and "attach=P4,P4" in r.instance and "n=8" in r.instance)
    assert row.detail("first_difference") == "3"
    assert row.detail("gamma_t2") == "4"
    # independent oracle: the double-long-attachment tree is the 8-path
    d = count_by_size(path(8), PLAIN)
    d_t2 = count_by_size(path(8), SEMITOTAL_WITHIN)
    assert d.first_difference(d_t2) == 3


def test_petersen_claim_passes_both_rules():
    summary = run_claims("T2.2.ii", budget=10).summary()["T2.2.ii"]
    for rule in ("within2", "exact2"):
        assert summary["rules"][rule] == {"pass": 1, "fail": 0, "na": 0, "undefined": 0}


def test_difference_table_arithmetic_is_clean():
    report = run_claims("T2.2.i", budget=8)
    arith = [r for r in report.rows if r.rule == "exact2" and r.instance.startswith("arith")]
    assert len(arith) == 87
    assert all(r.verdict in ("PASS", "N/A") for r in arith)
    gaps = sorted(int(r.instance.split("=")[1]) for r in arith if r.verdict == "N/A")
    assert gaps == [18, 21, 25, 33, 36, 40, 48, 51, 55, 63, 66, 70, 78, 81, 85]


def test_difference_table_solver_side_reaches_the_budget():
    report = run_claims("T2.2.i", budget=40)
    eq_rows = [n for n in range(4, 41) if (pred := claims._path_difference_prediction(n)) and pred[0] == "eq"]
    assert len(eq_rows) == 31
    for rule in ("within2", "exact2"):
        solver = {r.instance: r.verdict for r in report.rows if r.rule == rule and r.instance.startswith("solver")}
        assert solver == {f"solver n={n}": "PASS" for n in eq_rows}, rule


def test_friendship_counts_reach_27_vertices():
    # F13 has 27 vertices; the counting DP holds a handful of states for it
    report = run_claims("C-COUNT-Fn", budget=27)
    assert "F13 i=27" in {r.instance for r in report.rows}
    assert not [r for r in report.rows if r.verdict == "UNDEFINED"]


def test_corona_bound_check_examples():
    row = corona_bound_check(path(4), complete(1), rule=WitnessRule.EXACTLY_TWO)
    assert row.verdict == "PASS"
    assert row.predicted == "= 4" and row.oracle == "4"
    row = corona_bound_check(path(3), complete(2), rule=WitnessRule.EXACTLY_TWO)
    assert row.verdict == "PASS"
    row = corona_bound_check(cycle(5), path(2), rule=WitnessRule.EXACTLY_TWO)
    assert row.verdict == "PASS"  # 15-vertex corona, still within solver reach


def test_half_order_characterization_within_rule_is_clean():
    report = half_order_characterization_check(10)
    assert report.rows
    assert all(r.verdict == "PASS" for r in report.rows)


def test_claims_beyond_budget_summarize_as_na():
    summary = run_claims("T4-stab-joinpaths", budget=10).summary()["T4-stab-joinpaths"]
    assert summary["status"] == "N/A"
    assert summary["instances"] == 0


def test_book_stability_reports_both_candidates():
    report = run_claims("T4-stab-FBS", budget=8)
    rows = [r for r in report.rows if r.rule == "exact2" and r.instance.startswith("B1")]
    verdicts = {r.instance: r.verdict for r in rows}
    assert verdicts == {"B1 (statement)": "FAIL", "B1 (derivation)": "PASS"}


def test_kmn_stability_anomalous_row():
    report = run_claims("T4-stab-Kmn", budget=7)
    row = next(r for r in report.rows if r.instance == "K2,3" and r.rule == "exact2")
    assert row.predicted == "0"
    assert row.oracle == "1"
    assert row.verdict == "FAIL"
    assert "anomalous" in row.note


def test_report_is_deterministic():
    a = run_claims("T1.* T2.2.ii".split()[0], budget=9)
    b = run_claims("T1.*", budget=9)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()
    assert a.to_table() == b.to_table()


def test_json_report_round_trips():
    report = run_claims("T1.iii", budget=11)
    payload = json.loads(report.to_json())
    assert payload["budget"] == 11
    assert payload["pattern"] == "T1.iii"
    assert len(payload["report"]) == len(report.rows)
    for row, original in zip(payload["report"], report.rows):
        assert row["claim"] == original.claim
        assert row["instance"] == original.instance
        assert row["verdict"] == original.verdict
        assert row["details"] == dict(original.details)


def test_csv_has_header_and_all_rows():
    report = run_claims("T-grid", budget=9)
    lines = report.to_csv().splitlines()
    assert lines[0] == "claim,instance,rule,predicted,oracle,verdict,note"
    assert len(lines) == len(report.rows) + 1


def test_table_mentions_exclusive_rule():
    text = run_claims("T1.iii", budget=11).to_table()
    assert "passes only under rule exact2" in text


def test_conventions_flow_through():
    # with the convention off, the complete graph rows become undefined
    report = run_claims("T1.i", budget=5, conv=Conventions(complete_singleton=False))
    c3 = next(r for r in report.rows if r.instance == "C3" and r.rule == "exact2")
    assert c3.oracle == "undefined"


def test_full_registry_is_deterministic():
    assert run_claims("*", budget=8).to_json() == run_claims("*", budget=8).to_json()


def test_empty_pattern_yields_empty_report():
    report = run_claims("no-such-claim-*", budget=10)
    assert report.rows == []
    assert report.claim_order == []
    assert json.loads(report.to_json())["report"] == []
    assert report.to_csv().splitlines() == ["claim,instance,rule,predicted,oracle,verdict,note"]


@pytest.fixture
def fresh_half_rows():
    # _half_rows is cached per (budget, rule, claim): rows computed with a patched
    # oracle must neither come from nor stay in the cache.
    claims._half_rows.cache_clear()
    yield
    claims._half_rows.cache_clear()


# Every oracle a claim check calls; T-half's reverse sweep deepens from n/2 - 1
# members through _levels, not for the number.
ORACLES = ("domination_number", "count_by_size", "stability_witness", "_levels")

# Instances whose oracle error once ended the run or met a guard of its own
# builder: the error must reach each of them as a row.
FORMERLY_UNGUARDED = {
    "T-join": "(P3)v(P3)",
    "T-joinK": "(K1)v(P3)",
    "T2.2.ii": "Petersen",
    "T-half": "reverse tree4#0",
    "T-halfgraph": "negative C10",
}

# The single oracle through which twelve patterns reach their errors, then
# every oracle at once for each claim.
ERROR_CASES = [pytest.param(oracles, pattern, id=f"{oracles[0]}-{pattern}") for oracles, pattern in [
    (("domination_number",), "T1.*"),
    (("domination_number",), "L-half"),
    (("domination_number",), "T-corona"),
    (("domination_number",), "T-join"),
    (("domination_number",), "T-joinK"),
    (("domination_number",), "T2.2.ii"),
    (("domination_number", "_levels"), "T-half"),
    (("domination_number",), "T-halfgraph"),
    (("count_by_size",), "C-COUNT-Fn"),
    (("count_by_size",), "T-poly-diamond"),
    (("count_by_size",), "T-split"),
    (("stability_witness",), "T4-stab-FBS"),
]] + [pytest.param(ORACLES, cid, id=cid) for cid in claim_ids()]


def _patched_run(monkeypatch, oracles, pattern, error):
    def broken(*args, **kwargs):
        raise error

    for oracle in oracles:
        monkeypatch.setattr(f"semitotal.claims.{oracle}", broken)
    # the first joined pair of paths, (P5)v(P6), has 11 vertices
    return run_claims(pattern, budget=11 if pattern == "T4-stab-joinpaths" else 10)


@pytest.mark.parametrize("oracles, pattern", ERROR_CASES)
def test_typed_error_becomes_undefined_row(monkeypatch, fresh_half_rows, oracles, pattern):
    report = _patched_run(monkeypatch, oracles, pattern, BudgetExceededError("too large"))
    # T2.2.i's table arithmetic and the skipped rows call no oracle
    computed = [r for r in report.rows if r.oracle != "skipped" and not r.instance.startswith("arith n=")]
    assert computed
    for row in computed:
        assert (row.verdict, row.oracle) == ("UNDEFINED", "error"), row
        assert row.note.endswith("BudgetExceededError: too large"), row
    if pattern in FORMERLY_UNGUARDED:
        assert FORMERLY_UNGUARDED[pattern] in {r.instance for r in computed}
    # a row's own note is kept ahead of the error
    if pattern == "T4-stab-FBS":
        row = next(r for r in computed if r.instance == "B1 (statement)")
        assert row.note == "statement value; BudgetExceededError: too large"


@pytest.mark.parametrize("cid", claim_ids())
def test_programming_error_in_oracle_propagates(monkeypatch, fresh_half_rows, cid):
    with pytest.raises(TypeError, match="broken oracle"):
        _patched_run(monkeypatch, ORACLES, cid, TypeError("broken oracle"))


@pytest.mark.parametrize("check", [run_claims, half_order_characterization_check])
def test_budget_outside_the_word_is_refused(fresh_half_rows, check):
    with pytest.raises(ValueError, match="at least 0, got -3"):
        check(budget=-3)
    with pytest.raises(CapacityError, match="budget 66 is above the word budget of 64"):
        check(budget=66)


def test_refused_count_row_keeps_the_whole_refusal_text(monkeypatch):
    # The note of a refused counting row is part of a large-budget report's
    # bytes, so the refusal text is pinned whole.
    monkeypatch.setattr("semitotal.domination._MAX_STATES", 16)
    refused = [(r.instance, r.rule, r.oracle, r.note)
               for r in run_claims("C-COUNT-Kmn-large", 12).rows if r.verdict == "UNDEFINED"]
    steps = [("K5,5", "within2", 5, 10), ("K5,6", "within2", 5, 11), ("K5,7", "within2", 5, 12),
             ("K6,6", "within2", 5, 12), ("K4,5", "exact2", 8, 9), ("K4,6", "exact2", 8, 10),
             ("K4,7", "exact2", 8, 11), ("K4,8", "exact2", 8, 12), ("K5,5", "exact2", 5, 10),
             ("K5,6", "exact2", 5, 11), ("K5,7", "exact2", 5, 12), ("K6,6", "exact2", 5, 12)]
    assert refused == [
        (instance, rule, "error",
         f"BudgetExceededError: counting needs more than 16 states with {decided} of {n} vertices decided")
        for instance, rule, decided, n in steps]


def test_halfgraph_rows_build_no_trees(monkeypatch, fresh_half_rows):
    # T-halfgraph's rows come from named graphs only; the tree enumeration
    # belongs to T-half, whose per-claim time must not include it.
    def no_trees(n):
        raise AssertionError(f"T-halfgraph enumerated the trees on {n} vertices")

    monkeypatch.setattr(claims, "_all_trees", no_trees)
    report = run_claims("T-halfgraph", 10)
    assert {r.claim for r in report.rows} == {"T-halfgraph"}
    assert len(report.rows) > 10


def test_verify_summary_matches_committed_b14_summary(capsys):
    # The benchmark's own correctness gate, run here so that tier-1 sees it too.
    expected = json.loads((Path(__file__).parents[1] / "perfbench/expected/verify_b14_summary.json").read_text())
    assert cli(["verify", "--claims", "*", "--budget", "14", "--out", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"] == expected


# sha256 of the whole B = 12 JSON report, witness masks and row details
# included; a change of any row or of its order shows here.
B12_JSON_SHA256 = "42cdf65636ae7c80a6977d6da8e535c857ec245bf50f4007232131c081ae86e9"


def test_verify_b12_output_is_byte_stable(capsys):
    assert cli(["verify", "--claims", "*", "--budget", "12", "--out", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == B12_JSON_SHA256


def test_verify_runs_without_networkx():
    # networkx is a test oracle only: importing the package and the CLI must
    # not load it, and verify must give the same bytes with it blocked.
    script = """
import sys
import semitotal, semitotal.cli
assert not [m for m in sys.modules if m.partition(".")[0] == "networkx"], "networkx was imported"
sys.modules["networkx"] = None  # any later import of it raises ImportError
sys.exit(semitotal.cli.cli(["verify", "--claims", "*", "--budget", "12", "--out", "json"]))
"""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == B12_JSON_SHA256


@pytest.mark.parametrize("flags, digest", [
    (["--out", "csv", "--kn-convention", "off"],
     "f88a26d640bf34409161a32157626fd5600ec0474c84e01b868dcd009a231a34"),
    (["--out", "table"], "ec50cc7d3510dcfa8886399b96bffb1d5010484b5a2826233d03a99f59cb7c66"),
], ids=["csv-convention-off", "table"])
def test_verify_b12_writers_are_byte_stable(capsys, flags, digest):
    # The same pin for the conventions-off path and the CSV and table writers.
    assert cli(["verify", "--claims", "*", "--budget", "12", *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# The same pin at B = 14, the benchmark's budget.
B14_JSON_SHA256 = "18f177647232eff70b937d2c1bdc2d58e3fdba27aee598e032d23c3bca180ce6"


def test_verify_b14_output_is_byte_stable(capsys):
    assert cli(["verify", "--claims", "*", "--budget", "14", "--out", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == B14_JSON_SHA256


def _dumps_whole_payload(report):
    """The JSON report as one ``json.dumps`` of a payload holding every row."""
    payload = {
        "pattern": report.pattern,
        "budget": report.budget,
        "conventions": {"complete_singleton": report.conventions.complete_singleton},
        "report": [
            {
                "claim": r.claim,
                "instance": r.instance,
                "rule": r.rule,
                "predicted": r.predicted,
                "oracle": r.oracle,
                "verdict": r.verdict,
                "note": r.note,
                "details": dict(r.details),
            }
            for r in report.rows
        ],
        "summary": report.summary(),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("pattern", ["no-such-claim-*", "T1.i", "*"])
def test_json_writer_matches_one_dumps_of_the_whole_payload(pattern):
    report = run_claims(pattern, budget=10)
    if pattern == "*":  # several slices, and rows with details among them
        assert len(report.rows) > 2 * report_module._ROWS_PER_SLICE
        assert any(r.details for r in report.rows)
    assert report.to_json() == _dumps_whole_payload(report)


@pytest.mark.parametrize("rows_per_slice", [1, 2, 7])
def test_json_writer_does_not_depend_on_the_slice_size(monkeypatch, rows_per_slice):
    report = run_claims("T1.*", budget=8)
    monkeypatch.setattr(report_module, "_ROWS_PER_SLICE", rows_per_slice)
    assert report.to_json() == _dumps_whole_payload(report)


@pytest.mark.parametrize("writer", ["to_json", "to_csv", "to_table"])
def test_writer_puts_on_a_stream_the_text_it_returns(writer):
    report = run_claims("*", budget=8)
    assert any(r.verdict == "FAIL" for r in report.rows)  # the table's findings block
    out = io.StringIO()
    assert getattr(report, writer)(out) is None
    assert out.getvalue() == getattr(report, writer)()


class _Discard:
    def write(self, text):
        return len(text)


def _traced_peak_of_writing(report):
    tracemalloc.start()
    try:
        report.to_json(_Discard())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writing_the_json_report_takes_memory_bounded_by_a_slice():
    small, large = run_claims("*", budget=12), run_claims("*", budget=16)
    assert len(large.rows) > 1.5 * len(small.rows)  # 3,184 rows against 1,910
    small_peak, large_peak = _traced_peak_of_writing(small), _traced_peak_of_writing(large)
    assert large_peak <= 1.25 * small_peak, (small_peak, large_peak)
    assert large_peak < 1.5 * 2**20, large_peak


def _trees_up_to(n_max):
    """Every tree on 1..n_max vertices, and a seeded relabelled copy of each."""
    rng = random.Random(20240811)
    out = []
    for n in range(1, n_max + 1):
        for t in (nx.nonisomorphic_trees(n) if n > 1 else [nx.empty_graph(1)]):
            edges = list(t.edges())
            perm = list(range(n))
            rng.shuffle(perm)
            out.append(Graph.from_edges(n, edges))
            out.append(Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges]))
    return out


def test_tree_code_decides_isomorphism():
    trees = _trees_up_to(9)
    assert len(trees) == 2 * 95
    codes = [_tree_code(t) for t in trees]
    as_nx = [to_nx(t) for t in trees]
    for i in range(len(trees)):
        for j in range(i, len(trees)):
            same = trees[i].n == trees[j].n and nx.is_isomorphic(as_nx[i], as_nx[j])
            assert (codes[i] == codes[j]) == same, (trees[i].edges(), trees[j].edges())


# OEIS A000055: the number of trees on n unlabelled vertices, n = 0..12
A000055 = [1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]


def test_all_trees_follow_networkx_edge_for_edge():
    # the same algorithm, so the same trees in the same order: the instance
    # labels "tree{n}#{idx}" name the same trees either way
    for n in range(1, 13):
        expected = [sorted(tuple(sorted(e)) for e in t.edges())
                    for t in (nx.nonisomorphic_trees(n) if n > 1 else [nx.empty_graph(1)])]
        assert [t.edges() for t in _all_trees(n)] == expected, n
        assert len(_all_trees(n)) == A000055[n]


def test_k4_members_of_the_half_family_are_one_per_isomorphism_class():
    # networkx's isomorphism test, in the order the entries are built, keeps
    # the same first graph of each class as the harness's edge-count dedupe
    pairs = list(combinations(range(4), 2))
    expected: list[Graph] = []
    for bits in range(64):
        g = Graph.from_edges(4, [pairs[i] for i in range(6) if bits >> i & 1])
        if g.is_connected() and min(g.degree(v) for v in range(4)) >= 2 \
                and not any(nx.is_isomorphic(to_nx(g), to_nx(h)) for h in expected):
            expected.append(g)
    kept = [g for label, g, _, _ in claims._half_graph_entries(4) if label.startswith("K4 ")]
    assert [g.edges() for g in kept] == [g.edges() for g in expected]
    assert [g.edge_count() for g in kept] == [4, 5, 6]


@pytest.mark.parametrize("budget", [12, 14])
@pytest.mark.parametrize("singleton", [True, False])
def test_run_table_leaves_the_report_unchanged(monkeypatch, fresh_half_rows, budget, singleton):
    conv = Conventions(singleton)
    shared = run_claims("*", budget, conv).to_json()
    claims._half_rows.cache_clear()
    monkeypatch.setattr(claims, "_solved_once", contextlib.nullcontext)
    assert run_claims("*", budget, conv).to_json() == shared


def test_run_table_lives_only_inside_the_run(monkeypatch):
    seen = []
    builder = claims.REGISTRY["T1.i"].builder

    def spy(*args):
        seen.append(_solved.get())
        return builder(*args)

    monkeypatch.setitem(claims.REGISTRY, "T1.i", claims.Claim("T1.i", "spy", spy))
    run_claims("T1.i", 6)
    assert seen[0] is seen[1] and seen[0]  # one table, shared by both rules, and used
    assert _solved.get() is None

    def broken(*args):
        assert _solved.get() is not None
        raise TypeError("broken builder")

    monkeypatch.setitem(claims.REGISTRY, "T1.i", claims.Claim("T1.i", "broken", broken))
    with pytest.raises(TypeError, match="broken builder"):
        run_claims("T1.i", 6)
    assert _solved.get() is None


def test_run_table_is_per_thread():
    inside, outside = threading.Event(), threading.Event()
    seen = {}

    def other():
        inside.wait()
        seen["other"] = _solved.get()
        domination_number(path(5), SEMITOTAL_WITHIN)
        outside.set()

    worker = threading.Thread(target=other)
    worker.start()
    with _solved_once():
        domination_number(path(4), SEMITOTAL_WITHIN)
        inside.set()
        outside.wait()
        table = _solved.get()
    worker.join()
    assert seen["other"] is None
    assert list(table) == [(path(4).adj, SEMITOTAL_WITHIN)]


def test_every_number_set_and_count_of_a_run_agrees_with_a_second_engine(monkeypatch, fresh_half_rows):
    # The harness trusts what _solve, _minimum_set and count_by_size return.
    # Each number and each set found in a whole run is checked against the
    # lowest nonzero count of the frontier program under bare conventions, each
    # set with _is_valid, and each count of a graph of at most 10 vertices
    # against a tally of the combination enumerator behind brute_force_number.
    solve, minimum_set, count = domination._solve, domination._minimum_set, claims.count_by_size
    numbers, sets, counts = [], [], []

    def spy_solve(g, variant):
        number, best = solve(g, variant)
        numbers.append((g, variant, number))
        if best is not None:
            sets.append((g, variant, best))
        return number, best

    def spy_minimum_set(g, variant):
        best = minimum_set(g, variant)
        sets.append((g, variant, best))
        return best

    def spy_count(g, variant, conv=DEFAULT_CONVENTIONS):
        polynomial = count(g, variant, conv)
        counts.append((g, variant, conv, polynomial))
        return polynomial

    monkeypatch.setattr(domination, "_solve", spy_solve)
    monkeypatch.setattr(domination, "_minimum_set", spy_minimum_set)
    monkeypatch.setattr(stability, "_minimum_set", spy_minimum_set)
    monkeypatch.setattr(claims, "count_by_size", spy_count)
    run_claims("*", 20)

    lowest: dict = {}

    def least(g, variant):
        key = g.adj, variant
        if key not in lowest:
            coeffs = count_by_size(g, variant, claims._BARE).coeffs
            lowest[key] = next((k for k, c in enumerate(coeffs) if c), None)
        return lowest[key]

    for g, variant, number in numbers:
        assert number == least(g, variant), (g.name, variant)
    for g, variant, best in sets:
        assert (None if best is None else best.bit_count()) == least(g, variant), (g.name, variant, best)
        assert best is None or _is_valid(g, variant, best), (g.name, variant, best)
    tallied = 0
    for g, variant, conv, polynomial in counts:
        if g.n > 10:
            continue
        coeffs = [0] * (g.n + 1)
        for members in _valid_sets(g, variant, range(1, g.n + 1)):
            coeffs[members.bit_count()] += 1
        if _gate_applies(g, variant, conv):
            coeffs[1] += g.n
        assert polynomial == CountPolynomial(coeffs), (g.name, variant, conv)
        tallied += 1
    assert numbers and sets and tallied


def test_half_decision_matches_the_number_on_small_trees():
    # T-half's reverse sweep deepens from n/2 - 1 members in place of asking
    # for the number; it must attain n/2 exactly when the number does.
    for t in _trees_up_to(10):
        if t.n < 4:
            continue
        for rule in WitnessRule:
            variant = semitotal(rule)
            value = domination_number(t, variant, claims._BARE)
            found = {k: next(_levels(t, variant, k), None) for k in range(1, t.n + 1)}
            for k, members in found.items():
                assert (members is not None) == (value is not None and value <= k), (t.edges(), k)
                assert members is None or (members.bit_count() <= k and is_semitotal(t, members, rule))
            if t.n % 2 == 0:
                half = t.n // 2
                attains = found[half - 1] is None and found[half] is not None
                assert attains == (value is not None and 2 * value == t.n), t.edges()
                levels = [x is None for x in islice(_levels(t, variant, half - 1), 2)]
                assert (levels == [True, False]) == attains, t.edges()
