import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from semitotal import (
    BudgetExceededError,
    Conventions,
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
from semitotal import claims
from semitotal.claims import _all_trees, _isomorphic, _tree_code
from semitotal.cli import cli

from conftest import relabeled, to_nx

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


def test_programming_error_in_oracle_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken oracle")

    monkeypatch.setattr("semitotal.claims.domination_number", broken)
    with pytest.raises(TypeError, match="broken oracle"):
        run_claims("T1.iii", budget=7)


@pytest.fixture
def fresh_half_rows():
    # _half_rows is cached per (budget, rule, claim): rows computed with a patched
    # oracle must neither come from nor stay in the cache.
    claims._half_rows.cache_clear()
    yield
    claims._half_rows.cache_clear()


# Patterns whose oracle call once sat outside _guarded, so that the error
# ended the run: the budget at which they have rows, and the instance whose
# row the error now reaches.
FORMERLY_UNGUARDED = {
    "T-join": (7, "(P3)v(P3)"),
    "T-joinK": (7, "(K1)v(P3)"),
    "T2.2.ii": (10, "Petersen"),
    "T-half": (7, "reverse tree4#0"),
    "T-halfgraph": (10, "negative C10"),
}


@pytest.mark.parametrize("oracle, pattern", [
    ("domination_number", "T1.*"),
    ("domination_number", "L-half"),
    ("domination_number", "T-corona"),
    ("domination_number", "T-join"),
    ("domination_number", "T-joinK"),
    ("domination_number", "T2.2.ii"),
    ("domination_number", "T-half"),
    ("domination_number", "T-halfgraph"),
    ("count_by_size", "C-COUNT-Fn"),
    ("count_by_size", "T-poly-diamond"),
    ("count_by_size", "T-split"),
    ("stability_witness", "T4-stab-FBS"),
])
def test_typed_error_becomes_undefined_row(monkeypatch, fresh_half_rows, oracle, pattern):
    def over_budget(*args, **kwargs):
        raise BudgetExceededError("too large")

    budget, site = FORMERLY_UNGUARDED.get(pattern, (7, None))
    monkeypatch.setattr(f"semitotal.claims.{oracle}", over_budget)
    report = run_claims(pattern, budget=budget)
    computed = [r for r in report.rows if r.oracle != "skipped"]
    assert computed
    for row in computed:
        assert (row.verdict, row.oracle) == ("UNDEFINED", "error")
        assert row.note.endswith("BudgetExceededError: too large")
    if site is not None:
        assert site in {r.instance for r in computed}
    # a row's own note is kept ahead of the error
    if pattern == "T4-stab-FBS":
        row = next(r for r in computed if r.instance == "B1 (statement)")
        assert row.note == "statement value; BudgetExceededError: too large"


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


def test_isomorphic_by_permutation():
    c4 = cycle(4)
    relabellings = [relabeled(c4, perm) for perm in ([1, 0, 2, 3], [2, 3, 1, 0], [0, 2, 1, 3])]
    assert all(_isomorphic(c4, h) and _isomorphic(h, c4) for h in relabellings)
    k4 = complete(4)
    k4_minus_e = Graph.from_edges(4, [e for e in k4.edges() if e != (0, 1)])
    others = [c4, k4_minus_e, k4]
    for i, g in enumerate(others):
        for j, h in enumerate(others):
            assert _isomorphic(g, h) == (i == j)
    # six edges and all degrees 2 on both sides, yet not isomorphic
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not _isomorphic(cycle(6), two_triangles)
    assert _isomorphic(cycle(6), relabeled(cycle(6), [3, 1, 5, 0, 2, 4]))
