"""Acceptance criteria, one test per criterion.

Each test prints a single summary line (visible with ``pytest -s`` or
``-rA``).  Where exhaustive computation contradicts a published closed-form
value, the true oracle value is asserted and the harness's discrepancy
report is asserted alongside it; those spots are marked ANOMALY below and
documented in the project notes.
"""

from itertools import combinations

from semitotal import (
    Conventions,
    bits_list,
    Graph,
    IsolatesError,
    PLAIN,
    RemovalPolicy,
    SEMITOTAL_EXACT,
    SEMITOTAL_WITHIN,
    TOTAL,
    WitnessRule,
    book,
    brute_force_number,
    closed_form,
    complete,
    complete_bipartite,
    count_by_size,
    cycle,
    domination_number,
    emit_graph,
    friendship,
    mask_from,
    parse_graph,
    path,
    pendant_path_tree,
    petersen,
    run_claims,
    semitotal,
    star,
    stability_witness,
    wheel,
    Attach,
    GraphFormat,
)

from corpus import family_corpus, full_corpus

BARE = Conventions(complete_singleton=False)
ALL_VARIANTS = (PLAIN, TOTAL, SEMITOTAL_WITHIN, SEMITOTAL_EXACT)


def ceil_div(a, b):
    return -(-a // b)


def test_criterion_01_oracle_agreement():
    corpus = full_corpus(14)
    checked = 0
    for g in corpus:
        for variant in ALL_VARIANTS:
            gated = variant.kind == "semitotal" and g.is_complete()
            defined = variant.kind == "plain" or gated or g.is_isolate_free()
            if not defined:
                for op in (domination_number, brute_force_number):
                    try:
                        op(g, variant)
                        raise AssertionError(f"{g.name}: isolate check missing")
                    except IsolatesError:
                        pass
                continue
            assert domination_number(g, variant) == brute_force_number(g, variant), (g.name, variant)
            checked += 1
    print(f"ACCEPTANCE 1 (oracle agreement on {len(corpus)} corpus graphs, "
          f"{checked} solver runs): PASS")


def test_criterion_02_paths_and_cycles_formula():
    for n in range(3, 16):
        expected = ceil_div(2 * n, 5)
        for rule in WitnessRule:
            assert brute_force_number(path(n), semitotal(rule), BARE) == expected, (n, rule)
        if n >= 4:
            for rule in WitnessRule:
                assert brute_force_number(cycle(n), semitotal(rule), BARE) == expected, (n, rule)
    assert brute_force_number(cycle(3), semitotal(WitnessRule.WITHIN_TWO), BARE) == 2
    # ANOMALY (C_3, exact2): C_3 = K_3 has no vertex pair at distance 2, so no
    # semitotal set exists bare, and the singleton convention gives 1; the
    # formula value 2 is unattainable.  The harness must report this.
    assert brute_force_number(cycle(3), SEMITOTAL_EXACT, BARE) is None
    assert brute_force_number(cycle(3), SEMITOTAL_EXACT) == 1
    c3_rows = [r for r in run_claims("T1.i", budget=3).rows if r.instance == "C3"]
    assert c3_rows and all(r.verdict != "PASS" for r in c3_rows)
    print("ACCEPTANCE 2 (ceil(2n/5) for paths 3..15 and cycles 4..15, both rules; "
          "C3 anomaly pinned and reported): PASS")


def test_criterion_03_wheel_friendship_book():
    for n in range(5, 13):
        assert brute_force_number(wheel(n), SEMITOTAL_EXACT) == ceil_div(n - 1, 3), n
    for n in range(2, 6):
        assert brute_force_number(friendship(n), SEMITOTAL_EXACT) == n, n
    for n in range(1, 4):
        assert brute_force_number(book(n), SEMITOTAL_EXACT) == n + 1, n
    # ANOMALY (B_4, B_5 under exact2): the four vertices (hub,0),(hub,1),
    # (leaf1,0),(leaf1,1) dominate every page and witness each other at
    # distance exactly 2, so the oracle value is 4, not n+1.
    for n in (4, 5):
        assert brute_force_number(book(n), SEMITOTAL_EXACT) == 4, n
        hubs_and_page = mask_from([0, 1, 2, 3])
        from semitotal import is_semitotal
        assert is_semitotal(book(n), hubs_and_page, WitnessRule.EXACTLY_TWO)
    book_rows = [r for r in run_claims("T1.iv", budget=12).rows
                 if r.rule == "exact2" and r.instance in ("B4", "B5")]
    assert book_rows and all(r.verdict == "FAIL" and r.oracle == "4" for r in book_rows)
    # rule sensitivity: within-2 collapses both families to 2
    for n in range(2, 6):
        assert brute_force_number(friendship(n), SEMITOTAL_WITHIN) == 2, n
    for n in range(1, 6):
        assert brute_force_number(book(n), SEMITOTAL_WITHIN) == 2, n
    print("ACCEPTANCE 3 (wheels 5..12, friendship 2..5 exact; books: n+1 for n<=3, "
          "oracle 4 for n=4,5 pinned and reported; within-2 gives 2): PASS")


def test_criterion_04_complete_bipartite():
    for m in range(2, 5):
        for n in range(m, 5):
            assert brute_force_number(complete_bipartite(m, n), SEMITOTAL_EXACT) == m, (m, n)
    for m in range(5, 8):
        for n in range(m, 8):
            assert brute_force_number(complete_bipartite(m, n), SEMITOTAL_EXACT) == 4, (m, n)
    print("ACCEPTANCE 4 (K_{m,n}: min for 2<=m<=n<=4, four for 5<=m<=n<=7, exact2): PASS")


def test_criterion_05_sandwich_and_half_bound():
    violations = []
    checked = 0
    for g in full_corpus(14):
        if g.n < 4 or not g.is_connected() or g.is_complete():
            continue
        gamma = domination_number(g, PLAIN)
        within = domination_number(g, SEMITOTAL_WITHIN)
        total = domination_number(g, TOTAL)
        if not (gamma <= within <= total):
            violations.append((g.name, "sandwich"))
        if 2 * within > g.n:
            violations.append((g.name, "half"))
        checked += 1
    assert not violations, violations
    print(f"ACCEPTANCE 5 (sandwich and half bound, {checked} connected graphs, "
          f"0 violations): PASS")


def test_criterion_06_counting():
    for n in range(3, 9):
        enumerated = count_by_size(star(n), SEMITOTAL_EXACT)
        assert enumerated == closed_form("star", n=n), n
    assert count_by_size(cycle(4), SEMITOTAL_WITHIN)[2] == 6
    assert count_by_size(cycle(4), SEMITOTAL_EXACT)[2] == 2
    print("ACCEPTANCE 6 (star polynomials x^n for 3<=n<=8 exact2; C4 pair counts "
          "6 within / 2 exact): PASS")


def test_criterion_07_known_discrepancy_pins():
    report = run_claims("C-COUNT-Fn", budget=7)
    row = next(r for r in report.rows if r.instance == "F2 i=3" and r.rule == "exact2")
    assert row.verdict == "FAIL"
    assert int(row.predicted) == closed_form("friendship", n=2)[3] == 8
    assert int(row.oracle) == count_by_size(friendship(2), SEMITOTAL_EXACT)[3] == 4

    report = run_claims("T-poly-T", budget=8)
    row = next(r for r in report.rows
               if r.rule == "within2" and "attach=P4,P4" in r.instance and "n=8" in r.instance)
    tree = pendant_path_tree(complete(2), [Attach.P4, Attach.P4])
    oracle_fd = count_by_size(tree, PLAIN).first_difference(
        count_by_size(tree, SEMITOTAL_WITHIN))
    gamma_t2 = domination_number(tree, SEMITOTAL_WITHIN)
    reported_fd = None if row.detail("first_difference") == "none" else int(row.detail("first_difference"))
    assert reported_fd == oracle_fd
    assert (reported_fd is not None and reported_fd < gamma_t2) == (
        oracle_fd is not None and oracle_fd < gamma_t2)
    assert oracle_fd == 3 and gamma_t2 == 4
    print("ACCEPTANCE 7 (C-COUNT-Fn FAIL at (n=2,i=3) predicted 8 vs oracle 4; "
          "T-poly-T first_difference 3 < gamma_t2=4, matching the oracle): PASS")


PATH_CYCLE_TABLE = {0: 3, 1: 1, 2: 2, 3: 1, 4: 2}


def test_criterion_08_stability_tables():
    mismatches = {}
    for maker, label in ((path, "P"), (cycle, "C")):
        for n in range(6, 14):
            g = maker(n)
            table = PATH_CYCLE_TABLE[n % 5]
            hit = stability_witness(g, WitnessRule.EXACTLY_TWO)
            assert hit is not None, (label, n)
            k, witness = hit
            # self-consistency: every smaller removal leaves the value alone
            base = domination_number(g, semitotal(WitnessRule.EXACTLY_TWO))
            for size in range(1, k):
                for combo in combinations(range(g.n), size):
                    residue, _ = g.delete_vertices(mask_from(combo))
                    if residue.n == 0 or not residue.is_isolate_free():
                        continue
                    value = domination_number(residue, semitotal(WitnessRule.EXACTLY_TWO))
                    assert value is None or value == base, (label, n, combo)
            # the witness really changes the value
            residue, _ = g.delete_vertices(witness)
            assert residue.is_isolate_free()
            value = domination_number(residue, semitotal(WitnessRule.EXACTLY_TWO))
            assert value != base
            if k != table:
                mismatches[f"{label}{n}"] = (table, k, sorted(bits_list(witness)))
    # cycles follow the table throughout; paths deviate exactly where internal
    # removals split the path into pieces whose values add up differently.
    expected_mismatches = {
        "P7": (2, 1, [3]),
        "P10": (3, 1, [3]),
        "P12": (2, 1, [3]),
    }
    assert mismatches == expected_mismatches
    for name, (table, oracle, witness) in sorted(mismatches.items()):
        print(f"  stability mismatch {name}: table {table}, oracle {oracle}, witness {witness}")
    print("ACCEPTANCE 8 (stability tables 6..13: cycles all match; path mismatches "
          "{P7,P10,P12} reported with verified witnesses; search self-consistent): PASS")


def test_criterion_09_petersen():
    assert brute_force_number(petersen(), PLAIN) == 3
    assert brute_force_number(petersen(), SEMITOTAL_EXACT) == 3
    print("ACCEPTANCE 9 (Petersen: gamma = gamma_t2 = 3 under exact2): PASS")


def test_criterion_10_half_order_characterization():
    count = 0
    for base in (complete(2), path(3)):
        for bits in range(1 << base.n):
            choices = [Attach.P4 if bits >> v & 1 else Attach.P2 for v in range(base.n)]
            t = pendant_path_tree(base, choices)
            assert domination_number(t, SEMITOTAL_WITHIN, BARE) * 2 == t.n, (base.name, bits)
            count += 1
    for n in (6, 8):
        assert domination_number(cycle(n), SEMITOTAL_WITHIN, BARE) * 2 == n
    pairs = list(combinations(range(4), 2))
    spanning = 0
    for bits in range(64):
        g = Graph.from_edges(4, [pairs[i] for i in range(6) if bits >> i & 1])
        if not g.is_connected():
            continue
        assert domination_number(g, SEMITOTAL_WITHIN, BARE) == 2, bin(bits)
        spanning += 1
    print(f"ACCEPTANCE 10 (half order: {count} pendant-path trees, C6, C8, "
          f"{spanning} connected spanning subgraphs of K4): PASS")


def test_criterion_11_round_trips_and_determinism():
    graphs = [g for g in family_corpus(8)]
    for g in graphs:
        for fmt in GraphFormat:
            assert parse_graph(emit_graph(g, fmt), fmt).adj == g.adj
    first = run_claims("T1.*", budget=10).to_json()
    second = run_claims("T1.*", budget=10).to_json()
    assert first == second
    print(f"ACCEPTANCE 11 (round trips on {len(graphs)} family graphs in both "
          f"formats; byte-identical verify runs): PASS")
