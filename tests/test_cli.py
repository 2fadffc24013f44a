import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitotal.cli import _FAMILIES, cli
from semitotal import (
    CapacityError,
    GraphFormat,
    cycle,
    emit_graph,
    run_claims,
    wheel,
)


def run(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_num_path11_exact_rule(capsys):
    code, out, _ = run(capsys, "num", "--family", "path:11", "--variant", "semitotal", "--rule", "exact2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 5
    assert payload["graph"]["n"] == 11
    assert payload["rule"] == "exact2"


def test_poly_star4(capsys):
    code, out, _ = run(capsys, "poly", "--family", "star:4", "--variant", "semitotal", "--rule", "exact2")
    assert code == 0
    assert json.loads(out)["value"] == "x^4"


def test_count_cycle4_within(capsys):
    code, out, _ = run(capsys, "count", "--family", "cycle:4", "--variant", "semitotal", "--rule", "within2")
    assert code == 0
    assert json.loads(out)["coeffs"] == [0, 0, 6, 4, 1]


def test_num_undefined_exits_2(capsys):
    code, out, _ = run(capsys, "num", "--family", "complete:3", "--variant", "semitotal",
                       "--rule", "exact2", "--kn-convention", "off")
    assert code == 2
    assert json.loads(out)["value"] is None


def test_usage_errors_exit_1(capsys):
    for argv in (["nonsense"], ["num", "--family", "blob:3"], ["num"], [],
                 ["num", "--family", "path:zero"], ["family", "path:0"],
                 ["count", "--family", "path:5", "--budget", "5"],
                 ["stability", "--family", "path:5", "--budget", "5"]):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert "error" in err or "usage" in err


def test_budget_error_exits_2(capsys, monkeypatch):
    # under exact2 no certificate cuts C10's scan, and its hit at k = 3 is the 56th set
    monkeypatch.setattr("semitotal.stability._MAX_SETS", 50)
    code, _, err = run(capsys, "stability", "--family", "cycle:10", "--rule", "exact2")
    assert code == 2
    assert "computation error" in err
    assert "removal sets" in err


def test_stability_takes_no_vertex_budget(capsys):
    # refused with the former default budget of 16 vertices
    code, out, _ = run(capsys, "stability", "--family", "path:20")
    assert code == 0
    assert json.loads(out)["graph"]["n"] == 20


def test_verify_budget_above_word_size_fails_before_any_claim(capsys):
    # at 65 some sweeps would run for minutes before a 65-vertex graph raised
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--budget", "65")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "computation error" in err
    assert "word budget of 64" in err


def test_verify_negative_budget_fails_before_any_claim(capsys, monkeypatch):
    # a negative budget once gave 174 T2.2.i rows and no instances for every other claim
    def no_claims(*args, **kwargs):
        raise AssertionError("a claim ran")

    monkeypatch.setattr("semitotal.claims._solved_once", no_claims)
    with pytest.raises(ValueError, match="budget must be at least 0, got -5"):
        run_claims("*", -5)
    code, out, err = run(capsys, "verify", "--budget", "-5")
    assert code != 0
    assert out == ""
    assert "budget must be at least 0, got -5" in err


def test_count_table_too_large_fails_fast(capsys):
    # the counting table of K30,34 passes its state cap long before it ends
    code, out, err = run(capsys, "count", "--family", "complete_bipartite:30,34")
    assert code == 2
    assert out == ""
    assert "computation error" in err
    assert "states" in err


def test_family_emission_matches_library(capsys):
    code, out, _ = run(capsys, "family", "wheel:5", "--format", "edgelist")
    assert code == 0
    assert out == emit_graph(wheel(5), GraphFormat.EDGE_LIST)
    code, out, _ = run(capsys, "family", "petersen", "--format", "graph6")
    assert code == 0
    assert out.endswith("\n")


def test_product_diamond(capsys):
    code, out, _ = run(capsys, "product", "diamond", "--left", "path:5", "--right", "cycle:4")
    assert code == 0
    assert out.splitlines()[0] == "20"


def test_product_reads_files(tmp_path, capsys):
    f = tmp_path / "c4.g6"
    f.write_text(emit_graph(cycle(4), GraphFormat.GRAPH6) + "\n", encoding="ascii")
    code, out, _ = run(capsys, "product", "join", "--left", "complete:1", "--right", f"@{f}",
                       "--in-format", "graph6")
    assert code == 0
    assert out.splitlines()[0] == "5"


def test_stability_cli(capsys):
    code, out, _ = run(capsys, "stability", "--family", "path:6", "--rule", "exact2", "--policy", "skip")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1
    assert payload["witness"] == [0]


def test_stability_cli_twin_classes_past_the_full_scan_reach(capsys):
    code, out, _ = run(capsys, "stability", "--family", "complete_bipartite:10,10")
    assert code == 0
    assert '"value": 18' in out


def test_stability_no_change_exits_2(capsys):
    code, out, _ = run(capsys, "stability", "--family", "cycle:3", "--rule", "exact2")
    assert code == 2
    assert json.loads(out)["value"] is None


def test_verify_json_and_exit_zero_despite_findings(capsys):
    code, out, _ = run(capsys, "verify", "--claims", "C-COUNT-Fn", "--budget", "7", "--out", "json")
    assert code == 0
    payload = json.loads(out)
    verdicts = {row["verdict"] for row in payload["report"]}
    assert "FAIL" in verdicts


def test_verify_table_output(capsys):
    code, out, _ = run(capsys, "verify", "--claims", "T1.*", "--budget", "8", "--out", "table")
    assert code == 0
    assert "T1.i" in out and "pass" in out


def test_verify_csv_output(capsys):
    code, out, _ = run(capsys, "verify", "--claims", "T2.2.ii", "--budget", "10", "--out", "csv")
    assert code == 0
    assert out.splitlines()[0] == "claim,instance,rule,predicted,oracle,verdict,note"


def test_verify_pattern_matching_no_claim_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--claims", "nope")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "'nope'" in err.splitlines()[0]


def test_cli_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "--claims", "T1.*", "--budget", "9", "--out", "json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_graph_input_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("4\n0 1\n1 2\n2 3\n3 0\n"))
    code, out, _ = run(capsys, "num", "--input", "-", "--variant", "plain")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_malformed_input_file_is_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("3\n0 0\n", encoding="ascii")
    code, _, err = run(capsys, "num", "--input", str(f))
    assert code == 1
    assert "self-loop" in err


def test_missing_input_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "num", "--input", str(tmp_path / "missing.txt"))
    assert code == 1
    assert err.startswith("error:")


def test_non_ascii_input_file_is_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_bytes(b"4\n0 1\xff\n")
    code, _, err = run(capsys, "num", "--input", str(f))
    assert code == 1
    assert err.startswith("error:")


def test_missing_product_operand_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "product", "join", "--left", f"@{tmp_path / 'missing.txt'}",
                       "--right", "path:3")
    assert code == 1
    assert err.startswith("error:")


def test_graph6_long_form_of_a_small_size_is_usage_error(tmp_path, capsys):
    f = tmp_path / "k10.g6"
    f.write_text("~??I~~~~~~~w\n", encoding="ascii")
    code, out, err = run(capsys, "num", "--input", str(f), "--format", "graph6")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "malformed" in err


def test_graph_beyond_capacity_exits_2_from_either_file_path(tmp_path, capsys):
    f = tmp_path / "big.txt"
    f.write_text("65\n0 1\n", encoding="ascii")
    for argv in (["num", "--input", str(f)], ["product", "join", "--left", f"@{f}", "--right", "path:3"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "computation error" in err


@pytest.mark.parametrize("name", sorted(name for name, (_, arity) in _FAMILIES.items() if arity))
def test_huge_family_fails_before_building_edges(name, capsys):
    builder, arity = _FAMILIES[name]
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            builder(*[10**9] * arity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    spec = f"{name}:" + ",".join(["100000"] * arity)
    code, _, err = run(capsys, "num", "--family", spec)
    assert code == 2
    assert "computation error" in err


def test_oversized_product_exits_two(capsys):
    code, out, err = run(capsys, "product", "cartesian", "--left", "complete:64", "--right", "complete:64")
    assert code == 2
    assert out == ""
    assert "computation error" in err


@pytest.mark.parametrize("command", ["num", "count", "stability"])
def test_family_and_input_flags_are_exclusive(command, tmp_path, capsys):
    code, out, err = run(capsys, command, "--family", "petersen", "--input", str(tmp_path / "missing.txt"))
    assert code == 1
    assert out == ""
    assert "not allowed with" in err


def test_help_exits_zero():
    import pytest

    with pytest.raises(SystemExit) as exc:
        cli(["--help"])
    assert exc.value.code == 0


# Fuzzing inputs stay tiny: integers are at most 7, so no family exceeds 16
# vertices.  Junk text has no digit, so it never parses as an integer, and
# is never '-' (which would read stdin).
_SMALL_INT = st.integers(-2, 7).map(str)
_JUNK = st.text(st.characters(blacklist_categories=("Nd",)), max_size=4).filter(lambda t: t.lstrip("@") != "-")


def _mostly(valid, junk=_JUNK):
    """Three times in four a draw from ``valid``, otherwise junk."""
    return st.tuples(st.integers(0, 3), valid, junk).map(lambda t: t[2] if t[0] == 0 else t[1])


@st.composite
def _spec(draw):
    """A family spec, usually with the family's number of parameters."""
    name = draw(_mostly(st.sampled_from(sorted(_FAMILIES))))
    arity = _FAMILIES[name][1] if name in _FAMILIES else 1
    count = draw(_mostly(st.just(arity), st.integers(0, 3)))
    params = [draw(_mostly(st.integers(1, 7).map(str), _SMALL_INT)) for _ in range(count)]
    return name + ":" + ",".join(params) if params else name


_CHOICES = {
    "--format": ["edgelist", "graph6"],
    "--in-format": ["edgelist", "graph6"],
    "--out-format": ["edgelist", "graph6"],
    "--variant": ["plain", "total", "semitotal"],
    "--rule": ["within2", "exact2"],
    "--kn-convention": ["on", "off"],
    "--policy": ["skip", "changed"],
}
_VARIANT_FLAGS = ["--format", "--variant", "--rule", "--kn-convention"]
_FLAGS = {
    "num": _VARIANT_FLAGS,
    "count": _VARIANT_FLAGS,
    "poly": _VARIANT_FLAGS,
    "stability": ["--format", "--rule", "--policy", "--kn-convention"],
    "family": ["--format"],
    "product": ["--in-format", "--out-format"],
}
_BAD_FLAGS = ["--input", "--family", "--left", "--bogus", "-x", "--", *_CHOICES]


@st.composite
def _argv(draw):
    """A command line that is well formed more often than not."""
    command = draw(_mostly(st.sampled_from(sorted(_FLAGS))))
    if command == "family":
        argv = [command, draw(_spec())]
    elif command == "product":
        kind = draw(_mostly(st.sampled_from(["corona", "cartesian", "join", "diamond"])))
        argv = [command, kind, "--left", draw(_spec()), "--right", draw(_spec())]
    else:
        argv = [command, "--family", draw(_spec())]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(_mostly(st.sampled_from(_FLAGS.get(command, _BAD_FLAGS)), st.sampled_from(_BAD_FLAGS) | _JUNK))
        if flag in _CHOICES:
            argv += [flag, draw(_mostly(st.sampled_from(_CHOICES[flag])))]
        elif flag in ("--family", "--left"):
            argv += [flag, draw(_spec())]
        else:
            argv.append(flag)
    return argv


def _exit_code(argv):
    try:
        return cli(argv)
    except SystemExit as exc:  # only a --help abbreviation leaves through argparse
        assert exc.code == 0, argv
        return 0


@given(_argv())
@settings(max_examples=300, deadline=None)
def test_cli_fuzzed_arguments_exit_cleanly(argv):
    assert _exit_code(argv) in (0, 1, 2)


@given(
    st.one_of(st.text(max_size=40), st.text(alphabet="0123456789 -#\n", max_size=40))
    .map(str.encode) | st.binary(max_size=40),
    st.sampled_from(["edgelist", "graph6"]),
    st.sampled_from([
        ["num", "--input", "{}", "--format"],
        ["num", "--variant", "plain", "--input", "{}", "--format"],
        ["count", "--input", "{}", "--format"],
        ["stability", "--input", "{}", "--format"],
        ["product", "join", "--left", "@{}", "--right", "path:2", "--in-format"],
    ]),
)
@settings(max_examples=300, deadline=None)
def test_cli_fuzzed_graph_files_exit_cleanly(tmp_path_factory, content, fmt, template):
    path = tmp_path_factory.getbasetemp() / "fuzzed-graph.txt"
    path.write_bytes(content)
    argv = [arg.format(path) for arg in template] + [fmt]
    assert _exit_code(argv) in (0, 1, 2)


def test_closed_pipe_exits_141_without_a_traceback():
    # The report (about 450 KB) is larger than a pipe's buffer, so the writer
    # is still writing when the reader closes its end.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "semitotal.cli", "verify", "--budget", "12"],
                            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 141, err
    finally:
        proc.kill()
        proc.wait()
    assert "Traceback" not in err
