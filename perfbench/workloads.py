"""The three benchmark workloads: their inputs, timed phase and output checks.

Each workload is three functions.  ``setup(seed)`` builds the inputs (the
program receives finished ``Graph`` objects), ``run(inputs, tracer)`` is the
timed phase and returns the outputs, and ``check(inputs, outputs)`` compares
them with the committed expected values, outside the timed phase, and returns
``(attempted, failures)``.  The seed derives only vertex permutations; every
expected value is invariant under relabelling, so any seed can be checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import semitotal
import semitotal.cli

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

VERIFY_ARGV = ["verify", "--claims", "*", "--budget", "14", "--out", "json"]

VARIANTS = {
    "plain": semitotal.PLAIN,
    "total": semitotal.TOTAL,
    "within2": semitotal.SEMITOTAL_WITHIN,
    "exact2": semitotal.SEMITOTAL_EXACT,
}

# Family members by label: (builder, arguments).  Builders are looked up on
# the package at call time, so a traced run times them as the families and
# products layers.
MEMBERS = {
    "P16": ("path", (16,)),
    "C16": ("cycle", (16,)),
    "P4xP4": ("grid", (4, 4)),
    "C18": ("cycle", (18,)),
    "P4xP5": ("grid", (4, 5)),
    "C22": ("cycle", (22,)),
    "P30": ("path", (30,)),
    "C30": ("cycle", (30,)),
    "P4xP9": ("grid", (4, 9)),
    "P35": ("path", (35,)),
    "P40": ("path", (40,)),
    "C35": ("cycle", (35,)),
    "C40": ("cycle", (40,)),
    "P6xP6": ("grid", (6, 6)),
    "P7xP7": ("grid", (7, 7)),
}

# solve: deep branch-and-bound in the natural labelling.  Relabelled copies
# use smaller members of the same families, several permutations each: one
# permuted search of P40, C40 or P7xP7 takes 0.7-6 s and its time varies 2x
# from seed to seed, while a permuted P30, C30 or P4xP9 takes tens of ms, so
# SOLVE_PERMUTATIONS of them keep a run's total steady across seeds.
SOLVE_NATURAL = ("P16", "C16", "P4xP4", "P35", "P40", "C35", "C40", "P6xP6", "P7xP7")
SOLVE_RELABELLED = ("P16", "C16", "P4xP4", "P30", "C30", "P4xP9")
SOLVE_PERMUTATIONS = 8
ORACLE_MAX_N = 20

# count: (member, variants), each run natural and relabelled.  C22 is the
# one instance whose 8 * 2^22-byte table dominates peak RSS.
COUNT_PLAN = (
    ("C18", tuple(VARIANTS)),
    ("P4xP5", tuple(VARIANTS)),
    ("C22", ("within2",)),
)


def build(label: str) -> semitotal.Graph:
    kind, args = MEMBERS[label]
    if kind == "grid":
        return semitotal.cartesian(semitotal.path(args[0]), semitotal.path(args[1]))
    return getattr(semitotal, kind)(*args)


def relabel(g: semitotal.Graph, seed: int, key: str) -> semitotal.Graph:
    """Copy of ``g`` under the vertex permutation derived from (seed, key)."""
    perm = list(range(g.n))
    random.Random(f"{seed}:{key}").shuffle(perm)
    return semitotal.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()], g.name)


def load_expected(name: str):
    with open(EXPECTED_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


# -- verify -------------------------------------------------------------------


def setup_verify(seed: int) -> dict:
    # The claim harness fixes its own instance set; the seed does not apply.
    return {}


def run_verify(inputs: dict, tracer) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = semitotal.cli.cli(VERIFY_ARGV)
    return code, buf.getvalue()


def check_verify(inputs: dict, outputs, expected=None) -> tuple[int, list[str]]:
    """One operation per claim: its summary block must match the committed one."""
    expected = load_expected("verify_b14_summary.json") if expected is None else expected
    code, text = outputs
    try:
        summary = json.loads(text)["summary"] if code == 0 else {}
    except (ValueError, KeyError):
        summary = {}
    claims = dict.fromkeys([*expected, *summary])
    failures = [f"claim {cid}: summary differs" for cid in claims if summary.get(cid) != expected.get(cid)]
    return len(claims), failures


# -- solve --------------------------------------------------------------------


def setup_solve(seed: int) -> dict:
    natural = {label: build(label) for label in dict.fromkeys(SOLVE_NATURAL + SOLVE_RELABELLED)}
    ops = [(label, natural[label], v) for label in SOLVE_NATURAL for v in VARIANTS]
    for label in SOLVE_RELABELLED:
        for k in range(SOLVE_PERMUTATIONS):
            g = relabel(natural[label], seed, f"{label}:{k}")
            ops += [(label, g, v) for v in VARIANTS]
    return {"natural": natural, "ops": ops}


def run_solve(inputs: dict, tracer) -> list:
    out = []
    for i, (label, g, v) in enumerate(inputs["ops"]):
        if tracer is not None:
            tracer.op_id = i
        try:
            out.append(semitotal.domination_number(g, VARIANTS[v]))
        except Exception as exc:  # recorded as a failed operation by check_solve
            out.append(exc)
    return out


def check_solve(inputs: dict, outputs, expected=None) -> tuple[int, list[str]]:
    """Every value must equal the committed one, which the brute-force oracle
    re-derives for every instance of at most ORACLE_MAX_N vertices."""
    expected = load_expected("solve.json") if expected is None else expected
    wrong = {(label, v) for label, g in inputs["natural"].items() if g.n <= ORACLE_MAX_N
             for v in VARIANTS if semitotal.brute_force_number(g, VARIANTS[v]) != expected[label][v]}
    failures = []
    for (label, g, v), got in zip(inputs["ops"], outputs):
        if (label, v) in wrong:
            failures.append(f"{label} {v}: committed value disagrees with the oracle")
        elif got != expected[label][v]:
            failures.append(f"{label} {v}: got {got!r}, expected {expected[label][v]}")
    return len(inputs["ops"]), failures


# -- count --------------------------------------------------------------------


def setup_count(seed: int) -> dict:
    natural = {label: build(label) for label, _ in COUNT_PLAN}
    ops = []
    for label, variants in COUNT_PLAN:
        permuted = relabel(natural[label], seed, label)
        ops += [(label, g, v) for v in variants for g in (natural[label], permuted)]
    return {"natural": natural, "ops": ops}


def run_count(inputs: dict, tracer) -> list:
    out = []
    for i, (label, g, v) in enumerate(inputs["ops"]):
        if tracer is not None:
            tracer.op_id = i
        try:
            out.append(list(semitotal.count_by_size(g, VARIANTS[v]).coeffs))
        except Exception as exc:  # recorded as a failed operation by check_count
            out.append(exc)
    return out


def check_count(inputs: dict, outputs, expected=None) -> tuple[int, list[str]]:
    """Natural and relabelled coefficients must agree with each other and with
    the committed ones, and the lowest nonzero index must be the number."""
    expected = load_expected("count.json") if expected is None else expected
    failures = []
    numbers = {}
    for (label, g, v), got in zip(inputs["ops"], outputs):
        if (label, v) not in numbers:
            numbers[label, v] = semitotal.domination_number(inputs["natural"][label], VARIANTS[v])
        if got != expected[label][v]:
            failures.append(f"{label} {v}: coefficients differ from the committed ones")
        elif next((i for i, c in enumerate(got) if c), None) != numbers[label, v]:
            failures.append(f"{label} {v}: lowest nonzero index is not the domination number")
    return len(inputs["ops"]), failures


WORKLOADS = {
    "verify": (setup_verify, run_verify, check_verify),
    "solve": (setup_solve, run_solve, check_solve),
    "count": (setup_count, run_count, check_count),
}
