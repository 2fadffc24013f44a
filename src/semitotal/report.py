"""The report of a claims run: its rows, per-claim summaries and writers.

A report is written as JSON, CSV or a table, to a text stream or as a
string.  The JSON and CSV forms hold every row; the table holds the
summaries and the rows where a formula disagrees with the oracle.  This
module stands apart from the claim registry because every import of the
package compiles both when no bytecode is cached, and the compile of one
large module sets the peak memory of a process that only imports them.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import partial, wraps
from json.encoder import encode_basestring_ascii
from typing import Callable, TextIO

from .domination import Conventions


@dataclass(frozen=True, slots=True)
class ClaimRow:
    """One (claim, instance, rule) comparison.

    Slotted: a report holds thousands of rows until it is written, and a
    row without an instance dict takes a third less memory.
    """

    claim: str
    instance: str
    rule: str
    predicted: str
    oracle: str
    verdict: str  # PASS | FAIL | N/A | UNDEFINED
    note: str = ""
    details: tuple[tuple[str, str], ...] = ()

    def detail(self, key: str) -> str | None:
        for k, v in self.details:
            if k == key:
                return v
        return None


# Rows written per call of the stream's ``write``: the text in memory at
# once is bounded by one slice.  Writing the B = 14 report takes the same
# time with 64 to 512 rows a slice; with 128 the process peaks lowest.
_ROWS_PER_SLICE = 128

# A row as ``json.dumps(indent=2, sort_keys=True)`` lays it out inside the
# report's list, its fields in sorted order.  Every field is a string, so the
# C string encoder that ``json`` itself uses gives the same bytes without
# the pure-Python encoder that ``indent`` selects.
_ROW = ('\n    {{\n      "claim": {},\n      "details": {},\n      "instance": {},\n      "note": {},\n'
        '      "oracle": {},\n      "predicted": {},\n      "rule": {},\n      "verdict": {}\n    }}')

# The place of each verdict in a claim's tally by rule; any other verdict takes place 4.
_VERDICTS = {"PASS": 0, "FAIL": 1, "N/A": 2, "UNDEFINED": 3}


def _row_json(r: ClaimRow) -> str:
    enc = encode_basestring_ascii
    details = "{}"
    if r.details:  # keys sorted, a repeated key keeping its last value, as dict() does
        body = ",\n        ".join(f"{enc(k)}: {enc(v)}" for k, v in sorted(dict(r.details).items()))
        details = f"{{\n        {body}\n      }}"
    return _ROW.format(enc(r.claim), details, enc(r.instance), enc(r.note), enc(r.oracle),
                       enc(r.predicted), enc(r.rule), enc(r.verdict))


def _text_or_stream(write: Callable[[VerificationReport, TextIO], None]):
    """Make a report writer write to ``out`` when given one, else return the text."""

    @wraps(write)
    def writer(self: VerificationReport, out: TextIO | None = None) -> str | None:
        if out is not None:
            return write(self, out)
        buf = io.StringIO()
        write(self, buf)
        return buf.getvalue()

    return writer


class VerificationReport:
    """Ordered comparison rows plus per-claim summaries."""

    def __init__(
        self,
        rows: list[ClaimRow],
        claim_order: list[str],
        pattern: str,
        budget: int,
        conv: Conventions,
    ):
        self.rows = list(rows)
        self.claim_order = list(claim_order)
        self.pattern = pattern
        self.budget = budget
        self.conventions = conv

    def summary(self) -> dict[str, dict]:
        # one pass over the rows, tallying verdicts by claim and rule
        tallies: dict[str, dict[str, list[int]]] = {cid: {} for cid in self.claim_order}
        for r in self.rows:
            rules = tallies.get(r.claim)
            if rules is not None:
                rules.setdefault(r.rule, [0] * 5)[_VERDICTS.get(r.verdict, 4)] += 1
        out: dict[str, dict] = {}
        for cid, rules in tallies.items():
            per_rule = {rule: dict(zip(("pass", "fail", "na", "undefined"), rules[rule])) for rule in sorted(rules)}
            clean = [rule for rule, c in per_rule.items() if c["fail"] == 0 and c["pass"] > 0]
            passing_rule = None
            if len(per_rule) > 1 and len(clean) == 1:
                passing_rule = clean[0]
            out[cid] = {
                "instances": sum(map(sum, rules.values())),
                "rules": per_rule,
                "passing_rule": passing_rule,
                "status": "N/A" if not rules else ("PASS" if all(
                    t[1] == t[3] == t[4] == 0 for t in rules.values()) else "HAS-FINDINGS"),
            }
        return out

    @_text_or_stream
    def to_json(self, out: TextIO) -> None:
        """The report as indented JSON with sorted keys, as ``json.dumps`` gives it.

        The header is encoded once, then the rows ``_ROWS_PER_SLICE`` at a
        time by ``_row_json``, so the text in memory at once does not grow
        with the report.
        """
        head, no_rows, tail = json.dumps({
            "pattern": self.pattern,
            "budget": self.budget,
            "conventions": {"complete_singleton": self.conventions.complete_singleton},
            "report": [],
            "summary": self.summary(),
        }, indent=2, sort_keys=True).partition('"report": []')
        out.write(head)
        if not self.rows:
            out.write(no_rows)
        else:
            out.write('"report": [')
            for start in range(0, len(self.rows), _ROWS_PER_SLICE):
                if start:
                    out.write(",")
                out.write(",".join(map(_row_json, self.rows[start:start + _ROWS_PER_SLICE])))
            out.write("\n  ]")
        out.write(tail)

    @_text_or_stream
    def to_csv(self, out: TextIO) -> None:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["claim", "instance", "rule", "predicted", "oracle", "verdict", "note"])
        for r in self.rows:
            note = r.note
            if r.details:
                extra = "; ".join(f"{k}={v}" for k, v in r.details)
                note = f"{note}; {extra}" if note else extra
            writer.writerow([r.claim, r.instance, r.rule, r.predicted, r.oracle, r.verdict, note])

    @_text_or_stream
    def to_table(self, out: TextIO) -> None:
        line = partial(print, file=out)
        line(f"claims matching {self.pattern!r}, budget {self.budget}")
        summary = self.summary()
        header = f"{'claim':<20} {'rule':<8} {'pass':>5} {'fail':>5} {'n/a':>5} {'undef':>5}"
        line(header)
        line("-" * len(header))
        for cid in self.claim_order:
            info = summary[cid]
            if not info["rules"]:
                line(f"{cid:<20} {'-':<8} {'-':>5} {'-':>5} {'-':>5} {'-':>5}  (no instances within budget)")
                continue
            for rule, c in info["rules"].items():
                line(f"{cid:<20} {rule:<8} {c['pass']:>5} {c['fail']:>5} {c['na']:>5} {c['undefined']:>5}")
            if info["passing_rule"]:
                line(f"{'':<20} passes only under rule {info['passing_rule']}")
        findings = [r for r in self.rows if r.verdict == "FAIL"]
        if findings:
            line()
            line(f"findings ({len(findings)} rows where the formula disagrees with the oracle):")
            for r in findings:
                line(f"  {r.claim} | {r.instance} | {r.rule}: predicted {r.predicted}, oracle {r.oracle}")
