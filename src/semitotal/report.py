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
from typing import Callable, TextIO

from .domination import Conventions


@dataclass(frozen=True)
class ClaimRow:
    """One (claim, instance, rule) comparison."""

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


# Rows encoded per call of the JSON encoder when a report is written: the
# text in memory at once is bounded by one slice, and the encoder's set-up is
# paid once per slice, not once per row.  Writing the B = 14 report takes the
# same time with 64 to 512 rows a slice; with 128 the process peaks lowest.
_ROWS_PER_SLICE = 128


def _row_payload(r: ClaimRow) -> dict:
    return {
        "claim": r.claim,
        "instance": r.instance,
        "rule": r.rule,
        "predicted": r.predicted,
        "oracle": r.oracle,
        "verdict": r.verdict,
        "note": r.note,
        "details": dict(r.details),
    }


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

    def rows_for(self, claim: str) -> list[ClaimRow]:
        return [r for r in self.rows if r.claim == claim]

    def summary(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for cid in self.claim_order:
            rows = self.rows_for(cid)
            rules = sorted({r.rule for r in rows})
            per_rule = {}
            for rule in rules:
                sub = [r for r in rows if r.rule == rule]
                per_rule[rule] = {
                    "pass": sum(r.verdict == "PASS" for r in sub),
                    "fail": sum(r.verdict == "FAIL" for r in sub),
                    "na": sum(r.verdict == "N/A" for r in sub),
                    "undefined": sum(r.verdict == "UNDEFINED" for r in sub),
                }
            clean = [rule for rule, c in per_rule.items() if c["fail"] == 0 and c["pass"] > 0]
            passing_rule = None
            if len(per_rule) > 1 and len(clean) == 1:
                passing_rule = clean[0]
            out[cid] = {
                "instances": len(rows),
                "rules": per_rule,
                "passing_rule": passing_rule,
                "status": "N/A" if not rows else ("PASS" if all(
                    r.verdict in ("PASS", "N/A") for r in rows) else "HAS-FINDINGS"),
            }
        return out

    @_text_or_stream
    def to_json(self, out: TextIO) -> None:
        """The report as indented JSON with sorted keys, as ``json.dumps`` gives it.

        The header is encoded once, then the rows ``_ROWS_PER_SLICE`` at a
        time, each slice's dicts built only when it is written, so the text
        in memory at once does not grow with the report.
        """
        encoder = json.JSONEncoder(indent=2, sort_keys=True)
        head, no_rows, tail = encoder.encode({
            "pattern": self.pattern,
            "budget": self.budget,
            "conventions": {"complete_singleton": self.conventions.complete_singleton},
            "report": [],
            "summary": self.summary(),
        }).partition('"report": []')
        out.write(head)
        if not self.rows:
            out.write(no_rows)
        else:
            out.write('"report": [')
            for start in range(0, len(self.rows), _ROWS_PER_SLICE):
                if start:
                    out.write(",")
                text = encoder.encode([_row_payload(r) for r in self.rows[start:start + _ROWS_PER_SLICE]])
                # Drop the slice's brackets and indent it one level; a raw
                # newline is always indentation, as strings escape theirs.
                out.write(text[1:-2].replace("\n", "\n  "))
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
