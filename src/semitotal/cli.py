"""Command-line surface: numbers, counts, stability, families, products, verify."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .claims import run_claims
from .domination import (
    Conventions,
    Variant,
    WitnessRule,
    count_by_size,
    domination_number,
)
from .errors import COMPUTATION_ERRORS, CapacityError
from .families import (
    book,
    complete,
    complete_bipartite,
    cycle,
    friendship,
    path,
    petersen,
    star,
    wheel,
)
from .graph import Graph, bits_list
from .graphio import GraphFormat, emit_graph, parse_graph
from .products import cartesian, corona, join, rooted_product
from .stability import RemovalPolicy, stability_witness


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise _UsageError(message)


_FAMILIES = {
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "star": (star, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "wheel": (wheel, 1),
    "friendship": (friendship, 1),
    "book": (book, 1),
    "petersen": (petersen, 0),
}


def _parse_family(spec: str) -> Graph:
    name, _, rest = spec.partition(":")
    if name not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise _UsageError(f"unknown family {name!r} (known: {known})")
    builder, arity = _FAMILIES[name]
    params = [p for p in rest.split(",") if p] if rest else []
    if len(params) != arity:
        raise _UsageError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    try:
        values = [int(p) for p in params]
    except ValueError:
        raise _UsageError(f"family parameters must be integers: {spec!r}") from None
    try:
        return builder(*values)
    except CapacityError:
        raise
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _read_graph(path_arg: str, fmt: GraphFormat) -> Graph:
    """Read and parse a graph file ('-' for stdin).

    An unreadable file or malformed text is a usage error; a graph beyond the
    vertex capacity is a computation error, as for any other source.
    """
    try:
        if path_arg == "-":
            text = sys.stdin.read()
        else:
            with open(path_arg, "r", encoding="ascii") as fh:
                text = fh.read()
        return parse_graph(text, fmt)
    except CapacityError:
        raise
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise _UsageError(f"could not read graph {path_arg!r}: {exc}") from None


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.family:
        return _parse_family(args.family)
    if args.input:
        return _read_graph(args.input, GraphFormat(args.format))
    raise _UsageError("provide a graph via --family or --input")


def _graph_source(spec: str, in_format: GraphFormat) -> Graph:
    if spec.startswith("@"):
        return _read_graph(spec[1:], in_format)
    return _parse_family(spec)


def _add_graph_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--family", help="named family, e.g. path:11 or complete_bipartite:2,3")
    source.add_argument("--input", help="graph file to read ('-' for stdin)")
    p.add_argument("--format", choices=["edgelist", "graph6"], default="edgelist",
                   help="format of --input (default edgelist)")


def _add_rule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rule", choices=["within2", "exact2"], default="within2",
                   help="witness rule for the semitotal variant")
    p.add_argument("--kn-convention", choices=["on", "off"], default="on",
                   help="treat the semitotal number of a complete graph as 1")


def _add_variant_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=["plain", "total", "semitotal"], default="semitotal")
    _add_rule_flags(p)


def _variant_of(args: argparse.Namespace) -> Variant:
    return Variant(args.rule if args.variant == "semitotal" else args.variant)


def _conv_of(args: argparse.Namespace) -> Conventions:
    return Conventions(complete_singleton=args.kn_convention == "on")


def _graph_payload(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _build_parser() -> _Parser:
    parser = _Parser(prog="semitotal", description="Exact semitotal domination toolkit")
    sub = parser.add_subparsers(dest="command")

    p_num = sub.add_parser("num", help="domination number of a graph")
    _add_graph_flags(p_num)
    _add_variant_flags(p_num)

    p_count = sub.add_parser("count", help="by-size counts of valid sets")
    _add_graph_flags(p_count)
    _add_variant_flags(p_count)

    p_poly = sub.add_parser("poly", help="counting polynomial, formatted")
    _add_graph_flags(p_poly)
    _add_variant_flags(p_poly)

    p_stab = sub.add_parser("stability", help="semitotal domination stability")
    _add_graph_flags(p_stab)
    _add_rule_flags(p_stab)
    p_stab.add_argument("--policy", choices=["skip", "changed"], default="skip")

    p_family = sub.add_parser("family", help="emit a named family graph")
    p_family.add_argument("spec", help="e.g. wheel:8 or petersen")
    p_family.add_argument("--format", choices=["edgelist", "graph6"], default="edgelist")

    p_product = sub.add_parser("product", help="compose two graphs")
    p_product.add_argument("kind", choices=["corona", "cartesian", "join", "diamond"])
    p_product.add_argument("--left", required=True, help="family spec or @file")
    p_product.add_argument("--right", required=True, help="family spec or @file")
    p_product.add_argument("--in-format", choices=["edgelist", "graph6"], default="edgelist")
    p_product.add_argument("--out-format", choices=["edgelist", "graph6"], default="edgelist")

    p_verify = sub.add_parser("verify", help="check registered claims against the oracle")
    p_verify.add_argument("--claims", default="*", help="claim-id glob pattern")
    p_verify.add_argument("--budget", type=int, default=12, help="max vertices per instance")
    p_verify.add_argument("--out", choices=["json", "csv", "table"], default="json")
    p_verify.add_argument("--kn-convention", choices=["on", "off"], default="on")

    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise _UsageError("missing subcommand")
        return _dispatch(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 1
    except COMPUTATION_ERRORS as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command in ("num", "count", "poly"):
        g = _load_graph(args)
        variant = _variant_of(args)
        payload = {
            "graph": _graph_payload(g),
            "variant": args.variant,
            "rule": args.rule if args.variant == "semitotal" else None,
        }
        if args.command == "num":
            value = domination_number(g, variant, _conv_of(args))
            _emit({**payload, "value": value})
            return 0 if value is not None else 2
        counts = count_by_size(g, variant, _conv_of(args))
        if args.command == "count":
            payload["coeffs"] = list(counts.coeffs)
        else:
            payload["value"] = counts.format()
        _emit(payload)
        return 0

    if args.command == "stability":
        g = _load_graph(args)
        hit = stability_witness(g, WitnessRule(args.rule), _conv_of(args), RemovalPolicy(args.policy))
        payload = {
            "graph": _graph_payload(g),
            "rule": args.rule,
            "policy": args.policy,
            "value": None if hit is None else hit[0],
            "witness": None if hit is None else bits_list(hit[1]),
        }
        _emit(payload)
        return 0 if hit is not None else 2

    if args.command == "family":
        g = _parse_family(args.spec)
        sys.stdout.write(emit_graph(g, GraphFormat(args.format)))
        if args.format == "graph6":
            sys.stdout.write("\n")
        return 0

    if args.command == "product":
        in_fmt = GraphFormat(args.in_format)
        left = _graph_source(args.left, in_fmt)
        right = _graph_source(args.right, in_fmt)
        ops = {"corona": corona, "cartesian": cartesian, "join": join,
               "diamond": lambda a, b: rooted_product(a, b, 0)}
        g = ops[args.kind](left, right)
        sys.stdout.write(emit_graph(g, GraphFormat(args.out_format)))
        if args.out_format == "graph6":
            sys.stdout.write("\n")
        return 0

    if args.command == "verify":
        if args.budget < 0:  # run_claims raises a bare ValueError, which is no computation error
            raise _UsageError(f"budget must be at least 0, got {args.budget}")
        report = run_claims(args.claims, args.budget, _conv_of(args))
        if not report.claim_order:
            raise _UsageError(f"no claim id matches {args.claims!r}")
        if args.out == "json":
            report.to_json(sys.stdout)
            sys.stdout.write("\n")
        elif args.out == "csv":
            report.to_csv(sys.stdout)
        else:
            report.to_table(sys.stdout)
        return 0

    raise _UsageError(f"unknown subcommand {args.command!r}")


def main() -> None:
    try:
        code = cli()
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader went away, as `| head` does. Point stdout at devnull so
        # that the flush at exit does not raise again, and exit 141 (128 +
        # SIGPIPE), as a shell reports a writer killed by that signal.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    main()
