"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/child.py --src SRC --workload NAME --seed N --trace 0|1 [--spans FILE]
    python3 perfbench/child.py --src SRC --workload NAME --seed N --setup-only

Imports semitotal from SRC and builds the workload's inputs (set-up), runs
the timed phase, then checks the outputs outside it.  With ``--trace 1`` the
layers are wrapped before set-up and the per-layer metrics are added; with
``--setup-only`` it stops after set-up.  Prints one JSON object on the last
line of stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _dist2_seconds(inputs: dict) -> float:
    """First distance-2 ball on a fresh copy of each instance, summed."""
    from semitotal import Graph

    graphs = {id(g): g for _, g, _ in inputs.get("ops", ())}.values()
    total = 0.0
    for g in graphs:
        fresh = Graph(g.n, g.adj, g.name)
        t = time.perf_counter()
        fresh.ball_within_two(0)
        total += time.perf_counter() - t
    return total


def main() -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import semitotal
    import semitotal.claims as claims

    if not Path(semitotal.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported semitotal from {semitotal.__file__}, not from {src}")
    # Warm harness caches would make this repetition look faster than a user's run.
    for cache in (claims._all_trees, claims._pendant_family_members, claims._half_rows):
        if cache.cache_info().currsize:
            raise SystemExit(f"{cache.__name__} is not empty at start")

    import workloads

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
    setup, run, check = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cpu0 = _cpu_seconds()
    w0 = time.perf_counter()
    outputs = run(inputs, tracer)
    wall_s = time.perf_counter() - w0
    cpu_s = _cpu_seconds() - cpu0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mib": peak_rss_mib}
    if tracer is not None:
        tracer.restore()
        layers = spans.layer_metrics(tracer, list(claims.REGISTRY))
        layers["graph.dist2.s"] = _dist2_seconds(inputs)
        layers["trace.wrapper_us"] = spans.wrapper_cost_us()
        record["layers"] = layers
        if args.spans:
            tracer.write(args.spans)

    attempted, failures = check(inputs, outputs)
    record.update(attempted=attempted, failed=len(failures), failures=failures[:20])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
