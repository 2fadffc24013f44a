"""Benchmark of the semitotal package: one workload, fresh child processes, medians.

    python3 perfbench/run.py --workload verify|solve|count --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.  Each
repetition is a fresh ``child.py`` process, and children run one at a time.
Repetitions continue while the next one is expected to end within
``--seconds``, with at least MIN_REPS of them.  Set-up is short and noisy, so
after each repetition EXTRA_SETUPS children that stop after set-up add
samples of it, spread over the run like the repetitions.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each the
median over the repetitions.  ``--trace 1`` runs one untraced repetition and
then traced ones, and reports the per-layer metrics (low medians over the
traced repetitions) with the tracing overhead.  The last line of stdout is one JSON
object; the lines before it give the same numbers for a reader.  Each run
appends a record, with the Python version, core count and load average at
start and end, to perfbench/out/runs.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_REPS = 3
EXTRA_SETUPS = 2
CHILD_TIMEOUT_S = 150
# No repetition starts once the run is expected to pass this, so the whole
# run ends well within three minutes.
RUN_LIMIT_S = 140
END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mib")
IMPORT_TIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*semitotal\.claims\s*$", re.M)


def environment() -> dict:
    return {
        "time": time.time(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def run_child(workload: str, seed: int, trace: bool, setup_only: bool = False) -> dict:
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "child.py"), "--src", str(SRC), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}.tsv.gz")]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(lines[-1])
    if trace:
        found = IMPORT_TIME.search(proc.stderr)
        record["layers"]["claims.import.s"] = int(found.group(1)) / 1e6 if found else 0.0
    return record


def repeat(workload: str, seed: int, trace: bool, min_reps: int, start: float, seconds: float,
           setups: list) -> list:
    reps, steps = [], []
    while True:
        t = time.monotonic()
        reps.append(run_child(workload, seed, trace))
        for _ in range(0 if trace else EXTRA_SETUPS):
            setups.append(run_child(workload, seed, False, setup_only=True)["setup_s"])
        steps.append(time.monotonic() - t)
        finish = time.monotonic() - start + statistics.median(steps)
        if finish > RUN_LIMIT_S or (len(reps) >= min_reps and finish > seconds):
            return reps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "semitotal" / "__init__.py").is_file():
        print(f"error: no semitotal package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    env_start = environment()
    start = time.monotonic()
    setups: list[float] = []
    try:
        if args.trace:
            untraced = run_child(args.workload, args.seed, False)
            reps = repeat(args.workload, args.seed, True, 1, start, args.seconds, setups)
        else:
            untraced = None
            reps = repeat(args.workload, args.seed, False, MIN_REPS, start, args.seconds, setups)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env_end = environment()

    everything = ([untraced] if untraced else []) + reps
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    end_to_end = {name: statistics.median(r[name] for r in reps) for name in END_TO_END}
    setups += [r["setup_s"] for r in reps]
    end_to_end["setup_s"] = statistics.median(setups)
    if args.trace:
        # median_low keeps each value one that was measured, so counts stay whole.
        layers = {name: statistics.median_low(r["layers"][name] for r in reps)
                  for name in reps[0]["layers"]}
        layers["trace.overhead_s"] = end_to_end["wall_s"] - untraced["wall_s"]
        chosen = spec["per_layer"]
    else:
        layers = {}
        chosen = spec["end_to_end"]
    values = {**end_to_end, **layers}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env_start['python']}  nproc {env_start['nproc']}  "
          f"load {env_start['loadavg'][0]:.2f} -> {env_end['loadavg'][0]:.2f}")
    for i, r in enumerate(everything, 1):
        kind = "traced" if args.trace and r is not untraced else "untraced"
        print(f"  rep {i} ({kind}): setup {r['setup_s']:.4f} s  wall {r['wall_s']:.4f} s  "
              f"cpu {r['cpu_s']:.4f} s  rss {r['peak_rss_mib']:.1f} MiB  "
              f"failed {r['failed']}/{r['attempted']}")
        for line in r["failures"]:
            print(f"    {line}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name in END_TO_END:
        samples = setups if name == "setup_s" else [r[name] for r in reps]
        print(f"{name:<14} {end_to_end[name]:.4f} {units[name]}  "
              f"(median of {len(samples)}, range {min(samples):.4f} .. {max(samples):.4f})")
    print(f"{'failed_ratio':<14} {failed / attempted:.4f} ratio  ({failed} of {attempted} operations)")
    if args.trace:
        print(f"tracing overhead: traced wall {end_to_end['wall_s']:.4f} s - untraced wall "
              f"{untraced['wall_s']:.4f} s = {layers['trace.overhead_s']:.4f} s; "
              f"one wrapper call costs {layers['trace.wrapper_us']:.3f} us")
        for m in spec["per_layer"]:
            print(f"  {m['name']:<36} {values[m['name']]:.6g} {m['unit']}")

    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                             "seconds": args.seconds, "start": env_start, "end": env_end,
                             "reps": everything, "metrics": metrics}) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
