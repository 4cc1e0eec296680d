#!/usr/bin/env python3
"""Steadiness check for the CQA pipeline benchmark.

Runs every workload --runs times with a different seed each time,
alternating the workload order between repetitions, and prints for each
end-to-end metric the median, the quartiles and their spread
((q3 - q1) / median) next to the metric's bound in BENCHMARK.json. It
also checks that the share of failed operations is the same in every
run of a workload. With --traced it then makes one traced run per
workload and prints its per-layer metrics and the tracing overhead: the
traced run's end-to-end figures minus the untraced medians.

    python3 perfbench/steady.py [--runs 10] [--seed-base 1] [--traced]

Run from the root of a source checkout. Exit status 1 if a run fails,
reports correct = false, or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TABLE_LINE = re.compile(r"^\s+(\S+)\s+(-?[0-9.eE+-]+)\s+(\S+)$")


def run_once(workload: str, seed: int, seconds: int, trace: bool):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # The end-to-end table on stderr (present in traced runs too).
    e2e, section = {}, None
    for line in proc.stderr.splitlines():
        if line.endswith(":") and not line.startswith(" "):
            section = line
            continue
        m = TABLE_LINE.match(line)
        if m and section == "end-to-end metrics:":
            e2e[m.group(1)] = float(m.group(2))
    return result, e2e, proc.stderr


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    values = {w: {m: [] for m in bounds} for w in workloads}
    shares = {w: set() for w in workloads}
    ok = True
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.seed_base + i
            result, _, _ = run_once(w, seed, seconds, False)
            if not result["correct"]:
                print(f"{w} seed {seed}: correct = false")
                ok = False
            shares[w].add((result["failed"] / result["attempted"]))
            for name in bounds:
                values[w][name].append(result["metrics"][name]["value"])
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: attempted "
                  f"{result['attempted']} failed {result['failed']}",
                  flush=True)

    print(f"\n{'workload':<14} {'metric':<13} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    medians = {}
    for w in workloads:
        for name, bound in bounds.items():
            v = values[w][name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            medians[(w, name)] = med
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bound:
                flag, ok = "  OVER BOUND", False
            elif spread > bound / 3:
                flag = "  above bound/3"
            print(f"{w:<14} {name:<13} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f} {bound:>6.2f}{flag}")
        if len(shares[w]) != 1:
            print(f"{w}: failed share differs between runs: {shares[w]}")
            ok = False

    if args.traced:
        for w in workloads:
            result, e2e, stderr = run_once(w, args.seed_base, seconds, True)
            print(f"\n== traced {w}: per-layer metrics")
            for name, m in result["metrics"].items():
                if m["value"] != 0:
                    print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
            print(f"== traced {w}: self-time table")
            for line in stderr.splitlines():
                if line.startswith(("span ", "wall ")) or re.match(
                        r"^[a-z_.]+\s+\d+\s", line):
                    print("  " + line)
            print(f"== traced {w}: tracing overhead (traced - untraced "
                  f"median)")
            for name in bounds:
                if (w, name) in medians and name in e2e:
                    base = medians[(w, name)]
                    print(f"  {name:<13} {e2e[name] - base:>+12.6g} "
                          f"({100 * (e2e[name] - base) / base:+.1f}%)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
