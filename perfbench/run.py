#!/usr/bin/env python3
"""Builds and runs the CQA pipeline benchmark.

    python3 perfbench/run.py --workload <tpch-prep|grid-schemes|serve-mixed>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds perfbench/ (which compiles the repo's libraries from src/) into
the directory named by CARGO_TARGET_DIR, or .bench_build; later calls
rebuild only what changed. Scratch files go to .bench_work/. The last
line of standard output is the run's JSON result, whose metrics are
exactly BENCHMARK.json's end-to-end list (--trace 0) or per-layer list
(--trace 1; layers the workload does not run read 0). Build logs and the
benchmark's tables go to standard error.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 175


def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no source tree at {ROOT / 'src'}; run from the "
                 f"root of a full checkout")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "cqa_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "cqa_perfbench"


def complete_metrics(result: dict, traced: bool) -> dict:
    """Orders the metrics as BENCHMARK.json lists them; a per-layer metric
    the workload does not measure reads 0. Raises ValueError when the
    benchmark reports a metric that BENCHMARK.json does not declare, or an
    end-to-end metric is missing."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if traced else "end_to_end"]
    measured = result["metrics"]
    names = {m["name"] for m in declared}
    unknown = sorted(set(measured) - names)
    if unknown:
        raise ValueError(f"undeclared metrics {unknown}")
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None and not traced:
            raise ValueError(f"missing end-to-end metric {m['name']}")
        if got is not None and got["unit"] != m["unit"]:
            raise ValueError(f"unit of {m['name']} is {got['unit']}")
        metrics[m["name"]] = {"value": got["value"] if got else 0,
                              "unit": m["unit"]}
    return {**result, "metrics": metrics}


def main() -> int:
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    work_dir = ROOT / ".bench_work"
    try:
        proc = subprocess.run(
            [str(binary), *sys.argv[1:], "--work-dir", str(work_dir)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    args = sys.argv[1:]
    traced = any(a == "--trace" and v == "1" for a, v in zip(args, args[1:]))
    try:
        result = complete_metrics(json.loads(lines[-1]), traced)
    except (IndexError, ValueError, KeyError) as e:
        print(f"run.py: bad benchmark output: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
