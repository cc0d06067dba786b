"""Smoke check for the benchmark: every workload at a tiny size, both modes.

    python3 bench/smoke.py

For each workload it runs `bench/run.py --tiny` once untraced and once traced
and checks that the run is correct and that its last line names every
end-to-end (untraced) or per-layer (traced) metric of BENCHMARK.json, each
with its unit and a finite value. It then runs the benchmark in a directory
that holds only BENCHMARK.json and `bench/`, where it must fail without
printing a result. Exits 1 on the first problem.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root, workload, trace):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def check(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return f"incorrect run: {proc.stdout[-2000:]}"
    expected = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if list(got) != [m["name"] for m in expected]:
        return f"metric names differ: {sorted(set(got) ^ {m['name'] for m in expected})}"
    for m in expected:
        value = got[m["name"]]
        if value["unit"] != m["unit"] or not isinstance(value["value"], (int, float)) \
                or not math.isfinite(value["value"]):
            return f"bad metric {m['name']}: {value}"
    return None


def check_bare():
    """Only BENCHMARK.json and bench/: the run must fail and print no result."""
    bare = HERE / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "craft-dm", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-500:]!r}"
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problem = check(spec, workload, trace)
            print(f"{'FAIL' if problem else 'ok  '} {workload} trace={trace}" + (f": {problem}" if problem else ""))
            problems += bool(problem)
    problem = check_bare()
    print(f"{'FAIL' if problem else 'ok  '} bare directory" + (f": {problem}" if problem else ""))
    problems += bool(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
