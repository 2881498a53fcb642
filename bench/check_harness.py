#!/usr/bin/env python3
"""Self-check of the benchmark harness (quick mode).

Runs every workload of BENCHMARK.json once at reduced size, untraced and
traced, and confirms that the result line has exactly the contract's keys,
that every named metric is present with its unit, and that no operation
failed.  It also confirms that the harness refuses to run, without printing
a result, in a directory holding only BENCHMARK.json and the benchmark.

    python3 bench/check_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    named = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    for name in sorted(set(named) ^ set(got)):
        problems.append(f"{where}: metric {name} {'missing' if name in named else 'not in BENCHMARK.json'}")
    for name, unit in named.items():
        entry = got.get(name)
        if entry is None:
            continue
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            problems.append(f"{where}: {name} is {entry}, expected unit {unit}")
        elif not isinstance(entry["value"], (int, float)):
            problems.append(f"{where}: {name} value {entry['value']!r} is not a number")
        elif not trace and entry["value"] <= 0:
            problems.append(f"{where}: end-to-end metric {name} is {entry['value']}")
    if not trace and got.get("ok_ratio", {}).get("value") != 1:
        problems.append(f"{where}: ok_ratio {got.get('ok_ratio')}, some operation failed")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """Without the sources the harness must fail and print no result."""
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        done = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_bare_directory(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(spec, workload, trace)
            print(f"{workload:13s} trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(f"  {problem}")
    print("harness self-check", "passed" if not problems else f"failed ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
