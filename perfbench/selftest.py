#!/usr/bin/env python3
"""Quick self-test of the benchmark harness (about half a minute).

    python3 perfbench/selftest.py

For every workload it runs its small jobs (``--scale smoke``) untraced and
traced, and checks that the last line of output is a passing result whose
metrics are exactly the ones ``BENCHMARK.json`` declares, each with its
unit.  It then checks that the benchmark fails, without printing a
result, in a directory that holds only ``BENCHMARK.json`` and the
benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result(done, declared: list[dict]) -> list[str]:
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-300:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("result is not correct")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted {result.get('attempted')}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append(f"metrics differ: missing {sorted(set(want) - set(metrics))},"
                        f" extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, declared {unit!r}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name}: value {got.get('value')!r}")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    if done.returncode == 0 or last[0].startswith("{"):
        return [f"bare directory: exit {done.returncode}, last line {last[0]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            found = check_result(run(ROOT, workload, trace), declared)
            problems += [f"{workload} trace {trace}: {p}" for p in found]
            print(f"{workload} trace {trace}: {'ok' if not found else 'FAILED'}")
    found = check_bare_directory(spec)
    problems += found
    print(f"bare directory: {'ok' if not found else 'FAILED'}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
