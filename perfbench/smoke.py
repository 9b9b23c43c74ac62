#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at tiny size, untraced and traced, and checks that each
run's last line names exactly the metrics BENCHMARK.json lists for that mode,
with their units, and reports every run correct. Then checks that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's files. Exits 0 when every check
passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from numbers import Real
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300

sys.path.insert(0, str(HERE))
from run import WORKLOAD_NAMES  # noqa: E402


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(
            f"missing {sorted(set(expected) - set(metrics))}, extra {sorted(set(metrics) - set(expected))}"
        )
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, Real) or isinstance(value, bool):
            problems.append(f"{name}: value {value!r} is not a number")
        if name in expected and metric.get("unit") != expected[name]:
            problems.append(f"{name}: unit {metric.get('unit')!r}, BENCHMARK.json says {expected[name]!r}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0",
                       "--trace", str(trace), "--tiny")
            problems = check_result(proc, expected[trace])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}")
            for problem in problems:
                print(f"     {problem}")

    # without the program the benchmark must fail, and print no result
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", bench["workloads"][0]["name"], "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    refused = proc.returncode != 0 and '"correct"' not in proc.stdout
    failures += not refused
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the program (exit {proc.returncode})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
