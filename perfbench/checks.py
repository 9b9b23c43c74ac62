"""Correctness checks run on every run the benchmark makes, and output digests.

A run fails when it raises or when any check below finds a problem; failed
runs over runs attempted is `fail_ratio`.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

from creatorsim import report

DIGEST_FILES = ("events.csv", "items.csv", "creator_trace.csv", "metrics.json")


def digests(run_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in DIGEST_FILES
    }


def check_run(artifacts, list_length: int) -> list[str]:
    """Problems found in one finished run; empty when the run is correct."""
    problems = []
    run_dir = Path(artifacts.out_dir)
    written = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
    recomputed = json.loads(json.dumps(report(run_dir), sort_keys=True))
    if recomputed != written:
        problems.append("report(run_dir) differs from the metrics.json the run wrote")
    if artifacts.tuw_incremental != recomputed.get("tuw"):
        problems.append(
            f"tuw_incremental {artifacts.tuw_incremental} != report tuw {recomputed.get('tuw')}"
        )
    problems += check_events(run_dir / "events.csv", list_length)
    return problems


def check_events(path: Path, list_length: int) -> list[str]:
    """Click implies exposure, at most `list_length` exposures per (step, user),
    and steps never decrease."""
    problems = []
    exposures: Counter = Counter()
    last_step = -1
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        next(reader)
        for line, (step, user, _item, exposed, clicked) in enumerate(reader, start=2):
            step = int(step)
            if clicked == "1" and exposed != "1":
                problems.append(f"events.csv line {line}: click without exposure")
            if step < last_step:
                problems.append(f"events.csv line {line}: step {step} after step {last_step}")
            last_step = step
            if exposed == "1":
                exposures[step, user] += 1
    crowded = [key for key, count in exposures.items() if count > list_length]
    if crowded:
        problems.append(
            f"{len(crowded)} (step, user) pairs with more than {list_length} exposures"
        )
    return problems[:10]
