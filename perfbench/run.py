#!/usr/bin/env python3
"""Benchmark of creatorsim runs, driven through the public API only.

    python3 perfbench/run.py --workload long-horizon --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

With `--trace 0` a run prints the end-to-end metrics; with `--trace 1` it
prints the per-layer metrics of a traced run (see tracing.py). `--workload all`
runs every workload, each in its own process, and prints a combined table.
The last line of standard output is always one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

Every workload is a closed loop of `run_simulation` calls in this one process,
for `--seconds` in all. The first run warms caches, sets the reference digests
and gives the peak RSS. Then full runs follow until the time is up (at least
three); the first three alternate with one-step runs, whose median is the
set-up time. Step percentiles are taken over the steps of all timed runs. A
traced run alternates traced and untraced full runs instead. Every run is
checked (checks.py); a run that raises or fails a check counts as failed.
Scratch files go to `.perfbench_work/` at the root of the checkout and are
removed at exit, except the span file of the last traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# BLAS pools would add threads and noise; set here, never inherited from the caller
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

WORKLOAD_NAMES = ("long-horizon", "wide-catalog", "serve-heavy", "llm-stub")
SETUP_RUNS = 3  # one-step runs per benchmark run; setup_s is their median
MIN_TIMED_RUNS = 3
MIN_TRACED_PAIRS = 2

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# name -> unit; `_s` metrics are summed durations of the outermost calls
PER_LAYER = {
    "recsys.retrain_s": "s",
    "recsys.retrain_calls": "count",
    "recsys.retrain_clicks": "count",
    "recsys.sgd_rows": "count",
    "recsys.sgd_rows_per_s": "1/s",
    "recsys.pool_s": "s",
    "recsys.pool_items": "count",
    "recsys.rank_s": "s",
    "recsys.rank_calls": "count",
    "recsys.session_s": "s",
    "recsys.exposures": "count",
    "rerank.rerank_s": "s",
    "rerank.calls": "count",
    "creator.beliefs_s": "s",
    "creator.beliefs_items_scanned": "count",
    "creator.reward_pct_s": "s",
    "creator.feedback_s": "s",
    "creator.decide_s": "s",
    "creator.content_s": "s",
    "creator.creations": "count",
    "metrics.cgd_s": "s",
    "metrics.cgd_calls": "count",
    "metrics.cgd_events_scanned": "count",
    "core.log_append_s": "s",
    "core.log_events": "count",
    "core.log_bytes_per_event": "B",
    "core.view_s": "s",
    "core.view_calls": "count",
    "core.csv_write_s": "s",
    "core.csv_read_s": "s",
    "ingest.synth_s": "s",
    "ingest.load_s": "s",
    "ingest.profiles_s": "s",
    "llm.calls": "count",
    "llm.wait_s": "s",
    "llm.complete_s": "s",
    "llm.fallback_ratio": "ratio",
    "users.active_ratio": "ratio",
    "harness.report_s": "s",
    "harness.artifact_bytes": "B",
    "harness.step_s": "s",
    "harness.self_s": "s",
    "core.self_s": "s",
    "creator.self_s": "s",
    "llm.self_s": "s",
    "metrics.self_s": "s",
    "recsys.self_s": "s",
    "rerank.self_s": "s",
    "users.self_s": "s",
    "trace.overhead_s": "s",
    "trace.missing_wrappers": "count",
}


class ProgramMissing(Exception):
    """The checkout holds no importable creatorsim under src/."""


def load_program():
    """Import creatorsim from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import creatorsim
    except ImportError as e:
        raise ProgramMissing(f"cannot import creatorsim from {src}: {e}") from e
    if not Path(creatorsim.__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"creatorsim imported from {creatorsim.__file__}, not {src}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def thread_count() -> int:
    """Threads of this process, native ones included (Linux)."""
    with open("/proc/self/status", encoding="ascii") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("Threads:"))


@dataclass
class Sample:
    """What one finished run measured."""

    wall_s: float
    step_s: list[float]
    events: int
    artifact_bytes: int
    digests: dict
    transport: object = None
    log_bytes_per_event: float | None = None


@dataclass
class Runner:
    """Runs one workload's inputs repeatedly and checks every run."""

    inputs: object
    work_dir: Path
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    max_threads: int = 1
    extra: dict = field(default_factory=dict)  # run facts printed with the hygiene record
    _reference: dict = field(default_factory=dict)  # n_steps -> digests of its first run

    def run(self, cfg=None, tracer=None, log_bytes=False) -> Sample | None:
        from checks import check_run, digests
        from creatorsim import run_simulation

        cfg = cfg or self.inputs.config
        out = self.work_dir / f"run{self.attempted}"
        self.attempted += 1
        transport = self.inputs.make_transport() if self.inputs.make_transport else None
        sample, problems = None, []
        try:
            gc.collect()
            with tracer or nullcontext():
                start = time.perf_counter()
                artifacts = run_simulation(cfg, out_dir=out, transport=transport)
                wall = time.perf_counter() - start
            self.max_threads = max(self.max_threads, thread_count(),
                                   getattr(transport, "max_threads", 0))
            problems = check_run(artifacts, cfg.list_length)
            found = digests(out)
            if found != self._reference.setdefault(cfg.n_steps, found):
                problems.append("artifact digests differ from the first run of this config and seed")
            sample = Sample(
                wall_s=wall,
                step_s=read_step_seconds(out / "timeseries.csv"),
                events=count_lines(out / "events.csv") - 1,
                artifact_bytes=sum(p.stat().st_size for p in out.iterdir()),
                digests=found,
                transport=transport,
                log_bytes_per_event=event_log_bytes(out / "events.csv") if log_bytes else None,
            )
        except Exception as e:  # a run that raises is a failed run; keep measuring
            problems.append(f"run raised {type(e).__name__}: {e}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems += problems
        return sample


def count_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for _ in f)


def read_step_seconds(path: Path) -> list[float]:
    with open(path, encoding="utf-8") as f:
        column = f.readline().strip().split(",").index("step_seconds")
        return [float(line.split(",")[column]) for line in f if line.strip()]


def event_log_bytes(path: Path) -> float:
    """Python heap held per event by an `EventLog` rebuilt from `path`."""
    import tracemalloc

    from creatorsim.core import EventLog

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        log = EventLog.from_csv(path)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return held / max(len(log), 1)


def repeat_until(deadline: float, minimum: int, step) -> None:
    """Call `step()` until `deadline` has passed and it has run `minimum` times."""
    count = 0
    while count < minimum or time.perf_counter() < deadline:
        step()
        count += 1


def end_to_end(runner: Runner, seconds: float) -> dict:
    import numpy as np

    deadline = time.perf_counter() + seconds
    rss_before = peak_rss_mb()
    first = runner.run()  # warm-up, digest reference and peak RSS of one run
    peak = peak_rss_mb()
    setup_cfg = runner.inputs.config.with_overrides(n_steps=1, warmup=1)
    timed, setups = [], []

    def full_then_setup():
        timed.append(runner.run())
        if len(setups) < SETUP_RUNS:
            setups.append(runner.run(setup_cfg))

    repeat_until(deadline, MIN_TIMED_RUNS, full_then_setup)
    timed = [s for s in timed if s is not None]
    setups = [s for s in setups if s is not None]
    if not timed or not setups:
        return {}
    steps_ms = np.array([x for s in timed for x in s.step_s]) * 1000.0
    metrics = {
        "run_s": statistics.median(s.wall_s for s in timed),
        "setup_s": statistics.median(s.wall_s for s in setups),
        "step_ms_p50": float(np.percentile(steps_ms, 50)),
        "step_ms_p90": float(np.percentile(steps_ms, 90)),
        "events_per_s": statistics.median(s.events / sum(s.step_s) for s in timed),
        "peak_rss_mb": peak,
    }
    runner.extra = {
        "samples": {"timed_runs": len(timed), "setup_runs": len(setups), "steps": len(steps_ms)},
        "run_s_each": [round(s.wall_s, 4) for s in timed],
        "events_per_run": timed[0].events,
        "rss_before_first_run_mb": rss_before,
        "peak_rss_masked": peak <= rss_before,
        "first": first,
    }
    return metrics


def per_layer(runner: Runner, seconds: float, workload: str, seed: int) -> dict:
    from tracing import LAYERS, Tracer

    cfg = runner.inputs.config
    deadline = time.perf_counter() + seconds
    first = runner.run()  # untraced warm-up
    traced, untraced = [], []
    tracers = []

    def pair():
        tracer = Tracer()
        sample = runner.run(tracer=tracer, log_bytes=True)
        if sample is not None:
            traced.append((sample, tracer))
        untraced.append(runner.run())

    repeat_until(deadline, MIN_TRACED_PAIRS, pair)
    untraced = [s for s in untraced if s is not None]
    if not traced or not untraced:
        return {}
    overhead = statistics.median(s.wall_s for s, _ in traced) - statistics.median(
        s.wall_s for s in untraced
    )
    for sample, tracer in traced:
        incl = tracer.inclusive_seconds()
        incl_step = tracer.inclusive_seconds(step_only=True)
        selfs = tracer.self_seconds()
        c = tracer.counts
        t = sample.transport
        retrain_s = incl.get("recsys.retrain", 0.0)
        values = {
            "recsys.retrain_s": retrain_s,
            "recsys.retrain_calls": c["recsys.retrain_calls"],
            "recsys.retrain_clicks": c["recsys.retrain_clicks"],
            "recsys.sgd_rows": c["recsys.sgd_rows"],
            "recsys.sgd_rows_per_s": c["recsys.sgd_rows"] / retrain_s if retrain_s else 0.0,
            "recsys.pool_s": incl.get("recsys.pool", 0.0),
            "recsys.pool_items": c["recsys.pool_items"],
            "recsys.rank_s": incl.get("recsys.rank", 0.0),
            "recsys.rank_calls": c["recsys.rank_calls"],
            "recsys.session_s": incl.get("recsys.session", 0.0),
            "recsys.exposures": c["recsys.exposures"],
            "rerank.rerank_s": incl.get("rerank.rerank", 0.0),
            "rerank.calls": c["rerank.calls"],
            "creator.beliefs_s": incl.get("creator.beliefs", 0.0),
            "creator.beliefs_items_scanned": c["creator.beliefs_items_scanned"],
            "creator.reward_pct_s": incl.get("creator.reward_pct", 0.0),
            "creator.feedback_s": incl.get("creator.feedback", 0.0),
            "creator.decide_s": incl.get("creator.decide", 0.0),
            "creator.content_s": incl.get("creator.content", 0.0),
            "creator.creations": c["creator.creations"],
            "metrics.cgd_s": incl.get("metrics.cgd", 0.0),
            "metrics.cgd_calls": c["metrics.cgd_calls"],
            "metrics.cgd_events_scanned": c["metrics.cgd_events_scanned"],
            "core.log_append_s": incl_step.get("core.log_append", 0.0),
            "core.log_events": c["core.log_events"],
            "core.log_bytes_per_event": sample.log_bytes_per_event,
            "core.view_s": incl.get("core.view", 0.0),
            "core.view_calls": c["core.view_calls"],
            "core.csv_write_s": incl.get("core.csv_write", 0.0),
            "core.csv_read_s": incl.get("core.csv_read", 0.0),
            "ingest.synth_s": incl.get("ingest.synth", 0.0),
            "ingest.load_s": incl.get("ingest.load", 0.0),
            "ingest.profiles_s": incl.get("ingest.profiles", 0.0),
            "llm.calls": t.calls if t else 0,
            "llm.wait_s": t.wait_s if t else 0.0,
            "llm.complete_s": incl.get("llm.complete", 0.0),
            "llm.fallback_ratio": c["llm.parse_failures"] / c["llm.parses"] if c["llm.parses"] else 0.0,
            "users.active_ratio": c["recsys.sessions"] / (cfg.n_users * cfg.n_steps),
            "harness.report_s": incl.get("harness.report", 0.0),
            "harness.artifact_bytes": sample.artifact_bytes,
            "harness.step_s": selfs["step_total"],
            "harness.self_s": selfs["harness"],
            **{f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS if layer != "ingest"},
            "trace.overhead_s": overhead,
            "trace.missing_wrappers": len(tracer.missing),
        }
        tracers.append(values)
    _, last_tracer = traced[-1]
    last_tracer.write_spans(WORK / "spans" / f"{workload}-seed{seed}.csv")
    metrics = {name: statistics.median(v[name] for v in tracers) for name in tracers[0]}
    last_selfs = last_tracer.self_seconds()
    runner.extra = {
        "samples": {"traced_runs": len(traced), "untraced_runs": len(untraced)},
        "missing_wrappers": last_tracer.missing,
        # last traced run: summed step time, and the share of it that the
        # per-layer self times plus harness.self_s account for
        "traced_step_s": last_selfs["step_total"],
        "self_time_accounted": sum(v for k, v in last_selfs.items() if k != "step_total")
        / last_selfs["step_total"],
        "first": first,
    }
    return metrics


def pinned_digests(workload: str, seed: int, tiny: bool) -> dict | None:
    path = HERE / "baseline.json"
    if tiny or not path.exists():
        return None
    pinned = json.loads(path.read_text(encoding="utf-8")).get("digests", {})
    return pinned.get(workload, {}).get(str(seed))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        load_program()
    except ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    import numpy as np
    from workloads import WORKLOADS

    work_dir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    try:
        try:
            inputs = WORKLOADS[workload].prepare(seed, work_dir, tiny=tiny)
        except Exception as e:  # the program failed while building the inputs
            print(f"problem: building the inputs raised {type(e).__name__}: {e}")
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
        runner = Runner(inputs, work_dir)
        if trace:
            metrics = per_layer(runner, seconds, workload, seed)
            units = PER_LAYER
        else:
            metrics = end_to_end(runner, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    cfg = inputs.config
    extra = dict(runner.extra)
    first = extra.pop("first", None)
    hygiene = {
        "processes": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": cfg.workers,
        "program_threads_max": runner.max_threads - 1,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        **extra,
    }
    hygiene["threads_within_nproc"] = hygiene["program_threads_max"] <= hygiene["nproc"]
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    attempted = runner.attempted
    print(f"  {'fail_ratio':32s} {runner.failed / attempted:14.6g} ratio")
    print("hygiene " + json.dumps(hygiene, sort_keys=True))
    if first is not None:
        pinned = pinned_digests(workload, seed, tiny)
        verdict = "not pinned" if pinned is None else ("same" if pinned == first.digests else "CHANGED")
        print("digests " + json.dumps(first.digests, sort_keys=True) + f"  vs seed commit: {verdict}")
    for problem in runner.problems[:20]:
        print(f"problem: {problem}")
    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if metrics else 1


def run_all(args) -> int:
    """Every workload in its own process, so no run's peak RSS masks another's."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
