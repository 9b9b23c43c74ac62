"""Command-line interface: run / synth / report / compare / validate.

Exit codes: 0 success, 2 configuration error, 3 data or artifact error,
4 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import ConfigError, DataError, SimConfig, SimError, stream
from .harness import compare, report, run_simulation
from .ingest import SynthParams, load_dataset, synth_dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _cmd_run(args) -> int:
    cfg = SimConfig.from_file(args.config)
    if args.seed is not None:
        cfg = cfg.with_overrides(seed=args.seed)
    artifacts = run_simulation(cfg, out_dir=args.out)
    r = artifacts.report
    crr, cgd = ("n/a" if r[k] is None else f"{r[k]:.4f}" for k in ("crr", "cgd"))
    print(
        f"run complete: seed={artifacts.seed} tuw={r['tuw']} crr={crr} "
        f"cgd={cgd} artifacts={artifacts.out_dir}"
    )
    return EXIT_OK


def _cmd_synth(args) -> int:
    params = SynthParams.from_file(args.params)
    if args.seed is not None:
        params.seed = args.seed
        params.validate()
    data = synth_dataset(params, stream(params.seed, "synth"))
    data.to_dir(args.out)
    print(
        f"synthesized dataset: {len(data.users)} users, {len(data.creators)} creators, "
        f"{len(data.items)} items, {len(data.interactions)} interactions -> {args.out}"
    )
    return EXIT_OK


def _cmd_report(args) -> int:
    r = report(args.run_dir, baseline_dir=args.baseline)
    print(json.dumps(r, sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_compare(args) -> int:
    keys = [k.strip() for k in args.metrics.split(",") if k.strip()]
    rows = compare(args.run_dirs, metric_keys=keys)
    width = max(len(r["label"]) for r in rows)
    header = "condition".ljust(width) + "  n  " + "  ".join(f"{k:>16}" for k in keys)
    print(header)
    for row in rows:
        cells = []
        for k in keys:
            s = row["metrics"][k]
            if s["mean"] is None:
                cells.append(f"{'n/a':>16}")
            else:
                cells.append(f"{s['mean']:>9.3f} ±{s['sd']:.3f}")
        print(row["label"].ljust(width) + f"  {row['n_runs']}  " + "  ".join(cells))
    return EXIT_OK


def _cmd_validate(args) -> int:
    data = load_dataset(args.data_dir)
    print(
        f"dataset ok: {len(data.users)} users, {len(data.creators)} creators, "
        f"{len(data.items)} items, {len(data.interactions)} interactions, "
        f"{data.n_genres} genres"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sim", description="Content-platform simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a simulation run")
    p_run.add_argument("--config", required=True, help="flat key=value config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", required=True, help="artifact output directory")
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--params", required=True, help="flat key=value params file")
    p_synth.add_argument("--seed", type=int, default=None, help="override the params seed")
    p_synth.add_argument("--out", required=True, help="dataset output directory")
    p_synth.set_defaults(func=_cmd_synth)

    p_report = sub.add_parser("report", help="recompute metrics from run artifacts")
    p_report.add_argument("run_dir")
    p_report.add_argument("--baseline", default=None,
                          help="run dir to normalize the reward curve against")
    p_report.set_defaults(func=_cmd_report)

    p_compare = sub.add_parser("compare", help="aggregate runs into a mean±sd table")
    p_compare.add_argument("run_dirs", nargs="+")
    p_compare.add_argument("--metrics", default="tuw,crr,cgd")
    p_compare.set_defaults(func=_cmd_compare)

    p_validate = sub.add_parser("validate", help="check a dataset directory")
    p_validate.add_argument("data_dir")
    p_validate.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except SimError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
