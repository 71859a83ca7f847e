"""Command-line front end: run experiments, sweeps, and the invariant suite.

Per-step results go to ``trials.csv`` (fixed column order, one row per
step per trial), aggregate results to ``summary.json``, and the fully
resolved configuration plus provenance to ``manifest.json``. Identical
seeds and configurations produce byte-identical CSV and summary files;
timestamps live only in the manifest.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    ExperimentError,
    aggregate,
    example1_config,
    example2_config,
    run_trials,
    scaled_config,
    sweep_row,
)
from .filter import FilterError
from .validation import run_all

CSV_SCHEMA_VERSION = 1


def _config_to_jsonable(cfg: ExperimentConfig) -> dict:
    out = {}
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        if isinstance(value, np.ndarray):
            out[field.name] = value.tolist()
        elif isinstance(value, tuple):
            out[field.name] = [
                v.tolist() if isinstance(v, np.ndarray) else list(v) for v in value
            ]
        else:
            out[field.name] = value
    return out


class _UsageError(Exception):
    """A flag or environment value that ``main`` reports as a usage error (exit 2)."""


def _apply_config_file(cfg: ExperimentConfig, path: str) -> ExperimentConfig:
    """``cfg`` with the fields of a JSON object replaced; ``ExperimentConfig`` checks them."""
    with open(path) as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(overrides) - {f.name for f in dataclasses.fields(cfg)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return dataclasses.replace(cfg, **overrides)


def _resolve_config(args) -> ExperimentConfig:
    """Defaults, then the config file (a bad value exits 1), then each flag (exits 2)."""
    cfg = example1_config() if args.command == "example1" else example2_config()
    if args.command == "sweep":
        cfg = example2_config(trials=1)
    if args.config:
        cfg = _apply_config_file(cfg, args.config)
    for name in ("trials", "steps", "eta", "seed"):
        value = getattr(args, name)
        if value is not None:
            try:
                cfg = dataclasses.replace(cfg, **{name: value})
            except ValueError as err:
                raise _UsageError(f"argument --{name}: {err}") from None
    return cfg


def _csv_header(cfg: ExperimentConfig, meas_dim: int) -> list[str]:
    n = cfg.x0.size
    cols = ["trial", "k"]
    cols += [f"x_true_{i}" for i in range(n)]
    cols += [f"y_{i}" for i in range(meas_dim)]
    cols += [f"skf_center_{i}" for i in range(n)]
    cols += [f"ekf_state_{i}" for i in range(n)]
    cols += ["beta_star", "skf_dist", "ekf_dist"]
    return cols


def _write_trials_csv(path: str, cfg: ExperimentConfig, trials) -> None:
    """One row per step of each trial, trials numbered in list order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(cfg, trials[0].measurement.shape[1]))
        for trial_id, t in enumerate(trials):
            columns = (t.true_state, t.measurement, t.skf_center, t.ekf_state)
            table = np.column_stack(columns + (t.beta_star, t.skf_dist, t.ekf_dist)).tolist()
            writer.writerows([trial_id, k, *row] for k, row in enumerate(table, start=1))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _workers() -> int:
    """Worker count from ``SKF_THREADS`` (default 1); malformed values are usage errors."""
    env = os.environ.get("SKF_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        raise _UsageError(f"SKF_THREADS must be an integer, got {env!r}") from None


def _scale_list(text: str) -> list[float]:
    try:
        return [float(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated numbers, got {text!r}"
        ) from None


def _cmd_run(args) -> int:
    cfg = _resolve_config(args)
    workers = _workers()
    configs = [cfg]
    if args.command == "sweep":
        try:
            configs = [scaled_config(cfg, scale) for scale in args.scales]
        except ValueError as err:
            raise _UsageError(f"argument --scales: {err}") from None
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()

    batches = [run_trials(c, workers=workers) for c in configs]
    if args.command == "sweep":
        scales = args.scales
        summary = {
            "command": "sweep",
            "scales": scales,
            "sweep_table": [sweep_row(s, batch[0]) for s, batch in zip(scales, batches)],
            "per_scale": {
                repr(scale): aggregate(batch, scaled)
                for scale, batch, scaled in zip(scales, batches, configs)
            },
        }
    else:
        summary = aggregate(batches[0], cfg)
        summary["command"] = args.command

    trials_path = os.path.join(out_dir, "trials.csv")
    summary_path = os.path.join(out_dir, "summary.json")
    manifest_path = os.path.join(out_dir, "manifest.json")
    _write_trials_csv(trials_path, cfg, [t for batch in batches for t in batch])
    _write_json(summary_path, summary)
    _write_json(
        manifest_path,
        {
            "version": __version__,
            "command": args.command,
            "csv_schema": CSV_SCHEMA_VERSION,
            "config": _config_to_jsonable(cfg),
            "seed": cfg.seed,
            "started": started,
            "finished": datetime.now(timezone.utc).isoformat(),
            "outputs": {
                "trials": trials_path,
                "summary": summary_path,
                "manifest": manifest_path,
            },
        },
    )
    return 0


def _cmd_validate(args) -> int:
    results = run_all()
    failed = False
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
        failed = failed or not result.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skf",
        description="Set-membership Kalman filter experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("example1", "scalar nonlinear benchmark"),
        ("example2", "planar two-station range-bearing tracking"),
        ("sweep", "bounded-uncertainty sensitivity sweep (example2)"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--trials", type=int, help="number of Monte Carlo trials")
        p.add_argument("--steps", type=int, help="steps per trial")
        p.add_argument("--eta", type=float, help="uncertainty weighting in [0, 1]")
        p.add_argument("--seed", type=int, help=f"base seed (default {DEFAULT_SEED})")
        p.add_argument("--out", default="skf_out", help="output directory")
        p.add_argument("--config", default=None, help="JSON file overriding config fields")
        if name == "sweep":
            p.add_argument(
                "--scales",
                type=_scale_list,
                default="1,10,100",
                help="comma-separated semi-axis scales",
            )
        p.set_defaults(handler=_cmd_run, parser=p)

    v = sub.add_parser("validate", help="run the built-in invariant suite")
    v.set_defaults(handler=_cmd_validate, parser=v)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as err:
        args.parser.error(str(err))
    except (FilterError, ExperimentError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
