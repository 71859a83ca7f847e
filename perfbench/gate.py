"""Correctness gate applied to every benchmark run.

Each check returns a list of problems; an empty list passes. Tolerances:

* ``REL_TOL`` for the committed default-seed reference. It is ten times the
  1e-6 agreement that a reworked beta search must keep on example1, so such
  a change passes while a real change of the filter's answer does not.
* ``ETA_ZERO_GAP_TOL`` for the SKF-to-EKF gap at eta = 0, where the two
  recursions coincide exactly in exact arithmetic; positions reach a few
  hundred metres, so 1e-9 is rounding level.
* ``ONLINE_REL_TOL`` for the online loop against ``trials.csv``: the same
  calls on the same inputs, so only a batched or reordered core may move
  them, and then by rounding only.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
KEY_NUMBERS = ("skf_l2_mean", "ekf_l2_mean", "win_rate", "beta_star.mean", "semi_axis.run_max")
REL_TOL = 1e-5
ABS_TOL = 1e-12
ETA_ZERO_GAP_TOL = 1e-9
ONLINE_REL_TOL = 1e-9


def key_numbers(summary: dict) -> dict:
    out = {}
    for key in KEY_NUMBERS:
        value = summary
        for part in key.split("."):
            value = value[part]
        out[key] = float(value)
    return out


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check_reference(summary: dict, argv: list[str], entry: dict) -> list[str]:
    """Key summary numbers of the default-seed run against the committed entry."""
    if entry["argv"] != argv:
        return [f"reference was made with {entry['argv']}, the run used {argv}"]
    problems = []
    got = key_numbers(summary)
    for key, want in entry["numbers"].items():
        if not math.isclose(got[key], want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            problems.append(f"{key} = {got[key]!r}, reference {want!r} (rel tol {REL_TOL})")
    return problems


def check_eta_zero(summary: dict) -> list[str]:
    gap = summary.get("eta_zero_max_gap")
    if gap is None:
        return ["summary.json has no eta_zero_max_gap for an eta = 0 run"]
    if not gap <= ETA_ZERO_GAP_TOL:
        return [f"eta_zero_max_gap {gap!r} exceeds {ETA_ZERO_GAP_TOL}"]
    return []


def read_trials(csv_bytes: bytes) -> list[dict]:
    """Per trial: measurement rows and SKF center rows, in step order."""
    reader = csv.reader(io.StringIO(csv_bytes.decode()))
    header = next(reader)
    y_cols = [i for i, c in enumerate(header) if c.startswith("y_")]
    c_cols = [i for i, c in enumerate(header) if c.startswith("skf_center_")]
    trials: list[dict] = []
    for row in reader:
        trial, k = int(row[0]), int(row[1])
        if trial == len(trials):
            trials.append({"y": [], "center": []})
        if k != len(trials[trial]["y"]) + 1:
            raise ValueError(f"trials.csv rows out of order at trial {trial}, step {k}")
        trials[trial]["y"].append([float(row[i]) for i in y_cols])
        trials[trial]["center"].append([float(row[i]) for i in c_cols])
    return trials


def check_online(online: list, recorded: list) -> list[str]:
    """Online-loop center arrays against the ``skf_center`` rows, step by step."""
    if len(online) != len(recorded):
        return [f"online loop ran {len(online)} steps, trials.csv has {len(recorded)}"]
    for step, (got, want) in enumerate(zip(online, recorded), start=1):
        for g, w in zip(got.tolist(), want):
            err = abs(g - w) / max(1.0, abs(w))
            if not err <= ONLINE_REL_TOL:
                return [f"online center {g!r} differs from trials.csv {w!r} at step {step}"]
    return []
