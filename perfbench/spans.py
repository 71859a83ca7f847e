"""In-memory span tracing of one CLI run, from outside the library.

Each wrapper replaces the module (or class) attribute that the calling
layer looks up at call time, so the library code runs unmodified and the
untraced path carries no hooks at all. A span is ``(name, start_ns,
end_ns, parent, trial)``; ``trial`` is the index of the enclosing
``run_trial`` call (-1 outside a trial) and is the identifier all spans of
one trial share. The layer of a span is the part of its name before the
first dot.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import skf.cli
import skf.ellipsoid
import skf.experiments
import skf.filter

LAYERS = ("cli", "experiments", "filter", "optimizer", "model", "ellipsoid")
# A search ends at a bracket edge when log(beta*) lies this close to an end.
# Where the cost has no interior minimum it is flat to rounding over the
# last ~1e-5 of the bracket, so the golden section stops anywhere inside that
# band; interior optima sit whole units away from the ends.
EDGE_TOL_LOG_BETA = 1e-3

# (owner, attribute looked up by the caller, span name)
_PLAIN_WRAPS = (
    (skf.cli, "run_trials", "experiments.run_trials"),
    (skf.cli, "aggregate", "experiments.aggregate"),
    (skf.experiments, "build_model", "experiments.build_model"),
    (skf.experiments, "simulate_truth", "experiments.simulate_truth"),
    (skf.experiments, "skf_predict", "filter.skf_predict"),
    (skf.experiments, "skf_update", "filter.skf_update"),
    (skf.experiments, "ekf_step", "filter.ekf_step"),
    (skf.filter, "skf_gain", "filter.skf_gain"),
    (skf.filter, "linearize_process", "model.linearize_process"),
    (skf.filter, "linearize_measurement", "model.linearize_measurement"),
    (skf.filter, "trace_min_sum", "ellipsoid.trace_min_sum"),
    (skf.filter.StateBelief, "__post_init__", "filter.belief_check"),
    (skf.ellipsoid.Ellipsoid, "__post_init__", "ellipsoid.construct"),
)


class Tracer:
    """Collects spans and counters for one traced call of ``skf.cli.main``."""

    def __init__(self):
        self.spans: list = []
        self.trial = -1
        self.searches = 0
        self.edge_searches = 0
        self.eigvalsh_in_trials = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.trial)

        return traced

    def _run_trial(self, fn):
        inner = self.wrap("experiments.run_trial", fn)

        def run_trial(cfg, trial=0):
            self.trial = trial
            try:
                return inner(cfg, trial)
            finally:
                self.trial = -1

        return run_trial

    def _minimize_scalar(self, fn):
        search = self.wrap("optimizer.search", fn)

        def minimize_scalar(problem):
            objective = self.wrap("filter.beta_cost", problem.objective)
            result = search(dataclasses.replace(problem, objective=objective))
            t_star = math.log(result[0])
            lo, hi = problem.bracket
            self.searches += 1
            if min(t_star - lo, hi - t_star) < EDGE_TOL_LOG_BETA:
                self.edge_searches += 1
            return result

        return minimize_scalar

    def _eigvalsh(self, fn):
        def eigvalsh(*args, **kwargs):
            if self.trial >= 0:
                self.eigvalsh_in_trials += 1
            return fn(*args, **kwargs)

        return eigvalsh

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block, then restore."""
        patches = [(owner, attr, self.wrap(name, getattr(owner, attr)))
                   for owner, attr, name in _PLAIN_WRAPS]
        patches.append((skf.experiments, "run_trial",
                        self._run_trial(skf.experiments.run_trial)))
        patches.append((skf.filter, "minimize_scalar",
                        self._minimize_scalar(skf.filter.minimize_scalar)))
        patches.append((np.linalg, "eigvalsh", self._eigvalsh(np.linalg.eigvalsh)))
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: call count, inclusive ns and self ns."""
        dur = [end - start for _, start, end, _, _ in self.spans]
        child = [0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += dur[i]
        calls, incl, own = Counter(), Counter(), Counter()
        for i, span in enumerate(self.spans):
            calls[span[0]] += 1
            incl[span[0]] += dur[i]
            own[span[0]] += dur[i] - child[i]
        return calls, incl, own

    def write_csv(self, path, call: int) -> None:
        with open(path, "a", newline="") as fh:
            writer = csv.writer(fh)
            if fh.tell() == 0:
                writer.writerow(["call", "span", "name", "start_ns", "end_ns", "parent", "trial"])
            for sid, (name, start, end, parent, trial) in enumerate(self.spans):
                writer.writerow([call, sid, name, start, end, parent, trial])


def layer_metrics(tracer: Tracer, trials: int, steps: int, output_bytes: int) -> dict:
    """Per-layer numbers of one traced CLI call; times are seconds per call."""
    calls, incl, own = tracer.totals()
    total_steps = trials * steps
    wall = incl["cli.main"]
    in_trial_builds = sum(
        1 for s in tracer.spans if s[0] == "experiments.build_model" and s[4] >= 0
    )
    sec = 1e-9
    out = {
        "optimizer.search_self_s": own["optimizer.search"] * sec,
        "optimizer.cost_evals_per_step": calls["filter.beta_cost"] / total_steps,
        "optimizer.edge_frac": (
            tracer.edge_searches / tracer.searches if tracer.searches else 0.0
        ),
        "filter.beta_cost_s": incl["filter.beta_cost"] * sec,
        "filter.skf_gain_calls_per_step": calls["filter.skf_gain"] / total_steps,
        "filter.skf_predict_self_s": own["filter.skf_predict"] * sec,
        "filter.skf_update_self_s": own["filter.skf_update"] * sec,
        "filter.ekf_step_s": incl["filter.ekf_step"] * sec,
        "filter.belief_check_s": incl["filter.belief_check"] * sec,
        "ellipsoid.trace_min_sum_s": incl["ellipsoid.trace_min_sum"] * sec,
        "ellipsoid.construct_s": incl["ellipsoid.construct"] * sec,
        "numpy.eigvalsh_per_step": tracer.eigvalsh_in_trials / total_steps,
        "model.linearize_process_s": incl["model.linearize_process"] * sec,
        "model.linearize_measurement_s": incl["model.linearize_measurement"] * sec,
        "experiments.simulate_truth_s": incl["experiments.simulate_truth"] * sec,
        "experiments.run_trial_self_s": own["experiments.run_trial"] * sec,
        "experiments.build_model_calls_per_trial": in_trial_builds / trials,
        "experiments.aggregate_s": incl["experiments.aggregate"] * sec,
        "cli.output_bytes": output_bytes,
    }
    for layer in LAYERS:
        layer_ns = sum(v for name, v in own.items() if name.split(".")[0] == layer)
        out[f"{layer}.self_s"] = layer_ns * sec
        out[f"{layer}.self_share"] = layer_ns / wall
    return out
