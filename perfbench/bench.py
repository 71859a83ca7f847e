"""Workloads, measurement phases and result reporting of the skf benchmark.

A run drives the library through its public entry points, the way its
users do: a Monte Carlo study through ``skf.cli.main``, and the README's
online ``skf_predict``/``skf_update`` loop over the measurements that study
recorded. The load is closed-loop and serial: one caller, one process, the
next call only after the previous one returned. ``NOTES.md`` says why each
workload exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import skf
import skf.cli
from skf import FilterConfig, StateBelief, example1_config, example2_config, skf_predict, skf_update
from skf.experiments import DEFAULT_SEED, build_model, input_vector

import gate
import spans

# A later performance claim is re-checked on this seed, which no change may
# be tuned on (the default seed is the one the reference gate pins).
HELD_OUT_SEED = 7919

MIN_ROUNDS = 3  # untraced rounds per run; each is set-up probes, a CLI call, an online stretch
PROBES_PER_ROUND = 3  # fresh interpreters per round; setup_s is the median over the run
MIN_TRACED_PAIRS = 2  # untraced/traced CLI pairs per traced run
MIN_LATENCY_SAMPLES = 1000  # leaves at least ten steps beyond the p99

PROBE = Path(__file__).resolve().parent / "probe_setup.py"

# Per-layer counts that are fixed by the inputs and must repeat exactly.
EXACT_COUNTS = (
    "optimizer.cost_evals_per_step",
    "optimizer.edge_frac",
    "filter.skf_gain_calls_per_step",
    "numpy.eigvalsh_per_step",
    "experiments.build_model_calls_per_trial",
)


@dataclass(frozen=True)
class Workload:
    """One CLI study; ``steps=None`` keeps the scenario's full trial length."""

    name: str
    command: str
    trials: int
    eta: float
    steps: int | None = None

    def argv(self, seed: int) -> list[str]:
        argv = [self.command, "--trials", str(self.trials), "--eta", repr(self.eta)]
        if self.steps is not None:
            argv += ["--steps", str(self.steps)]
        return argv + ["--seed", str(seed)]

    def config(self, seed: int):
        make = example1_config if self.command == "example1" else example2_config
        sizes = {} if self.steps is None else {"steps": self.steps}
        return make(trials=self.trials, seed=seed, eta=self.eta, **sizes)


WORKLOADS = {
    w.name: w
    for w in (
        # Interior beta optimum on every step: the golden-section search and
        # the gain it calls take most of the time.
        Workload("ex2_track", "example2", trials=2, eta=0.5),
        # eta = 0 skips the search: the bypass workload for optimizer changes.
        Workload("ex2_eta0", "example2", trials=8, eta=0.0),
        # 1x1 matrices, short trials, searches ending at a bracket edge.
        Workload("ex1_scalar", "example1", trials=10, eta=0.5),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "step_ms_p99": "ms",
    "peak_rss_mb": "MB",
    "success_frac": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_step"):
        return "1/step"
    if name.endswith("_per_trial"):
        return "1/trial"
    if name.endswith("_bytes"):
        return "bytes"
    return "ratio"


@dataclass
class CliCall:
    code: int
    wall_s: float
    trials: int
    steps: int
    csv: bytes
    summary: bytes
    output_bytes: int

    @property
    def summary_dict(self) -> dict:
        return json.loads(self.summary)


def cli_call(workload: Workload, seed: int, out_dir: Path, tracer=None) -> CliCall:
    """One ``skf`` CLI run in this process, timed around ``main`` alone."""
    argv = workload.argv(seed) + ["--out", str(out_dir)]
    if tracer is None:
        start = time.perf_counter()
        code = skf.cli.main(argv)
        wall = time.perf_counter() - start
    else:
        main = tracer.wrap("cli.main", skf.cli.main)
        with tracer.installed():
            start = time.perf_counter()
            code = main(argv)
            wall = time.perf_counter() - start
    if code != 0:
        return CliCall(code, wall, workload.trials, 0, b"", b"", 0)
    files = [out_dir / n for n in ("trials.csv", "summary.json", "manifest.json")]
    summary = files[1].read_bytes()
    parsed = json.loads(summary)
    return CliCall(
        code,
        wall,
        parsed["trials"],
        parsed["steps"],
        files[0].read_bytes(),
        summary,
        sum(f.stat().st_size for f in files),
    )


def setup_seconds(workload: Workload, seed: int) -> float:
    """Fresh interpreter to ready: import skf, resolve the config, build the model."""
    cmd = [sys.executable, str(PROBE), workload.command, str(workload.trials),
           repr(workload.eta), str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited with {code} after printing {line!r}")
    return ready - start


class Run:
    """Counts and gate problems accumulated over one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def cli(self, call: CliCall, what: str) -> bool:
        self.attempted += call.trials
        if call.code != 0:
            self.failed += call.trials
            self.problems.append(f"{what}: skf exited with {call.code}")
            return False
        return True

    def check(self, problems: list[str], what: str) -> None:
        self.problems += [f"{what}: {p}" for p in problems]


def reference_gate(run: Run, workload: Workload, out_dir: Path, reference: dict) -> None:
    """Default-seed CLI call against the committed reference; also the warm-up."""
    call = cli_call(workload, DEFAULT_SEED, out_dir)
    if not run.cli(call, "reference call"):
        return
    entry = reference["workloads"].get(workload.name)
    if entry is None:
        run.problems.append(f"no committed reference for workload {workload.name}")
        return
    run.check(
        gate.check_reference(call.summary_dict, workload.argv(DEFAULT_SEED), entry),
        "reference",
    )
    if workload.eta == 0.0:
        run.check(gate.check_eta_zero(call.summary_dict), "reference call")


def check_outputs(run: Run, workload: Workload, call: CliCall, first: CliCall, what: str):
    if call.csv != first.csv or call.summary != first.summary:
        run.problems.append(f"{what}: trials.csv or summary.json differs from the first call")
    if workload.eta == 0.0:
        run.check(gate.check_eta_zero(call.summary_dict), what)


class Replayer:
    """README loop over the measurements a CLI call recorded in ``trials.csv``.

    Trials are replayed whole, in order, wrapping around. Each step is timed
    from ``skf_predict`` to the return of ``skf_update``, and every replay's
    centers are checked against the ``skf_center`` columns.
    """

    def __init__(self, run: Run, workload: Workload, seed: int, csv_bytes: bytes):
        self.run = run
        self.cfg = workload.config(seed)
        self.model = build_model(self.cfg)
        self.fcfg = FilterConfig(eta=self.cfg.eta)
        self.inputs = [input_vector(self.cfg, k) for k in range(1, self.cfg.steps + 1)]
        self.recorded = gate.read_trials(csv_bytes)
        self.measurements = [[np.array(y) for y in t["y"]] for t in self.recorded]
        self.latencies: list[int] = []
        self.replays = 0

    def run_for(self, seconds: float, min_samples: int = 0) -> bool:
        """Replay whole trials for at least ``seconds`` and until ``min_samples``
        steps are timed in all; False once a trial failed."""
        clock = time.perf_counter_ns
        stop = clock() + int(seconds * 1e9)
        cfg, model, fcfg = self.cfg, self.model, self.fcfg
        while True:
            trial = self.replays % len(self.recorded)
            self.replays += 1
            self.run.attempted += 1
            belief = StateBelief(cfg.x0, cfg.cov0, cfg.shape0, "posterior", 0)
            centers = []
            try:
                for k, (u, y) in enumerate(zip(self.inputs, self.measurements[trial]), start=1):
                    start = clock()
                    prior = skf_predict(belief, model, u, k)
                    belief, _ = skf_update(prior, y, model, fcfg, k)
                    self.latencies.append(clock() - start)
                    centers.append(belief.center)
            except Exception:  # a failed trial is counted and reported, never fatal
                self.run.failed += 1
                self.run.problems.append(f"online trial {trial}: {traceback.format_exc()}")
                return False
            self.run.check(
                gate.check_online(centers, self.recorded[trial]["center"]),
                f"online trial {trial}",
            )
            if clock() >= stop and len(self.latencies) >= min_samples:
                return True


def measure_untraced(run: Run, workload: Workload, seed: int, seconds: float,
                     out: Path, reference: dict) -> tuple[dict, dict]:
    setup_seconds(workload, seed)  # fills the bytecode caches once
    reference_gate(run, workload, out / "reference", reference)

    # Machine speed drifts over seconds, so every round samples all three
    # metrics: set-up probes, one CLI call, and an online stretch as long
    # as that call.
    start = time.perf_counter()
    setup: list[float] = []
    calls: list[CliCall] = []
    replayer = None
    while True:
        elapsed = time.perf_counter() - start
        # stop when another round of the mean length would end past the window
        if len(calls) >= MIN_ROUNDS and elapsed * (1.0 + 1.0 / len(calls)) > seconds:
            replayer.run_for(0.0, MIN_LATENCY_SAMPLES)
            break
        setup += [setup_seconds(workload, seed) for _ in range(PROBES_PER_ROUND)]
        call = cli_call(workload, seed, out / "cli")
        if not run.cli(call, f"CLI call {len(calls)}"):
            break
        calls.append(call)
        check_outputs(run, workload, call, calls[0], f"CLI call {len(calls) - 1}")
        replayer = replayer or Replayer(run, workload, seed, call.csv)
        if not replayer.run_for(call.wall_s):
            break
    if replayer is None or not replayer.latencies:
        raise SystemExit(f"error: {run.problems[-1]}")

    ms = np.asarray(replayer.latencies, dtype=float) / 1e6
    return {
        "setup_s": statistics.median(setup),
        "steps_per_s": statistics.median(c.trials * c.steps / c.wall_s for c in calls),
        "step_ms_p99": float(np.percentile(ms, 99)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": (run.attempted - run.failed) / run.attempted,
    }, {
        "cli_calls": len(calls),
        "steps_per_call": calls[0].trials * calls[0].steps,
        "latency_samples": len(ms),
        # Reported, not bounded: the median swings with the host's speed regime.
        "step_ms_p50": float(np.percentile(ms, 50)),
        "latency_samples_beyond_p99": int(np.sum(ms > np.percentile(ms, 99))),
        "setup_probes": len(setup),
    }


def measure_traced(run: Run, workload: Workload, seed: int, seconds: float,
                   out: Path, reference: dict) -> tuple[dict, dict]:
    reference_gate(run, workload, out / "reference", reference)

    start = time.perf_counter()
    pairs: list[tuple[CliCall, CliCall, spans.Tracer]] = []
    while len(pairs) < MIN_TRACED_PAIRS or (
        time.perf_counter() + statistics.mean(p.wall_s + t.wall_s for p, t, _ in pairs)
        <= start + seconds
    ):
        tracer = spans.Tracer()
        # Alternate the order so drift in machine speed does not bias the overhead.
        if len(pairs) % 2 == 0:
            plain = cli_call(workload, seed, out / "plain")
            traced = cli_call(workload, seed, out / "traced", tracer)
        else:
            traced = cli_call(workload, seed, out / "traced", tracer)
            plain = cli_call(workload, seed, out / "plain")
        what = f"pair {len(pairs)}"
        if not (run.cli(plain, what + " untraced") and run.cli(traced, what + " traced")):
            break
        if traced.csv != plain.csv or traced.summary != plain.summary:
            run.problems.append(f"{what}: traced trials.csv or summary.json differs from untraced")
        check_outputs(run, workload, plain, pairs[0][0] if pairs else plain, what)
        pairs.append((plain, traced, tracer))

    if not pairs:
        raise SystemExit(f"error: {run.problems[-1]}")
    per_pair = []
    spans_path = out / "spans.csv"
    spans_path.unlink(missing_ok=True)
    for i, (plain, traced, tracer) in enumerate(pairs):
        metrics = spans.layer_metrics(tracer, traced.trials, traced.steps, traced.output_bytes)
        metrics["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
        per_pair.append(metrics)
        tracer.write_csv(spans_path, call=i)
    for name in EXACT_COUNTS:
        values = {m[name] for m in per_pair}
        if len(values) != 1:
            run.problems.append(f"{name} does not repeat across traced calls: {sorted(values)}")
    metrics = {
        name: statistics.median(m[name] for m in per_pair) for name in per_pair[0]
    }
    return metrics, {
        "traced_pairs": len(pairs),
        "spans_per_call": len(pairs[0][2].spans),
        "spans_file": str(spans_path),
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "skf": skf.__version__,
        "thread_settings": {k: v for k, v in sorted(os.environ.items()) if "THREADS" in k},
        "SKF_THREADS": os.environ.get("SKF_THREADS"),
    }


def main(workload: Workload, seed: int, seconds: float, trace: bool, out_root: Path,
         reference: dict | None = None) -> int:
    out = out_root / f"{workload.name}-seed{seed}-trace{int(trace)}"
    out.mkdir(parents=True, exist_ok=True)
    reference = gate.load_reference() if reference is None else reference
    run = Run()
    measure = measure_traced if trace else measure_untraced
    values, samples = measure(run, workload, seed, seconds, out, reference)
    units = END_TO_END_UNITS if not trace else {n: per_layer_unit(n) for n in values}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "argv": workload.argv(seed),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "samples": samples,
        "problems": run.problems,
        **result,
    }
    (out / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({k: record[k] for k in ("workload", "argv", "environment", "samples")}))
    for problem in run.problems:
        print(f"GATE FAIL {problem}")
    print(json.dumps(result))
    return 0
