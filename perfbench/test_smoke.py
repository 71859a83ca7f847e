"""Tiny-size smoke test of the benchmark itself.

Run from the root of a checkout (about half a minute):

    python3 -m pytest perfbench/test_smoke.py -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

bench = run.load_bench()
gate = bench.gate
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = bench.Workload("tiny", "example1", trials=1, eta=0.5, steps=4)
TINY_ETA0 = bench.Workload("tiny_eta0", "example2", trials=1, eta=0.0, steps=4)


def tiny_reference(workload, tmp_path) -> dict:
    call = bench.cli_call(workload, bench.DEFAULT_SEED, tmp_path / "make-reference")
    assert call.code == 0
    entry = {"argv": workload.argv(bench.DEFAULT_SEED), "numbers": gate.key_numbers(call.summary_dict)}
    return {"workloads": {workload.name: entry}}


def run_tiny(workload, trace, tmp_path, capsys, reference=None) -> dict:
    reference = reference or tiny_reference(workload, tmp_path)
    code = bench.main(workload, seed=5, seconds=0.1, trace=trace, out_root=tmp_path,
                      reference=reference)
    assert code == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def assert_metrics_match_spec(result, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], float | int)


@pytest.mark.parametrize("workload", [TINY, TINY_ETA0], ids=lambda w: w.name)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path, capsys):
    result = run_tiny(workload, False, tmp_path, capsys)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics_match_spec(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(tmp_path, capsys):
    result = run_tiny(TINY, True, tmp_path, capsys)
    assert result["correct"] is True
    assert_metrics_match_spec(result, "per_layer")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["optimizer.cost_evals_per_step"] == 51.0
    assert metrics["filter.skf_gain_calls_per_step"] == 52.0
    assert metrics["experiments.build_model_calls_per_trial"] == 2.0
    shares = sum(metrics[f"{layer}.self_share"] for layer in bench.spans.LAYERS)
    assert shares == pytest.approx(1.0)


def test_gate_trips_on_perturbed_reference(tmp_path, capsys):
    reference = tiny_reference(TINY, tmp_path)
    numbers = reference["workloads"]["tiny"]["numbers"]
    numbers["skf_l2_mean"] *= 1.0 + 1e-4
    result = run_tiny(TINY, False, tmp_path, capsys, reference)
    assert result["correct"] is False


def test_reference_tolerance_admits_rounding_level_changes():
    committed = gate.load_reference()
    for name, workload in bench.WORKLOADS.items():
        entry = committed["workloads"][name]
        assert entry["argv"] == workload.argv(bench.DEFAULT_SEED)
        summary = {"beta_star": {}, "semi_axis": {}}
        for key, value in entry["numbers"].items():
            outer, _, inner = key.partition(".")
            if inner:
                summary[outer][inner] = value * (1.0 + 1e-6)
            else:
                summary[outer] = value * (1.0 + 1e-6)
        assert gate.check_reference(summary, entry["argv"], entry) == []
        moved = copy.deepcopy(summary)
        moved["skf_l2_mean"] *= 1.0 + 1e-4
        assert gate.check_reference(moved, entry["argv"], entry) != []


def test_eta_zero_gate_trips_on_a_gap():
    assert gate.check_eta_zero({"eta_zero_max_gap": 0.0}) == []
    assert gate.check_eta_zero({"eta_zero_max_gap": 1e-6}) != []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ex1_scalar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
