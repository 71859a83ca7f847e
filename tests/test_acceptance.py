"""Acceptance suite.

Each test prints one PASS/FAIL line for its criterion (visible with
``pytest -rA`` or ``-s``) and enforces the stated tolerances. Expensive
Monte Carlo batches are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from skf.cli import main
from skf.ellipsoid import Ellipsoid, pair_sum_shape, trace_min_sum
from skf.experiments import (
    _crossing_stats,
    example1_config,
    example2_config,
    run_trials,
    sensitivity_sweep,
)
from skf.filter import FilterConfig, _update_terms, _UpdateContext, skf_gain
from skf.optimizer import ScalarProblem, minimize_scalar
from skf.validation import check_gain_stationarity, random_partial_update_setup, random_spd


def announce(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def example1_batch():
    cfg = example1_config(trials=100)
    start = time.perf_counter()
    batches = run_trials(cfg)
    return cfg, batches, time.perf_counter() - start


@pytest.fixture(scope="module")
def example2_batch():
    cfg = example2_config(trials=100)
    start = time.perf_counter()
    batches = run_trials(cfg)
    return cfg, batches, time.perf_counter() - start


def test_criterion_1_ekf_reduction():
    cfg = example1_config(trials=1, eta=0.0)
    start = time.perf_counter()
    trial = run_trials(cfg)[0]
    elapsed = time.perf_counter() - start
    gap = max(
        float(np.max(np.abs(trial.skf_center - trial.ekf_state))),
        float(np.max(np.abs(trial.skf_cov - trial.ekf_cov))),
    )
    ok = gap < 1e-9 and elapsed < 1.0
    announce("1 ekf-reduction", ok, f"max gap {gap:.3e}, {elapsed:.2f}s")
    assert gap < 1e-9
    assert elapsed < 1.0


def test_criterion_2_minkowski_containment():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        count = int(rng.integers(1, 5))
        terms = tuple(
            Ellipsoid(rng.standard_normal(n), random_spd(rng, n, scale=0.5))
            for _ in range(count)
        )
        center = np.sum([t.center for t in terms], axis=0)
        factor = trace_min_sum([np.linalg.cholesky(t.shape) for t in terms])
        shape = factor @ factor.T
        draws = 10_000
        points = np.zeros((draws, n))
        for t in terms:
            radius = rng.uniform(size=draws) ** (1.0 / n)
            radius[: draws // 2] = 1.0
            direction = rng.standard_normal((draws, n))
            direction /= np.linalg.norm(direction, axis=1)[:, None]
            chol = np.linalg.cholesky(t.shape)
            points += t.center + (radius[:, None] * direction) @ chol.T
        d = points - center
        q = np.einsum("ij,ij->i", d, np.linalg.solve(shape, d.T).T)
        worst = max(worst, float(q.max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 + 1e-9 and elapsed < 30.0
    announce("2 minkowski-containment", ok, f"worst quad form {worst:.12f}, {elapsed:.1f}s")
    assert worst <= 1.0 + 1e-9
    assert elapsed < 30.0


def test_criterion_3_trace_optimality_and_pair_closed_form():
    rng = np.random.default_rng(303)
    worst_gap = -np.inf
    for _ in range(20):
        n = int(rng.integers(1, 5))
        count = int(rng.integers(2, 5))
        shapes = [random_spd(rng, n) for _ in range(count)]
        factor = trace_min_sum([np.linalg.cholesky(s) for s in shapes])
        bound = factor @ factor.T
        traces = np.array([np.trace(s) for s in shapes])
        alphas = rng.dirichlet(np.ones(count), size=1000)
        family = (traces / alphas).sum(axis=1)
        worst_gap = max(worst_gap, float(np.trace(bound) - family.min()))
    pair_gap = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        s1, s2 = random_spd(rng, n), random_spd(rng, n)
        beta = np.sqrt(np.trace(s1) / np.trace(s2))
        factor = trace_min_sum([np.linalg.cholesky(s1), np.linalg.cholesky(s2)])
        bound = factor @ factor.T
        pair_gap = max(pair_gap, float(np.max(np.abs(bound - pair_sum_shape(s1, s2, beta)))))
    ok = worst_gap <= 1e-9 and pair_gap <= 1e-10
    announce(
        "3 trace-optimality", ok, f"family gap {worst_gap:.3e}, pair gap {pair_gap:.3e}"
    )
    assert worst_gap <= 1e-9
    assert pair_gap <= 1e-10


def _grid_cost(belief, lin, eta, betas):
    """Vectorized update cost over a beta grid (oracle arithmetic)."""
    h_x, h_v, h_b = lin.h_x, lin.h_v, lin.h_b
    c, s = belief.cov, belief.shape
    c_z, s_z = (f @ f.T for f in (lin.meas_noise_factor, lin.meas_ubb_factor))
    n = c.shape[0]
    p = 1 + 1 / betas
    q = 1 + betas
    ch = c @ h_x.T
    sh = s @ h_x.T
    hch = h_x @ ch
    hsh = h_x @ sh
    r = h_v @ c_z @ h_v.T
    z = h_b @ s_z @ h_b.T
    cross = (1 - eta) * ch[None] + eta * p[:, None, None] * sh[None]
    bracket = (1 - eta) * (hch + r)[None] + eta * (
        p[:, None, None] * hsh[None] + q[:, None, None] * z[None]
    )
    bracket = 0.5 * (bracket + np.transpose(bracket, (0, 2, 1)))
    gain = np.transpose(np.linalg.solve(bracket, np.transpose(cross, (0, 2, 1))), (0, 2, 1))
    ikh = np.eye(n)[None] - gain @ h_x[None]
    ikh_t = np.transpose(ikh, (0, 2, 1))
    gain_t = np.transpose(gain, (0, 2, 1))
    cov_plus = ikh @ c[None] @ ikh_t + gain @ r[None] @ gain_t
    t1 = np.trace(ikh @ s[None] @ ikh_t, axis1=1, axis2=2)
    t2 = np.trace(gain @ z[None] @ gain_t, axis1=1, axis2=2)
    return (1 - eta) * np.trace(cov_plus, axis1=1, axis2=2) + eta * (p * t1 + q * t2)


def test_criterion_4_beta_optimizer_vs_grid():
    rng = np.random.default_rng(404)
    worst_rel = 0.0
    worst_val = -np.inf
    for _ in range(100):
        belief, lin = random_partial_update_setup(rng)
        eta = float(rng.choice([0.25, 0.5, 0.75]))
        cfg = FilterConfig(eta=eta)
        ctx = _UpdateContext(belief, lin, eta)

        def cost(beta):
            gain = skf_gain(belief, lin, cfg, beta)
            # factor blocks: each trace is a squared Frobenius norm
            b_c, b_v, b1, b2 = _update_terms(ctx, gain)
            tr1, tr2 = float(np.sum(b1 * b1)), float(np.sum(b2 * b2))
            tr_shape = (1 + 1 / beta) * tr1 + (1 + beta) * tr2
            value = (1 - eta) * float(np.sum(b_c * b_c) + np.sum(b_v * b_v)) + eta * tr_shape
            return value, eta * beta * tr2, eta * tr1 / beta

        beta_star, value, _, _ = minimize_scalar(ScalarProblem(objective=cost))
        t_coarse = np.linspace(-20.0, 20.0, 100_000)
        costs = _grid_cost(belief, lin, eta, np.exp(t_coarse))
        i0 = int(np.argmin(costs))
        t_fine = np.linspace(
            t_coarse[max(0, i0 - 1)], t_coarse[min(t_coarse.size - 1, i0 + 1)], 100_000
        )
        costs_fine = _grid_cost(belief, lin, eta, np.exp(t_fine))
        beta_grid = float(np.exp(t_fine[int(np.argmin(costs_fine))]))
        worst_rel = max(worst_rel, abs(beta_star - beta_grid) / beta_grid)
        # value comparison through the production cost at both candidates
        worst_val = max(worst_val, value - cost(beta_grid)[0])
    ok = worst_rel < 1e-5 and worst_val <= 1e-9
    announce(
        "4 beta-optimizer", ok, f"worst rel {worst_rel:.3e}, worst value gap {worst_val:.3e}"
    )
    assert worst_rel < 1e-5
    assert worst_val <= 1e-9


def test_criterion_5_gain_stationarity():
    result = check_gain_stationarity(configs=100, seed=505)
    announce("5 gain-stationarity", result.passed, result.detail)
    assert result.passed


def test_criterion_6_example1_directional(example1_batch):
    cfg, batches, elapsed = example1_batch
    skf_l2 = np.array([np.linalg.norm(t.skf_dist) for t in batches])
    ekf_l2 = np.array([np.linalg.norm(t.ekf_dist) for t in batches])
    blocks_won = sum(
        skf_l2[b * 20 : (b + 1) * 20].mean() < ekf_l2[b * 20 : (b + 1) * 20].mean()
        for b in range(5)
    )
    win_rate = float(np.mean(skf_l2 < ekf_l2))
    detail = (
        f"skf mean {skf_l2.mean():.2f} vs ekf mean {ekf_l2.mean():.2f}, "
        f"blocks won {blocks_won}/5, win rate {win_rate:.2f}, {elapsed:.1f}s"
    )
    ok = blocks_won >= 4 and win_rate > 0.5 and elapsed < 60.0
    announce("6 example1-directional", ok, detail)
    assert elapsed < 60.0
    assert blocks_won >= 4, detail
    assert win_rate > 0.5, detail


def test_criterion_7_example2_crossing(example2_batch):
    cfg, batches, elapsed = example2_batch
    stats = [_crossing_stats(t, cfg.stations) for t in batches]
    missing = sum(s is None for s in stats)
    found = [s for s in stats if s is not None]
    ratios = np.array([s["ratio"] for s in found])
    angles = np.array([s["principal_angle_from_normal_deg"] for s in found])
    detail = (
        f"{len(found)}/100 crossings, ratio min {ratios.min():.2f}, "
        f"angle max {angles.max():.3f} deg, {elapsed:.1f}s"
    )
    ok = missing == 0 and ratios.min() > 2.0 and angles.max() <= 15.0 and elapsed < 300.0
    announce("7 example2-crossing", ok, detail)
    assert elapsed < 300.0
    assert missing == 0
    assert ratios.min() > 2.0, detail
    assert angles.max() <= 15.0, detail


def test_criterion_8_sensitivity_monotonicity():
    cfg = example2_config(trials=1)
    rows = sensitivity_sweep(cfg, [1.0, 10.0, 100.0])
    m1, m10, m100 = (row["max_semi_axis"] for row in rows)
    r10 = m10 / m1
    r100 = m100 / m1
    detail = f"max semi-axes {m1:.2f}/{m10:.2f}/{m100:.2f}, ratios {r10:.1f}, {r100:.1f}"
    ok = m1 < m10 < m100 and 7.0 <= r10 <= 13.0 and 70.0 <= r100 <= 130.0
    announce("8 sensitivity", ok, detail)
    assert m1 < m10 < m100
    assert 7.0 <= r10 <= 13.0, detail
    assert 70.0 <= r100 <= 130.0, detail


def test_criterion_9_numerical_hygiene(example1_batch, example2_batch, tmp_path):
    worst_asym = 0.0
    worst_cov_eig = np.inf
    worst_shape_eig = np.inf
    for _, batches, _ in (example1_batch, example2_batch):
        for trial in batches:
            rows = slice(None, None, max(1, len(trial.skf_dist) // 25))
            covs, shapes = trial.skf_cov[rows], trial.skf_shape[rows]
            ekf_covs = trial.ekf_cov[rows]
            for mats in (covs, shapes, ekf_covs):
                asym = np.abs(mats - np.swapaxes(mats, 1, 2))
                worst_asym = max(worst_asym, float(np.max(asym)))
            worst_cov_eig = min(
                worst_cov_eig,
                float(np.min(np.linalg.eigvalsh(covs)[:, 0])),
                float(np.min(np.linalg.eigvalsh(ekf_covs)[:, 0])),
            )
            worst_shape_eig = min(
                worst_shape_eig, float(np.min(np.linalg.eigvalsh(shapes)[:, 0]))
            )
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    args = ["example1", "--trials", "2", "--steps", "25", "--seed", "31"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    identical = (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
    detail = (
        f"asym {worst_asym:.1e}, min cov eig {worst_cov_eig:.1e}, "
        f"min shape eig {worst_shape_eig:.1e}, csv identical {identical}"
    )
    ok = (
        worst_asym <= 1e-10
        and worst_cov_eig > 0.0
        and worst_shape_eig >= -1e-10
        and identical
    )
    announce("9 numerical-hygiene", ok, detail)
    assert worst_asym <= 1e-10
    assert worst_cov_eig > 0.0
    assert worst_shape_eig >= -1e-10
    assert identical
