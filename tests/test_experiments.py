"""Benchmark experiment tests."""

import dataclasses

import numpy as np
import pytest

from skf.experiments import (
    CROSSING_WINDOW,
    ExperimentConfig,
    TrialRecord,
    aggregate,
    build_model,
    detect_crossing,
    example1_config,
    example2_config,
    ex2_nominal_kicks,
    input_vector,
    largest_semi_axis,
    run_trial,
    run_trials,
    scaled_config,
    sensitivity_sweep,
    simulate_truth,
    transition_matrix,
    uniform_in_ellipsoid,
)
from skf.filter import FilterConfig, StateBelief, skf_predict, skf_update


def noiseless(cfg):
    zero = np.zeros_like(cfg.process_cov)
    return dataclasses.replace(
        cfg,
        process_cov=zero,
        ubb_process_shapes=tuple(np.zeros_like(s) for s in cfg.ubb_process_shapes),
        meas_cov=np.zeros_like(cfg.meas_cov),
        ubb_meas_shape=np.zeros_like(cfg.ubb_meas_shape),
    )


class TestConfigs:
    def test_example1_constants(self):
        cfg = example1_config()
        assert cfg.steps == 50
        assert cfg.eta == 0.5
        assert cfg.x0[0] == 0.1
        assert cfg.cov0[0, 0] == 2.0
        assert cfg.shape0[0, 0] == 1e-3
        assert cfg.ubb_process_shapes[0][0, 0] == 9.0
        assert cfg.ubb_meas_shape[0, 0] == 4.0

    def test_example2_constants(self):
        cfg = example2_config()
        assert cfg.steps == 300
        assert cfg.dt == 0.1
        assert np.allclose(cfg.cov0, 0.01 * np.eye(4))
        assert np.allclose(cfg.shape0, 1e-6 * np.eye(4))
        assert np.allclose(cfg.ubb_process_shapes[0], np.diag([1.0, 1.0, 0.25, 0.25]))
        deg = np.pi / 180.0
        assert np.allclose(cfg.ubb_meas_shape, np.diag([1e-4, 1e-4, deg**2, deg**2]))
        assert cfg.process_cov[0, 2] == 0.005

    def test_input_sequence(self):
        cfg = example1_config()
        assert input_vector(cfg, 1)[0] == pytest.approx(8.0)
        assert input_vector(cfg, 2)[0] == pytest.approx(8.0 * np.cos(1.2))

    def test_validation(self):
        for key, value in (("trials", 0), ("seed", -1), ("trials", 2.5), ("eta", "0.5")):
            with pytest.raises(ValueError, match=key):
                example1_config(**{key: value})
        with pytest.raises(ValueError):
            dataclasses.replace(example1_config(), which="example3")


class TestSimulateTruth:
    def test_noise_free_first_step(self):
        cfg = noiseless(example1_config(steps=1))
        rng = np.random.default_rng(0)
        states, meas = simulate_truth(cfg, rng)
        assert states[1, 0] == pytest.approx(10.525247524752475, abs=1e-12)

    def test_measurement_map(self):
        m = build_model(example1_config())
        y = m.h(np.array([2.0]), np.zeros(1), np.zeros(1), 1)
        assert y[0] == pytest.approx(0.2, abs=1e-15)

    def test_stationary_model_when_velocities_and_noise_vanish(self):
        # the process map alone keeps a motionless target in place, so the
        # ranges it generates are constant
        cfg = example2_config()
        m = build_model(cfg)
        x = np.array([30.0, 40.0, 0.0, 0.0])
        zeros = (np.zeros(4), [np.zeros(4)], np.zeros(4), np.zeros(4))
        w, a, v, b = zeros
        ranges = []
        for k in range(1, 6):
            x = m.f(x, np.zeros(0), w, a, k)
            ranges.append(m.h(x, v, b, k)[:2])
        assert np.allclose(ranges, ranges[0])

    def test_truth_disturbance_stays_inside_bound(self):
        # with the Gaussian part switched off, the per-step residual against
        # the transition matrix is exactly the bounded disturbance (turn
        # kick + random part); it must stay inside the declared ellipsoid
        cfg = example2_config(steps=300)
        cfg = dataclasses.replace(
            cfg,
            process_cov=np.zeros((4, 4)),
            meas_cov=np.zeros((4, 4)),
        )
        rng = np.random.default_rng(3)
        states, _ = simulate_truth(cfg, rng)
        f_mat = transition_matrix(cfg.dt)
        s_inv = np.linalg.inv(example2_config().ubb_process_shapes[0])
        for k in range(1, cfg.steps + 1):
            resid = states[k] - f_mat @ states[k - 1]
            assert resid @ s_inv @ resid <= 1.0 + 1e-12

    def test_nominal_kicks_leave_margin_for_draws(self):
        kicks = ex2_nominal_kicks(300, 0.1)
        norms = [np.sqrt(v @ np.diag([4.0, 4.0]) @ v) for v in kicks]
        assert max(norms) <= 0.5  # at most half the bound, rest is random

    def test_deterministic_given_seed(self):
        cfg = example1_config(steps=10)
        a = simulate_truth(cfg, np.random.default_rng([5, 0]))
        b = simulate_truth(cfg, np.random.default_rng([5, 0]))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestUniformInEllipsoid:
    def test_samples_inside(self):
        rng = np.random.default_rng(9)
        shape = np.diag([9.0, 1.0])
        s_inv = np.linalg.inv(shape)
        for _ in range(500):
            x = uniform_in_ellipsoid(rng, shape)
            assert x @ s_inv @ x <= 1.0 + 1e-12

    def test_zero_shape_gives_zero(self):
        rng = np.random.default_rng(10)
        assert np.all(uniform_in_ellipsoid(rng, np.zeros((3, 3))) == 0.0)

    def test_scalar_interval(self):
        rng = np.random.default_rng(11)
        xs = [uniform_in_ellipsoid(rng, np.array([[9.0]]))[0] for _ in range(2000)]
        assert -3.0 <= min(xs) < -2.5
        assert 2.5 < max(xs) <= 3.0


class TestRunTrial:
    def test_eta_zero_tracks_ekf(self):
        cfg = example1_config(trials=1, eta=0.0, steps=30)
        for r in run_trial(cfg, 0):
            assert abs(r.skf_dist - r.ekf_dist) < 1e-9

    def test_records_are_complete(self):
        cfg = example1_config(steps=5)
        records = run_trial(cfg, 0)
        assert len(records) == 5
        assert [r.step for r in records] == [1, 2, 3, 4, 5]
        r = records[-1]
        assert r.skf_cov.shape == (1, 1)
        assert r.beta_star > 0
        assert r.skf_dist >= 0 and r.ekf_dist >= 0

    def test_shapes_stay_psd_over_run(self):
        cfg = example1_config(steps=50)
        for r in run_trial(cfg, 0):
            assert np.linalg.eigvalsh(r.skf_shape)[0] >= 0.0
            assert np.linalg.eigvalsh(r.skf_cov)[0] > 0.0
        l2 = np.linalg.norm([r.skf_dist for r in run_trial(cfg, 0)])
        assert np.isfinite(l2)

    def test_deterministic_records(self):
        cfg = example1_config(steps=10)
        a = run_trial(cfg, 3)
        b = run_trial(cfg, 3)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.skf_center, rb.skf_center)
            assert np.array_equal(ra.skf_shape, rb.skf_shape)
            assert ra.beta_star == rb.beta_star

    def test_zero_noise_linear_filter_contracts(self):
        # offset initial belief on a noiseless linear system: both tracks
        # must converge toward the truth
        m_cfg = FilterConfig(eta=0.5)
        f_mat = np.array([[0.95]])
        from skf.model import NonlinearModel
        from skf.filter import ekf_step

        model = NonlinearModel(
            state_dim=1,
            input_dim=1,
            meas_dim=1,
            f=lambda x, u, w, a, k: f_mat @ x + w + (a[0] if a else 0.0),
            h=lambda x, v, b, k: x + v + b,
            process_noise_cov=1e-12 * np.eye(1),
            ubb_process_shapes=(np.zeros((1, 1)),),
            meas_noise_cov=1e-2 * np.eye(1),
            ubb_meas_shape=np.zeros((1, 1)),
        )
        truth = np.array([5.0])
        belief = StateBelief([0.0], [[4.0]], [[1e-6]], "posterior", 0)
        x, p = np.array([0.0]), np.array([[4.0]])
        first = abs(belief.center[0] - truth[0])
        for k in range(1, 20):
            truth = f_mat @ truth
            y = truth.copy()
            prior = skf_predict(belief, model, np.zeros(1), k)
            belief, _ = skf_update(prior, y, model, m_cfg, k)
            x, p = ekf_step(x, p, np.zeros(1), y, model, k)
        assert abs(belief.center[0] - truth[0]) < 0.05 * first
        assert abs(x[0] - truth[0]) < 0.05 * first


class TestAggregate:
    def test_l2_of_three_four(self):
        rec = [
            TrialRecord(
                step=k,
                true_state=np.zeros(1),
                measurement=np.zeros(1),
                skf_center=np.zeros(1),
                skf_cov=np.eye(1),
                skf_shape=np.eye(1),
                ekf_state=np.zeros(1),
                ekf_cov=np.eye(1),
                beta_star=1.0,
                skf_dist=d,
                ekf_dist=d,
            )
            for k, d in ((1, 3.0), (2, 4.0))
        ]
        summary = aggregate([rec])
        assert summary["skf_l2"][0] == pytest.approx(5.0)

    def test_win_rate(self):
        def trial(skf, ekf):
            return [
                TrialRecord(
                    step=1,
                    true_state=np.zeros(1),
                    measurement=np.zeros(1),
                    skf_center=np.zeros(1),
                    skf_cov=np.eye(1),
                    skf_shape=np.eye(1),
                    ekf_state=np.zeros(1),
                    ekf_cov=np.eye(1),
                    beta_star=1.0,
                    skf_dist=skf,
                    ekf_dist=ekf,
                )
            ]

        summary = aggregate([trial(1.0, 2.0), trial(3.0, 2.0)])
        assert summary["win_rate"] == pytest.approx(0.5)

    def test_eta_zero_gap_reported(self):
        cfg = example1_config(trials=2, steps=10, eta=0.0)
        batches = run_trials(cfg)
        summary = aggregate(batches, cfg)
        assert summary["eta_zero_max_gap"] < 1e-9

    def test_crossing_fields_for_example2(self):
        cfg = example2_config(trials=1, steps=300)
        batches = run_trials(cfg)
        summary = aggregate(batches, cfg)
        assert "crossing" in summary
        cross = summary["crossing"]
        assert cross["trials_with_crossing"] == 1
        assert cross["ratio_median"] > 2.0
        assert cross["angle_deg_max"] <= 15.0
        dom = cross["angle_uncertainty_dominance"]
        # one-degree bearing bound at ~100 m dwarfs the centimeter range bound
        assert dom["station_range_m_median"] >= 85.0
        assert dom["cross_line_bound_m_median"] == pytest.approx(
            dom["station_range_m_median"] * np.pi / 180.0, rel=1e-12
        )
        assert dom["along_line_bound_m"] == pytest.approx(0.01)
        assert dom["dominates_in_all_trials"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestCrossingDetection:
    def test_detects_sign_change(self):
        cfg = example2_config()
        records = []
        for k, y in enumerate([90.0, 95.0, 99.0, 101.0, 110.0], start=1):
            records.append(
                TrialRecord(
                    step=k,
                    true_state=np.array([50.0, y, 0.0, 7.0]),
                    measurement=np.zeros(4),
                    skf_center=np.zeros(4),
                    skf_cov=np.eye(4),
                    skf_shape=np.eye(4),
                    ekf_state=np.zeros(4),
                    ekf_cov=np.eye(4),
                    beta_star=1.0,
                    skf_dist=0.0,
                    ekf_dist=0.0,
                )
            )
        assert detect_crossing(records, cfg.stations) == 4

    def test_no_crossing(self):
        cfg = example2_config()
        records = [
            TrialRecord(
                step=1,
                true_state=np.array([0.0, 0.0, 0.0, 0.0]),
                measurement=np.zeros(4),
                skf_center=np.zeros(4),
                skf_cov=np.eye(4),
                skf_shape=np.eye(4),
                ekf_state=np.zeros(4),
                ekf_cov=np.eye(4),
                beta_star=1.0,
                skf_dist=0.0,
                ekf_dist=0.0,
            )
        ] * 3
        assert detect_crossing(records, cfg.stations) is None


class TestSensitivity:
    def test_zero_scale_collapses_bounds(self):
        cfg = example2_config(trials=1, steps=60)
        rows = sensitivity_sweep(cfg, [0.0])
        assert rows[0]["max_semi_axis"] < 1e-2

    def test_monotone_and_order_of_magnitude(self):
        cfg = example2_config(trials=1, steps=120)
        rows = sensitivity_sweep(cfg, [1.0, 10.0])
        assert rows[1]["max_semi_axis"] > rows[0]["max_semi_axis"]
        ratio = rows[1]["max_semi_axis"] / rows[0]["max_semi_axis"]
        assert 7.0 <= ratio <= 13.0

    def test_scaled_config_scales_quadratically(self):
        cfg = example2_config()
        scaled = scaled_config(cfg, 10.0)
        assert np.allclose(scaled.ubb_meas_shape, 100.0 * cfg.ubb_meas_shape)
        assert np.allclose(
            scaled.ubb_process_shapes[0], 100.0 * cfg.ubb_process_shapes[0]
        )

    def test_negative_scale_rejected(self):
        for scale in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                scaled_config(example2_config(), scale)


class TestParallelism:
    def test_worker_pool_matches_serial(self):
        cfg = example1_config(trials=3, steps=8)
        serial = run_trials(cfg, workers=1)
        parallel = run_trials(cfg, workers=2)
        for a, b in zip(serial, parallel):
            for ra, rb in zip(a, b):
                assert np.array_equal(ra.skf_center, rb.skf_center)
                assert ra.beta_star == rb.beta_star
