"""Benchmark experiment tests."""

import dataclasses
import pickle

import numpy as np
import pytest

import skf.experiments
from skf.experiments import (
    Trial,
    aggregate,
    build_model,
    detect_crossing,
    example1_config,
    example2_config,
    ex2_nominal_kicks,
    input_vector,
    run_trial,
    run_trials,
    scaled_config,
    sensitivity_sweep,
    simulate_truth,
    transition_matrix,
    uniform_in_ellipsoid,
)
from skf.filter import FilterConfig, StateBelief, skf_predict, skf_update
from skf.model import linearize_measurement, linearize_process


def noiseless(cfg):
    zero = np.zeros_like(cfg.process_cov)
    return dataclasses.replace(
        cfg,
        process_cov=zero,
        ubb_process_shapes=tuple(np.zeros_like(s) for s in cfg.ubb_process_shapes),
        meas_cov=np.zeros_like(cfg.meas_cov),
        ubb_meas_shape=np.zeros_like(cfg.ubb_meas_shape),
    )


def make_trial(steps=1, n=1, **fields):
    """A Trial of zero tracks and unit matrices; ``fields`` replace columns."""
    eyes = np.tile(np.eye(n), (steps, 1, 1))
    columns = dict(
        true_state=np.zeros((steps, n)),
        measurement=np.zeros((steps, n)),
        skf_center=np.zeros((steps, n)),
        skf_cov=eyes,
        skf_shape=eyes,
        ekf_state=np.zeros((steps, n)),
        ekf_cov=eyes,
        beta_star=np.ones(steps),
        skf_dist=np.zeros(steps),
        ekf_dist=np.zeros(steps),
    )
    columns.update({name: np.asarray(v, dtype=float) for name, v in fields.items()})
    return Trial(**columns)


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
        # an initial belief of a consistent size still has to fit the model
        with pytest.raises(ValueError, match="x0"):
            dataclasses.replace(example1_config(), x0=[0.1, 0.1], cov0=np.eye(2), shape0=np.eye(2))

    @pytest.mark.parametrize("make", [example1_config, example2_config])
    def test_pickled_config_carries_an_equal_model(self, make):
        cfg = make()
        copy = pickle.loads(pickle.dumps(cfg))
        x = cfg.x0 + 0.3
        u = input_vector(cfg, 1)
        for linearize, args in ((linearize_process, (x, u, 1)), (linearize_measurement, (x, 1))):
            ours, theirs = linearize(cfg.model, *args), linearize(copy.model, *args)
            for name, a in vars(ours).items():
                b = getattr(theirs, name)
                assert (a is None and b is None) or np.array_equal(a, b), name

    @pytest.mark.parametrize("make", [example1_config, example2_config])
    def test_equal_configs_compare_equal(self, make):
        cfg = make()
        assert cfg == make()
        assert cfg == pickle.loads(pickle.dumps(cfg))
        assert not cfg != make()

    def test_configs_differing_in_one_matrix_entry_compare_unequal(self):
        cfg = example2_config()
        shape = cfg.ubb_meas_shape.copy()
        shape[3, 3] *= 2.0
        other = dataclasses.replace(cfg, ubb_meas_shape=shape)
        assert cfg != other
        assert not cfg == other
        assert example1_config() != cfg


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

    def test_scalar_covariances_count_as_1x1(self):
        cfg = example1_config(steps=5)
        scalars = dataclasses.replace(cfg, process_cov=1.0, meas_cov=1.0)
        a = simulate_truth(cfg, np.random.default_rng([5, 0]))
        b = simulate_truth(scalars, np.random.default_rng([5, 0]))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


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
        trial = run_trial(cfg, 0)
        assert np.all(np.abs(trial.skf_dist - trial.ekf_dist) < 1e-9)

    def test_records_are_complete(self):
        cfg = example1_config(steps=5)
        trial = run_trial(cfg, 0)
        states, meas = simulate_truth(cfg, np.random.default_rng([cfg.seed, 0]))
        assert np.array_equal(trial.true_state, states[1:])
        assert np.array_equal(trial.measurement, meas)
        for name in ("skf_center", "ekf_state"):
            assert getattr(trial, name).shape == (5, 1)
        for name in ("skf_cov", "skf_shape", "ekf_cov"):
            assert getattr(trial, name).shape == (5, 1, 1)
        assert np.all(trial.beta_star > 0)
        assert np.all(trial.skf_dist >= 0) and np.all(trial.ekf_dist >= 0)
        assert trial.skf_dist[-1] == np.linalg.norm(trial.skf_center[-1] - states[-1])

    def test_shapes_stay_psd_over_run(self):
        cfg = example1_config(steps=50)
        trial = run_trial(cfg, 0)
        assert np.linalg.eigvalsh(trial.skf_shape)[:, 0].min() >= 0.0
        assert np.linalg.eigvalsh(trial.skf_cov)[:, 0].min() > 0.0
        assert np.isfinite(np.linalg.norm(trial.skf_dist))

    def test_deterministic_records(self):
        cfg = example1_config(steps=10)
        a = run_trial(cfg, 3)
        b = run_trial(cfg, 3)
        for field in dataclasses.fields(Trial):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name))

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
        x, factor = np.array([0.0]), np.array([[2.0]])  # the EKF's covariance factor
        first = abs(belief.center[0] - truth[0])
        for k in range(1, 20):
            truth = f_mat @ truth
            y = truth.copy()
            prior = skf_predict(belief, model, np.zeros(1), k)
            belief, _ = skf_update(prior, y, model, m_cfg, k)
            x, factor = ekf_step(x, factor, np.zeros(1), y, model, k)
        assert abs(belief.center[0] - truth[0]) < 0.05 * first
        assert abs(x[0] - truth[0]) < 0.05 * first

    def test_beta_searches_stay_short(self, monkeypatch):
        # the linear-fractional step: at most 7 cost evaluations per search on
        # example1 and 9 on example2 (the two ends count)
        evals = []

        def recording_update(*args):
            posterior, report = skf_update(*args)
            evals.append(report.evals)
            return posterior, report

        monkeypatch.setattr(skf.experiments, "skf_update", recording_update)
        run_trials(example1_config(trials=10))
        assert len(evals) == 500 and max(evals) <= 7
        evals.clear()
        run_trial(example2_config(trials=1, eta=0.5), 0)
        assert len(evals) == 300 and max(evals) <= 9


class TestAggregate:
    def test_l2_of_three_four(self):
        summary = aggregate([make_trial(2, skf_dist=[3.0, 4.0], ekf_dist=[3.0, 4.0])])
        assert summary["skf_l2"][0] == pytest.approx(5.0)

    def test_win_rate(self):
        summary = aggregate(
            [
                make_trial(skf_dist=[1.0], ekf_dist=[2.0]),
                make_trial(skf_dist=[3.0], ekf_dist=[2.0]),
            ]
        )
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
        ys = [90.0, 95.0, 99.0, 101.0, 110.0]
        trial = make_trial(5, 4, true_state=[[50.0, y, 0.0, 7.0] for y in ys])
        assert detect_crossing(trial, cfg.stations) == 4

    def test_no_crossing(self):
        cfg = example2_config()
        assert detect_crossing(make_trial(3, 4), cfg.stations) is None


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

    def test_scaled_config_model_serves_scaled_shapes(self):
        cfg = example2_config()
        model = scaled_config(cfg, 10.0).model
        assert np.array_equal(model.ubb_meas_shape, 100.0 * cfg.model.ubb_meas_shape)
        assert np.array_equal(model.ubb_process_shapes[0], 100.0 * cfg.model.ubb_process_shapes[0])

    def test_negative_scale_rejected(self):
        for scale in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                scaled_config(example2_config(), scale)


class TestParallelism:
    def test_worker_pool_matches_serial(self):
        cfg = example1_config(trials=3, steps=8)
        serial = run_trials(cfg, workers=1)
        parallel = run_trials(cfg, workers=2)
        assert len(serial) == len(parallel) == 3
        for a, b in zip(serial, parallel):
            for field in dataclasses.fields(Trial):
                assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trials_build_no_model(self, monkeypatch, workers):
        # forked workers inherit the patch, so a build there raises in the pool's caller
        calls = []

        def build_model(cfg):
            calls.append(cfg)
            raise AssertionError("build_model called while running trials")

        cfg = example1_config(trials=2, steps=3)
        monkeypatch.setattr(skf.experiments, "build_model", build_model)
        assert len(run_trials(cfg, workers=workers)) == 2
        assert calls == []
