"""Model and linearization tests."""

import dataclasses
import math
import re

import numpy as np
import pytest

from skf.experiments import example1_config, example2_config, build_model
from skf.model import (
    AnalyticJacobians,
    ModelEvaluationError,
    NonlinearModel,
    central_jacobian,
    linearize_measurement,
    linearize_process,
    wrap_angles,
)


def linear_model(f_mat, noise_dim=None):
    n = f_mat.shape[0]
    noise_dim = noise_dim or n
    return NonlinearModel(
        state_dim=n,
        input_dim=n,
        meas_dim=n,
        f=lambda x, u, w, a, k: f_mat @ x + u + w,
        h=lambda x, v, b, k: x + v + b,
        process_noise_cov=np.eye(noise_dim),
        ubb_process_shapes=(),
        meas_noise_cov=np.eye(n),
        ubb_meas_shape=np.eye(n),
    )


class TestLinearizeProcess:
    def test_linear_system_is_exact(self):
        f_mat = np.array([[0.9, 0.1], [0.0, 0.8]])
        m = linear_model(f_mat)
        u = np.array([0.3, -0.2])
        lin = linearize_process(m, np.array([1.0, 2.0]), u, k=1)
        assert np.allclose(lin.f_x, f_mat, atol=1e-8)
        assert np.allclose(lin.f_w, np.eye(2), atol=1e-8)

    def test_benchmark_slope_at_origin(self):
        # finite differences must agree with the analytic derivative 25.5
        cfg = example1_config()
        m = build_model(cfg)
        u = np.array([0.0])
        lin = linearize_process(m, np.array([0.0]), u, k=1)
        assert lin.f_x[0, 0] == pytest.approx(25.5, abs=1e-9)
        bare = NonlinearModel(
            state_dim=1,
            input_dim=1,
            meas_dim=1,
            f=m.f,
            h=m.h,
            process_noise_cov=np.eye(1),
            ubb_process_shapes=(np.eye(1),),
            meas_noise_cov=np.eye(1),
            ubb_meas_shape=np.eye(1),
        )
        lin_fd = linearize_process(bare, np.array([0.0]), u, k=1)
        assert lin_fd.f_x[0, 0] == pytest.approx(25.5, abs=1e-6)

    def test_additive_disturbance_jacobian_is_identity(self):
        cfg = example1_config()
        m = build_model(cfg)
        lin = linearize_process(m, np.array([0.7]), np.array([1.0]), k=3)
        assert np.allclose(lin.f_a[0], np.eye(1))

    def test_non_finite_value_raises(self):
        m = NonlinearModel(
            state_dim=1,
            input_dim=1,
            meas_dim=1,
            f=lambda x, u, w, a, k: np.array([np.inf]),
            h=lambda x, v, b, k: x,
            process_noise_cov=np.eye(1),
            ubb_process_shapes=(),
            meas_noise_cov=np.eye(1),
            ubb_meas_shape=np.eye(1),
        )
        with pytest.raises(ModelEvaluationError):
            linearize_process(m, np.zeros(1), np.zeros(1), k=4)

    def test_input_of_wrong_size_rejected(self):
        m = build_model(example1_config())
        with pytest.raises(ValueError, match="input has dimension 2, expected 1"):
            linearize_process(m, np.zeros(1), np.zeros(2), k=1)


# a constant that breaks the matrix rule, and the start of its message
BAD_CONSTANTS = [
    pytest.param(
        {"ubb_process_shapes": (np.eye(1), np.array([[-9.0]]))},
        "ubb_process_shapes[1]: matrix is not PSD",
        id="ubb_process_shapes",
    ),
    pytest.param(
        {"meas_noise_cov": np.array([[-1.0]])},
        "meas_noise_cov: matrix is not PSD",
        id="meas_noise_cov",
    ),
    pytest.param(
        {"process_noise_cov": np.array([[1.0, 0.5], [0.0, 1.0]])},
        "process_noise_cov: matrix asymmetry",
        id="process_noise_cov",
    ),
    pytest.param(
        {"ubb_meas_shape": np.array([[np.nan]])},
        "ubb_meas_shape: matrix has non-finite",
        id="ubb_meas_shape",
    ),
    pytest.param(
        {"meas_noise_cov": np.ones((2, 1, 1))},
        "meas_noise_cov: shape matrix must be square",
        id="meas_noise_cov-stack",
    ),
    pytest.param(
        {"ubb_process_shapes": (np.eye(1), np.eye(1)), "jacobians": AnalyticJacobians(f_a=[1.0])},
        "ubb_process_shapes: 2 shapes, but f_a has 1",
        id="ubb_process_shapes-beyond-f_a",
    ),
    pytest.param(
        {"meas_noise_cov": [[1.0], [1.0, 2.0]]},
        "meas_noise_cov: setting an array element with a sequence",
        id="meas_noise_cov-ragged",
    ),
]


class TestConstantMatrices:
    @pytest.mark.parametrize("fields, message", BAD_CONSTANTS)
    def test_rejected_at_construction(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(linear_model(np.eye(1)), **fields)

    def test_callable_is_kept_unchecked(self):
        # the filter checks a provider's values when it uses them
        provider = lambda k: np.array([[-9.0]])  # noqa: E731
        m = dataclasses.replace(linear_model(np.eye(1)), ubb_meas_shape=provider)
        assert m.ubb_meas_shape is provider


class TestConstantJacobians:
    def test_nested_list_is_served_as_stored_2d_array(self):
        jac = AnalyticJacobians(f_w=[[2.0]], h_b=[[3.0]])
        m = dataclasses.replace(linear_model(np.eye(1)), jacobians=jac)
        f_w = linearize_process(m, np.zeros(1), np.zeros(1), 1).f_w
        assert isinstance(f_w, np.ndarray) and f_w.shape == (1, 1) and f_w[0, 0] == 2.0
        assert linearize_process(m, np.ones(1), np.zeros(1), 2).f_w is f_w
        assert linearize_measurement(m, np.zeros(1), 1).h_b is m.jacobians.h_b

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"h_b": [[np.nan]]}, "h_b"),
            ({"f_x": np.ones((2, 1, 1))}, "f_x"),
            ({"f_a": (np.eye(1), np.ones((1, 1, 1)))}, "f_a[1]"),
            ({"h_v": [[1.0], [1.0, 2.0]]}, "h_v"),
        ],
    )
    def test_bad_constant_rejected_at_construction(self, fields, name):
        with pytest.raises(ValueError, match=re.escape(f"{name}:")):
            AnalyticJacobians(**fields)


class TestLinearizeMeasurement:
    def test_linear_measurement_has_zero_remainder(self):
        m = linear_model(np.eye(2))
        lin = linearize_measurement(m, np.array([1.0, -2.0]), k=1)
        assert np.allclose(lin.h_x, np.eye(2), atol=1e-8)

    def test_benchmark_measurement_at_two(self):
        cfg = example1_config()
        m = build_model(cfg)
        lin = linearize_measurement(m, np.array([2.0]), k=1)
        assert lin.h_x[0, 0] == pytest.approx(0.2, abs=1e-12)

    def test_range_gradient_along_axis(self):
        cfg = example2_config()
        import dataclasses

        cfg = dataclasses.replace(cfg, stations=((0.0, 0.0), (150.0, 100.0)))
        m = build_model(cfg)
        lin = linearize_measurement(m, np.array([100.0, 0.0, 0.0, 0.0]), k=1)
        assert np.allclose(lin.h_x[0], [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_noise_jacobians_identity_for_additive_noise(self):
        cfg = example2_config()
        m = build_model(cfg)
        lin = linearize_measurement(m, np.array([5.0, 7.0, 1.0, 0.0]), k=1)
        assert np.allclose(lin.h_v, np.eye(4))
        assert np.allclose(lin.h_b, np.eye(4))
        assert np.allclose(lin.meas_noise_factor @ lin.meas_noise_factor.T, cfg.meas_cov)
        assert np.allclose(lin.meas_ubb_factor @ lin.meas_ubb_factor.T, cfg.ubb_meas_shape)


class TestJacobianAgreement:
    @pytest.mark.parametrize("which", ["example1", "example2"])
    def test_analytic_vs_finite_difference(self, which):
        cfg = example1_config() if which == "example1" else example2_config()
        m = build_model(cfg)
        bare = NonlinearModel(
            state_dim=m.state_dim,
            input_dim=m.input_dim,
            meas_dim=m.meas_dim,
            f=m.f,
            h=m.h,
            process_noise_cov=m.process_noise_cov,
            ubb_process_shapes=m.ubb_process_shapes,
            meas_noise_cov=m.meas_noise_cov,
            ubb_meas_shape=m.ubb_meas_shape,
            angular_mask=m.angular_mask,
        )
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = 10.0 * rng.standard_normal(m.state_dim)
            if which == "example2":
                x[:2] += np.array([40.0, -30.0])  # keep away from the stations
            u = rng.standard_normal(m.input_dim)
            la = linearize_process(m, x, u, k=1)
            lf = linearize_process(bare, x, u, k=1)
            assert np.allclose(la.f_x, lf.f_x, rtol=1e-5, atol=1e-7)
            la_m = linearize_measurement(m, x, k=1)
            lf_m = linearize_measurement(bare, x, k=1)
            assert np.allclose(la_m.h_x, lf_m.h_x, rtol=1e-5, atol=1e-7)

    def test_first_order_remainder_shrinks_quadratically(self):
        cfg = example1_config()
        m = build_model(cfg)
        x0 = np.array([1.7])
        u = np.array([0.5])
        lin = linearize_process(m, x0, u, k=1)
        f0 = m.f(x0, u, np.zeros(1), [np.zeros(1)], 1)

        def remainder(dx):
            exact = m.f(x0 + dx, u, np.zeros(1), [np.zeros(1)], 1)
            approx = f0 + lin.f_x @ dx
            return float(np.linalg.norm(exact - approx))

        r1 = remainder(np.array([0.2]))
        r2 = remainder(np.array([0.1]))
        assert r1 / r2 >= 3.5


class TestCentralJacobian:
    def test_quadratic_is_exact_to_roundoff(self):
        jac = central_jacobian(lambda x: np.array([x[0] ** 2, x[0] * x[1]]), np.array([2.0, 3.0]))
        assert np.allclose(jac, [[4.0, 0.0], [3.0, 2.0]], atol=1e-6)


class TestWrapAngles:
    def test_wraps_into_half_open_interval(self):
        mask = np.array([True])
        assert wrap_angles(np.array([math.pi]), mask)[0] == pytest.approx(math.pi)
        assert wrap_angles(np.array([-math.pi]), mask)[0] == pytest.approx(math.pi)
        assert wrap_angles(np.array([3 * math.pi + 0.1]), mask)[0] == pytest.approx(
            math.pi + 0.1 - 2 * math.pi
        )

    def test_unmasked_components_untouched(self):
        out = wrap_angles(np.array([10.0, 10.0]), np.array([False, True]))
        assert out[0] == 10.0
        assert out[1] == pytest.approx(10.0 - 4 * math.pi)

    def test_none_mask_is_identity(self):
        r = np.array([5.0, -7.0])
        assert wrap_angles(r, None) is r
