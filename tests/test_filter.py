"""Filter recursion tests.

Grid oracles, finite differences, and closed forms supply the expected
values; the spec of the gain/update arithmetic is exercised on scalar
cases small enough to verify by hand.
"""

import dataclasses

import numpy as np
import pytest

from skf.experiments import (
    build_model,
    example1_config,
    example2_config,
    input_vector,
    simulate_truth,
)
from skf.filter import (
    FilterConfig,
    FilterError,
    GainReport,
    NumericsError,
    SingularInnovationError,
    StateBelief,
    _update_terms,
    ekf_step,
    skf_gain,
    skf_predict,
    skf_update,
)
from skf.model import AnalyticJacobians, Linearization, NonlinearModel, linearize_measurement
from skf.validation import gain_cost, random_spd, random_update_setup


def scalar_linearization(h=1.0, cz=1.0, sz=1.0):
    return Linearization(
        h_x=np.array([[h]]),
        h_v=np.eye(1),
        h_b=np.eye(1),
        meas_noise_cov=np.array([[cz]]),
        meas_ubb_shape=np.array([[sz]]),
    )


def scalar_model(sz=4.0):
    return NonlinearModel(
        state_dim=1,
        input_dim=1,
        meas_dim=1,
        f=lambda x, u, w, a, k: x + u + w + (a[0] if a else 0.0),
        h=lambda x, v, b, k: x + v + b,
        process_noise_cov=np.eye(1),
        ubb_process_shapes=(np.eye(1),),
        meas_noise_cov=np.eye(1),
        ubb_meas_shape=np.array([[sz]]),
    )


# Scalar update set-ups, one per regime: (prior cov, prior shape, eta, S_z).
REGIME_SETUPS = {
    "interior": (2.0, 1.0, 0.5, 1.0),
    "beta_to_zero": (0.01, 100.0, 0.5, 1.0),
    "beta_to_inf": (0.01, 0.01, 0.5, 1.0),
    "eta_zero": (2.0, 1.0, 0.0, 1.0),
    "single_set": (2.0, 1.0, 0.5, 0.0),
}


def production_cost(belief, lin, cfg):
    """Mirror of the update's search objective (pure pair formula).

    Returns (J, up, down) with the envelope slope dJ/dlog(beta) = up - down.
    """

    def cost(beta):
        gain = skf_gain(belief, lin, cfg, beta)
        cov_plus, t_prior, t_meas = _update_terms(belief, lin, gain)
        tr_prior, tr_meas = float(np.trace(t_prior)), float(np.trace(t_meas))
        tr_shape = (1 + 1 / beta) * tr_prior + (1 + beta) * tr_meas
        value = (1 - cfg.eta) * float(np.trace(cov_plus)) + cfg.eta * tr_shape
        return value, cfg.eta * beta * tr_meas, cfg.eta * tr_prior / beta

    return cost


class TestStateBelief:
    def test_validation(self):
        with pytest.raises(ValueError, match="asymmetry"):
            StateBelief([0.0, 0.0], [[1.0, 1e-3], [0.0, 1.0]], np.eye(2), "prior", 0)
        with pytest.raises(ValueError, match="positive-definite"):
            StateBelief([0.0], [[0.0]], [[1.0]], "prior", 0)
        with pytest.raises(ValueError, match="kind"):
            StateBelief([0.0], [[1.0]], [[1.0]], "smoothed", 0)
        with pytest.raises(ValueError, match="expected 2x2"):
            StateBelief([0.0, 0.0], np.eye(3), np.eye(2), "prior", 0)
        with pytest.raises(ValueError, match="shape"):
            StateBelief([0.0, 0.0], np.eye(2), np.diag([1.0, -1.0]), "prior", 0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="cov: matrix has non-finite"):
                StateBelief([0.0], [[bad]], [[1.0]], "prior", 0)
            with pytest.raises(ValueError, match="shape: matrix has non-finite"):
                StateBelief([0.0], [[1.0]], [[bad]], "prior", 0)
            with pytest.raises(ValueError, match="center has non-finite"):
                StateBelief([bad], [[1.0]], [[1.0]], "prior", 0)
        # a scalar state takes a 1-D cov, and a caller's tiny cov is kept as given
        assert StateBelief([0.0], [2.0], [[1.0]], "prior", 0).cov.tolist() == [[2.0]]
        assert StateBelief([0.0], [[1e-16]], [[1.0]], "prior", 0).cov[0, 0] == 1e-16

    def test_mean_set(self):
        b = StateBelief([1.0], [[2.0]], [[4.0]], "posterior", 3)
        e = b.mean_set()
        assert e.center[0] == 1.0
        assert e.shape[0, 0] == 4.0


class TestFilterConfig:
    def test_eta_bounds(self):
        for bad in (1.5, -0.1, True, "0.5"):
            with pytest.raises(ValueError):
                FilterConfig(eta=bad)


class TestPredict:
    def test_scalar_linear_covariance(self):
        m = scalar_model()
        belief = StateBelief([0.0], [[1.0]], [[1e-12]], "posterior", 0)
        prior = skf_predict(belief, m, np.zeros(1), 1)
        assert prior.cov[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert prior.kind == "prior"
        assert prior.step == 1

    def test_scalar_interval_sum_is_exact(self):
        # [-1, 1] + [-1, 1] = [-2, 2]: shape 4
        m = scalar_model()
        belief = StateBelief([0.0], [[1.0]], [[1.0]], "posterior", 0)
        prior = skf_predict(belief, m, np.zeros(1), 1)
        assert prior.shape[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_two_dim_pair_matches_grid_oracle(self):
        m = NonlinearModel(
            state_dim=2,
            input_dim=2,
            meas_dim=2,
            f=lambda x, u, w, a, k: x + u + w + a[0],
            h=lambda x, v, b, k: x + v + b,
            process_noise_cov=np.eye(2),
            ubb_process_shapes=(np.eye(2),),
            meas_noise_cov=np.eye(2),
            ubb_meas_shape=np.eye(2),
        )
        belief = StateBelief(np.zeros(2), np.eye(2), np.diag([4.0, 1.0]), "posterior", 0)
        prior = skf_predict(belief, m, np.zeros(2), 1)
        betas = np.logspace(-3, 3, 100_000)
        traces = (1 + 1 / betas) * 5.0 + (1 + betas) * 2.0
        assert np.trace(prior.shape) <= float(traces.min()) + 1e-5
        assert np.allclose(np.diag(prior.shape), [9.11096096, 4.21359436], atol=1e-7)

    def test_center_uses_full_nonlinear_map(self):
        cfg = example1_config()
        m = build_model(cfg)
        belief = StateBelief([0.1], [[2.0]], [[1e-3]], "posterior", 0)
        prior = skf_predict(belief, m, input_vector(cfg, 1), 1)
        assert prior.center[0] == pytest.approx(10.525247524752475, abs=1e-12)

    def test_requires_posterior(self):
        m = scalar_model()
        belief = StateBelief([0.0], [[1.0]], [[1.0]], "prior", 0)
        with pytest.raises(ValueError, match="posterior"):
            skf_predict(belief, m, np.zeros(1), 1)


class TestGain:
    def test_eta_zero_is_ekf_gain(self):
        belief = StateBelief([0.0], [[2.0]], [[1.0]], "prior", 1)
        lin = scalar_linearization()
        cfg = FilterConfig(eta=0.0)
        for beta in (0.1, 1.0, 10.0):
            gain = skf_gain(belief, lin, cfg, beta)
            assert gain[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_eta_one_scalar(self):
        belief = StateBelief([0.0], [[1.0]], [[1.0]], "prior", 1)
        lin = scalar_linearization()
        gain = skf_gain(belief, lin, FilterConfig(eta=1.0), beta=1.0)
        assert gain[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_nonpositive_beta_rejected(self):
        belief = StateBelief([0.0], [[1.0]], [[1.0]], "prior", 1)
        with pytest.raises(ValueError, match="beta"):
            skf_gain(belief, scalar_linearization(), FilterConfig(), 0.0)

    def test_singular_bracket_reports_condition(self):
        belief = StateBelief([0.0], [[1.0]], [[0.0 + 1e-13]], "prior", 1)
        lin = Linearization(
            h_x=np.array([[0.0]]),
            h_v=np.array([[0.0]]),
            h_b=np.array([[0.0]]),
            meas_noise_cov=np.eye(1),
            meas_ubb_shape=np.eye(1),
        )
        with pytest.raises(SingularInnovationError):
            skf_gain(belief, lin, FilterConfig(eta=0.5), 1.0)

    def test_stationarity_by_finite_differences(self):
        # central differences on the explicit cost must vanish at the gain
        rng = np.random.default_rng(20)
        for _ in range(25):
            belief, lin = random_update_setup(rng)
            eta = float(rng.choice([0.25, 0.5, 0.75]))
            beta = float(np.exp(rng.uniform(-1.5, 1.5)))
            gain = skf_gain(belief, lin, FilterConfig(eta=eta), beta)

            def cost(k_mat):
                return gain_cost(
                    k_mat, beta, eta, belief.cov, belief.shape,
                    lin.meas_noise_cov, lin.meas_ubb_shape,
                    lin.h_x, lin.h_v, lin.h_b,
                )

            def fd_grad(at):
                grad = np.zeros_like(at)
                for idx in np.ndindex(at.shape):
                    h = 1e-6 * max(1.0, abs(at[idx]))
                    kp, km = at.copy(), at.copy()
                    kp[idx] += h
                    km[idx] -= h
                    grad[idx] = (cost(kp) - cost(km)) / (2 * h)
                return grad

            rel = np.linalg.norm(fd_grad(gain)) / np.linalg.norm(
                fd_grad(np.zeros_like(gain))
            )
            assert rel < 1e-6


class TestUpdate:
    def test_eta_zero_scalar_arithmetic(self):
        m = scalar_model()
        prior = StateBelief([0.0], [[2.0]], [[1e-15]], "prior", 1)
        post, report = skf_update(prior, np.array([3.0]), m, FilterConfig(eta=0.0), 1)
        assert post.center[0] == pytest.approx(2.0, abs=1e-12)
        assert post.cov[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert report.beta_star == 1.0
        assert post.kind == "posterior"

    def test_eta_half_scalar_matches_grid(self):
        # frozen oracle: dense two-stage log-grid argmin of the same cost
        # for C- = 2, S- = 1, Cz = Sz = 1 lands at beta = 0.5, J = 5/6
        m = scalar_model(sz=1.0)
        prior = StateBelief([0.0], [[2.0]], [[1.0]], "prior", 1)
        cfg = FilterConfig(eta=0.5)
        post, report = skf_update(prior, np.array([0.0]), m, cfg, 1)
        assert report.beta_star == pytest.approx(0.5, abs=1e-6)
        assert report.cost_at_star == pytest.approx(5.0 / 6.0, abs=1e-9)
        assert report.gain[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_eta_one_tiny_measurement_set(self):
        # with a nearly point measurement set the gain collapses to the
        # shape-only pseudo gain and the posterior shape follows the pair
        # formula at the chosen beta
        m = scalar_model(sz=1e-9)
        prior = StateBelief([0.0], [[1.0]], [[1.0]], "prior", 1)
        post, report = skf_update(prior, np.array([0.5]), m, FilterConfig(eta=1.0), 1)
        gain = report.gain[0, 0]
        assert gain == pytest.approx(1.0, abs=1e-6)  # S H^T (H S H^T)^{-1}
        # the squeezed prior term all but vanishes, so the bound is the mapped
        # measurement set, inflated by 1 + beta with beta = e^-20
        assert post.shape[0, 0] == pytest.approx(gain**2 * 1e-9, rel=1e-9)
        assert post.shape[0, 0] < 1e-7  # squeezed to the measurement-set scale

    def test_local_minimality_of_report(self):
        m = scalar_model(sz=1.0)
        prior = StateBelief([0.0], [[2.0]], [[1.0]], "prior", 1)
        cfg = FilterConfig(eta=0.5)
        lin = linearize_measurement(m, prior.center, 1)
        cost = production_cost(prior, lin, cfg)
        _, report = skf_update(prior, np.array([0.0]), m, cfg, 1)
        assert report.cost_at_star <= cost(report.beta_star * 1.01)[0] + 1e-9
        assert report.cost_at_star <= cost(report.beta_star * 0.99)[0] + 1e-9

    def test_global_on_grid_for_random_configs(self):
        # In the asymptotic tails of the bracket the cost is flat and its
        # evaluation carries cancellation noise well above 1e-9, so the
        # tight comparison is made where it is numerically meaningful:
        # configurations whose minimizer is interior.
        from skf.optimizer import ScalarProblem, minimize_scalar

        rng = np.random.default_rng(21)
        interior = 0
        for _ in range(15):
            n = int(rng.integers(1, 4))
            belief = StateBelief(
                rng.standard_normal(n), random_spd(rng, n), random_spd(rng, n), "prior", 1
            )
            lin = Linearization(
                h_x=rng.standard_normal((n, n)) + 2 * np.eye(n),
                h_v=np.eye(n),
                h_b=np.eye(n),
                meas_noise_cov=random_spd(rng, n),
                meas_ubb_shape=random_spd(rng, n),
            )
            cfg = FilterConfig(eta=0.5)
            cost = production_cost(belief, lin, cfg)
            beta_star, value, _, _ = minimize_scalar(ScalarProblem(objective=cost))
            if not (1e-5 < beta_star < 1e5):
                continue
            interior += 1
            for beta in np.exp(np.linspace(-20, 20, 1000)):
                assert value <= cost(beta)[0] + 1e-9
        assert interior >= 10

    def test_envelope_identity_at_optimum(self):
        # at the optimum the chosen beta equals sqrt(M/N) evaluated at the
        # returned gain
        rng = np.random.default_rng(22)
        for _ in range(15):
            belief, lin = random_update_setup(rng, n=3, m=3)
            cfg = FilterConfig(eta=0.5)
            cost = production_cost(belief, lin, cfg)
            from skf.optimizer import ScalarProblem, minimize_scalar

            beta_star, _, _, _ = minimize_scalar(ScalarProblem(objective=cost))
            if not (1e-6 < beta_star < 1e6):
                continue  # flat tail: identity ill-conditioned
            gain = skf_gain(belief, lin, cfg, beta_star)
            _, t_prior, t_meas = _update_terms(belief, lin, gain)
            ratio = np.sqrt(np.trace(t_prior) / np.trace(t_meas))
            assert beta_star == pytest.approx(ratio, rel=1e-5)

    def test_trace_bound_envelope(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            belief, lin = random_update_setup(rng, n=2, m=2)
            cfg = FilterConfig(eta=0.5)
            m = scalar_model()
            post_model = NonlinearModel(
                state_dim=2,
                input_dim=2,
                meas_dim=2,
                f=lambda x, u, w, a, k: x,
                h=lambda x, v, b, k: lin.h_x @ x + v + b,
                process_noise_cov=np.eye(2),
                ubb_process_shapes=(),
                meas_noise_cov=lin.meas_noise_cov,
                ubb_meas_shape=lin.meas_ubb_shape,
            )
            post, report = skf_update(
                belief, np.zeros(2), post_model, cfg, 1
            )
            _, t_prior, t_meas = _update_terms(belief,
                linearize_measurement(post_model, belief.center, 1), report.gain)
            m_tr, n_tr = np.trace(t_prior), np.trace(t_meas)
            bound = (np.sqrt(m_tr) + np.sqrt(n_tr)) ** 2
            assert report.trace_shape <= bound + 1e-9

    @pytest.mark.parametrize("regime", sorted(REGIME_SETUPS))
    def test_posterior_shape_formula(self, regime):
        # one inflation pair serves the gain and the shape: p T1 + q T2 with
        # (1 + 1/beta, 1 + beta) when both set terms are live, else 1 or 0
        cov, shape, eta, sz = REGIME_SETUPS[regime]
        prior = StateBelief([0.0], [[cov]], [[shape]], "prior", 1)
        post, report = skf_update(prior, np.array([1.0]), scalar_model(sz=sz), FilterConfig(eta), 1)
        assert report.regime == regime
        beta = report.beta_star
        p, q = (1.0, 0.0) if regime == "single_set" else (1 + 1 / beta, 1 + beta)
        k = report.gain[0, 0]
        expected = p * (1 - k) ** 2 * shape + q * k**2 * sz
        assert post.shape[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_zero_set_terms_collapse_shape(self):
        # no bounded uncertainty anywhere: shape recursion returns zero
        m = scalar_model(sz=0.0)
        prior = StateBelief([0.0], [[2.0]], [[0.0 + 1e-16]], "prior", 1)
        post, report = skf_update(prior, np.array([1.0]), m, FilterConfig(eta=0.5), 1)
        assert report.beta_star == 1.0
        assert post.shape[0, 0] == 0.0
        assert post.cov[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_zero_measurement_set_drops_inflation(self):
        # a point measurement set must not inflate the squeezed prior term
        m = scalar_model(sz=0.0)
        prior = StateBelief([0.0], [[2.0]], [[1.0]], "prior", 1)
        post, report = skf_update(prior, np.array([1.0]), m, FilterConfig(eta=0.5), 1)
        k = report.gain[0, 0]
        assert post.shape[0, 0] == pytest.approx((1 - k) ** 2 * 1.0, rel=1e-12)

    def test_measurement_dimension_checked(self):
        m = scalar_model()
        prior = StateBelief([0.0], [[1.0]], [[1.0]], "prior", 1)
        with pytest.raises(ValueError, match="dimension"):
            skf_update(prior, np.array([1.0, 2.0]), m, FilterConfig(), 1)

    def test_requires_prior(self):
        m = scalar_model()
        post = StateBelief([0.0], [[1.0]], [[1.0]], "posterior", 1)
        with pytest.raises(ValueError, match="prior"):
            skf_update(post, np.array([1.0]), m, FilterConfig(), 1)


class TestGainRegime:
    """``GainReport.regime`` and ``evals`` for each way beta is chosen."""

    def update(self, regime):
        cov, shape, eta, sz = REGIME_SETUPS[regime]
        prior = StateBelief([0.0], [[cov]], [[shape]], "prior", 1)
        _, report = skf_update(prior, np.array([0.5]), scalar_model(sz=sz), FilterConfig(eta), 1)
        return report

    def test_interior(self):
        report = self.update("interior")
        assert report.regime == "interior"
        assert report.beta_star == pytest.approx(0.5, abs=1e-6)
        assert report.evals >= 3

    def test_beta_to_zero(self):
        # a wide prior set against a tight measurement: trust the measurement
        report = self.update("beta_to_zero")
        assert report.regime == "beta_to_zero"
        assert report.beta_star == np.exp(-20.0)
        assert report.evals == 2

    def test_beta_to_inf(self):
        # a tight prior set against a wide measurement set: ignore the set
        report = self.update("beta_to_inf")
        assert report.regime == "beta_to_inf"
        assert report.beta_star == np.exp(20.0)
        assert report.evals == 2

    def test_eta_zero(self):
        report = self.update("eta_zero")
        assert (report.regime, report.evals, report.beta_star) == ("eta_zero", 0, 1.0)

    def test_single_set(self):
        report = self.update("single_set")
        assert (report.regime, report.evals, report.beta_star) == ("single_set", 0, 1.0)


class TestModelEvaluations:
    def test_maps_evaluated_once_per_step(self):
        # the linearization's values serve as predicted center and measurement,
        # and its matrices as the step's noise covariances and shapes
        calls = {"f": 0, "h": 0}
        providers = ("process_cov", "process_shape", "meas_cov", "meas_shape")

        def counted(name):
            calls[name] = 0

            def provider(k):
                calls[name] += 1
                return np.eye(1)

            return provider

        def f(x, u, w, a, k):
            calls["f"] += 1
            return 0.9 * x + u + w + a[0]

        def h(x, v, b, k):
            calls["h"] += 1
            return x**2 + v + b

        m = NonlinearModel(
            state_dim=1,
            input_dim=1,
            meas_dim=1,
            f=f,
            h=h,
            process_noise_cov=counted("process_cov"),
            ubb_process_shapes=(counted("process_shape"),),
            meas_noise_cov=counted("meas_cov"),
            ubb_meas_shape=counted("meas_shape"),
            jacobians=AnalyticJacobians(
                f_x=lambda x, u, k: 0.9 * np.eye(1),
                f_w=lambda x, u, k: np.eye(1),
                f_a=(lambda x, u, k: np.eye(1),),
                h_x=lambda x, k: np.atleast_2d(2.0 * x),
                h_v=lambda x, k: np.eye(1),
                h_b=lambda x, k: np.eye(1),
            ),
        )
        belief = StateBelief([1.0], [[1.0]], [[1.0]], "posterior", 0)
        x, p = np.array([1.0]), np.eye(1)
        steps = 5
        for k in range(1, steps + 1):
            prior = skf_predict(belief, m, np.array([0.1]), k)
            belief, _ = skf_update(prior, np.array([1.5]), m, FilterConfig(eta=0.5), k)
        assert calls == dict.fromkeys(("f", "h") + providers, steps)
        calls.update(dict.fromkeys(calls, 0))
        for k in range(1, steps + 1):
            x, p = ekf_step(x, p, np.array([0.1]), np.array([1.5]), m, k)
        assert calls == dict.fromkeys(("f", "h") + providers, steps)


NAN = np.array([[np.nan]])
# a scalar model with a NaN h_x, measurement-noise or process-noise provider
NAN_MODEL_FIELDS = [
    pytest.param({"jacobians": AnalyticJacobians(h_x=lambda x, k: NAN)}, id="h_x"),
    pytest.param({"meas_noise_cov": lambda k: NAN}, id="meas_noise_cov"),
    pytest.param({"process_noise_cov": lambda k: NAN}, id="process_noise_cov"),
]


class TestNonFiniteModel:
    @pytest.mark.parametrize("fields", NAN_MODEL_FIELDS)
    def test_skf_raises_filter_error_with_step(self, fields):
        m = dataclasses.replace(scalar_model(), **fields)
        belief = StateBelief([0.0], [[1.0]], [[1.0]], "posterior", 0)
        with pytest.raises(FilterError, match="step 3") as exc:
            prior = skf_predict(belief, m, np.zeros(1), 3)
            skf_update(prior, np.array([1.0]), m, FilterConfig(eta=0.5), 3)
        assert exc.value.step == 3

    @pytest.mark.parametrize("fields", NAN_MODEL_FIELDS)
    def test_ekf_raises_filter_error_with_step(self, fields):
        m = dataclasses.replace(scalar_model(), **fields)
        with pytest.raises(FilterError, match="step 3: EKF") as exc:
            ekf_step(np.zeros(1), np.eye(1), np.zeros(1), np.array([1.0]), m, 3)
        assert exc.value.step == 3


class TestEkf:
    def test_matches_textbook_kalman_recursion(self):
        rng = np.random.default_rng(24)
        f_mat = np.array([[0.9, 0.1], [0.0, 0.8]])
        h_mat = np.array([[1.0, 0.0]])
        q = np.diag([0.3, 0.2])
        r = np.array([[0.5]])
        m = NonlinearModel(
            state_dim=2,
            input_dim=2,
            meas_dim=1,
            f=lambda x, u, w, a, k: f_mat @ x + u + w,
            h=lambda x, v, b, k: h_mat @ x + v + b,
            process_noise_cov=q,
            ubb_process_shapes=(),
            meas_noise_cov=r,
            ubb_meas_shape=np.zeros((1, 1)),
        )
        x = np.zeros(2)
        p = np.eye(2)
        x_ref = x.copy()
        p_ref = p.copy()
        for k in range(1, 31):
            u = rng.standard_normal(2)
            y = rng.standard_normal(1)
            x, p = ekf_step(x, p, u, y, m, k)
            # textbook recursion
            x_pred = f_mat @ x_ref + u
            p_pred = f_mat @ p_ref @ f_mat.T + q
            s_inn = h_mat @ p_pred @ h_mat.T + r
            gain = p_pred @ h_mat.T @ np.linalg.inv(s_inn)
            x_ref = x_pred + gain @ (y - h_mat @ x_pred)
            p_ref = (np.eye(2) - gain @ h_mat) @ p_pred
            assert np.allclose(x, x_ref, atol=1e-12)
            assert np.allclose(p, p_ref, atol=1e-12)

    def test_measurement_dimension_checked(self):
        # a size-1 y would broadcast against example2's 4 measurement rows
        m = build_model(example2_config())
        x = np.array([1.0, 2.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="dimension 1, expected 4"):
            ekf_step(x, np.eye(4), np.zeros(0), np.array([1.0]), m, 3)

    def test_scalar_step_matches_eta_zero_numbers(self):
        m = scalar_model()
        x, p = ekf_step(np.array([0.0]), np.array([[1.0]]), np.zeros(1),
                        np.array([3.0]), m, 1)
        # predict: x = 0, P = 2; update with H = 1, R = 1: K = 2/3
        assert x[0] == pytest.approx(2.0, abs=1e-12)
        assert p[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_eta_zero_cross_implementation_50_steps(self):
        cfg = example1_config(eta=0.0)
        m = build_model(cfg)
        rng = np.random.default_rng([cfg.seed, 0])
        states, meas = simulate_truth(cfg, rng)
        fcfg = FilterConfig(eta=0.0)
        belief = StateBelief(cfg.x0, cfg.cov0, cfg.shape0, "posterior", 0)
        x, p = np.array(cfg.x0), np.array(cfg.cov0)
        for k in range(1, cfg.steps + 1):
            u = input_vector(cfg, k)
            prior = skf_predict(belief, m, u, k)
            belief, _ = skf_update(prior, meas[k - 1], m, fcfg, k)
            x, p = ekf_step(x, p, u, meas[k - 1], m, k)
            assert np.max(np.abs(belief.center - x)) < 1e-9
            assert np.max(np.abs(belief.cov - p)) < 1e-9


class TestNumericalHygiene:
    def test_cov_floor_lifts_eigmin(self):
        import skf.filter as flt

        floored = flt._condition(np.array([[1e-16]]), flt.COV_FLOOR, step=1, what="cov")
        assert floored[0, 0] >= flt.COV_FLOOR
        # shapes pass floor 0: a rounding-level negative eigenvalue is
        # shifted exactly to zero
        shape = np.array([[1.0, 0.0], [0.0, -1e-12]])
        lifted = flt._condition(shape, 0.0, step=1, what="shape")
        assert np.array_equal(lifted, shape - (-1e-12) * np.eye(2))

    @pytest.mark.parametrize("scale", [1e2, 1e4])
    def test_rank_deficient_prediction_is_conditioned_once(self, scale):
        # F C F^T is singular: its zero eigenvalue is lifted to 1.001 * COV_FLOOR,
        # far below the eps * |C| rounding of a second eigvalsh check.
        import skf.filter as flt

        f_mat = np.array([[1.0, 1.0], [1.0, 1.0]])
        m = NonlinearModel(
            state_dim=2,
            input_dim=2,
            meas_dim=2,
            f=lambda x, u, w, a, k: f_mat @ x + u + w,
            h=lambda x, v, b, k: x + v + b,
            process_noise_cov=np.zeros((2, 2)),
            ubb_process_shapes=(),
            meas_noise_cov=np.eye(2),
            ubb_meas_shape=np.eye(2),
            jacobians=AnalyticJacobians(
                f_x=lambda x, u, k: f_mat, f_w=lambda x, u, k: np.eye(2), f_a=()
            ),
        )
        cov0 = scale * np.eye(2)
        belief = StateBelief(np.zeros(2), cov0, np.eye(2), "posterior", 0)
        prior = skf_predict(belief, m, np.zeros(2), 1)
        assert np.array_equal(prior.cov, prior.cov.T)
        expected = flt._condition(f_mat @ cov0 @ f_mat.T, flt.COV_FLOOR, step=1, what="cov")
        assert np.array_equal(prior.cov, expected)

    def test_hygiene_violation_raises(self):
        import skf.filter as flt

        with pytest.raises(flt.NumericsError, match="asymmetry"):
            flt._condition(
                np.array([[1.0, 1e-8], [0.0, 1.0]]), flt.COV_FLOOR, step=4, what="cov"
            )
        with pytest.raises(flt.NumericsError, match="eigenvalue"):
            flt._condition(
                np.array([[1.0, 0.0], [0.0, -1e-8]]), 0.0, step=4, what="shape"
            )
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(flt.NumericsError, match="step 4: cov: matrix has non-finite"):
                flt._condition(np.array([[bad]]), flt.COV_FLOOR, step=4, what="cov")

    def test_bad_process_shape_provider_names_step_and_term(self):
        # a callable provider is checked where its value enters the predicted sum
        m = dataclasses.replace(scalar_model(), ubb_process_shapes=(lambda k: [[-9.0]],))
        belief = StateBelief([0.0], [[1.0]], [[1.0]], "posterior", 0)
        with pytest.raises(
            NumericsError, match=r"^step 3: predicted shape term 1: matrix is not PSD"
        ) as exc:
            skf_predict(belief, m, np.zeros(1), 3)
        assert exc.value.step == 3

    def test_spd_preserved_over_benchmark_run(self):
        cfg = example1_config()
        m = build_model(cfg)
        rng = np.random.default_rng([cfg.seed, 1])
        states, meas = simulate_truth(cfg, rng)
        belief = StateBelief(cfg.x0, cfg.cov0, cfg.shape0, "posterior", 0)
        fcfg = FilterConfig(eta=0.5)
        for k in range(1, cfg.steps + 1):
            prior = skf_predict(belief, m, input_vector(cfg, k), k)
            belief, _ = skf_update(prior, meas[k - 1], m, fcfg, k)
            for mat in (belief.cov, belief.shape):
                assert np.max(np.abs(mat - mat.T)) == 0.0
            assert np.linalg.eigvalsh(belief.cov)[0] > 1e-14
            assert np.linalg.eigvalsh(belief.shape)[0] >= 0.0

    def test_inner_beta_identity(self):
        # For fixed traces the minimizing beta is the square-root ratio.
        # Near a quadratic minimum a derivative-free search can localize the
        # argmin only to ~sqrt(machine eps) in relative terms, so the match
        # is asserted in log space at that scale.
        from skf.optimizer import ScalarProblem, minimize_scalar

        rng = np.random.default_rng(25)
        for _ in range(20):
            m_tr = float(rng.uniform(0.05, 20.0))
            n_tr = float(rng.uniform(0.05, 20.0))
            beta, value, _, _ = minimize_scalar(
                ScalarProblem(
                    objective=lambda b: ((1 + 1 / b) * m_tr + (1 + b) * n_tr, n_tr * b, m_tr / b)
                )
            )
            closed = np.sqrt(m_tr / n_tr)
            assert abs(np.log(beta) - np.log(closed)) < 1e-7
            assert value <= (np.sqrt(m_tr) + np.sqrt(n_tr)) ** 2 + 1e-9
