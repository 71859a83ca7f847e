"""Filter recursion tests.

Grid oracles, finite differences, and closed forms supply the expected
values; the spec of the gain/update arithmetic is exercised on scalar
cases small enough to verify by hand.
"""

import dataclasses
import re

import numpy as np
import pytest

import skf.filter as filter_module
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
    NumericsError,
    SingularInnovationError,
    StateBelief,
    _kink_tests,
    _solve,
    _update_terms,
    _UpdateContext,
    ekf_step,
    skf_gain,
    skf_predict,
    skf_update,
)
from skf.model import AnalyticJacobians, Linearization, NonlinearModel, linearize_measurement
from skf.optimizer import BRACKET, ScalarProblem
from skf.validation import gain_cost, random_spd, random_update_setup


def scalar_linearization(h=1.0, cz=1.0, sz=1.0):
    return factored_linearization(
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


def factored_linearization(meas_noise_cov, meas_ubb_shape, **fields):
    """A measurement ``Linearization`` whose noise factors are the matrices' Cholesky factors."""
    return Linearization(
        **fields,
        meas_noise_factor=np.linalg.cholesky(np.atleast_2d(meas_noise_cov)),
        meas_ubb_factor=np.linalg.cholesky(np.atleast_2d(meas_ubb_shape)),
    )


def noise_matrices(lin):
    """(C_z, S_z) of a linearization, as L L^T of its noise factors."""
    return tuple(f @ f.T for f in (lin.meas_noise_factor, lin.meas_ubb_factor))


def sq_norm(factor):
    """tr(L L^T) of a factor or factor block L: its squared Frobenius norm."""
    return float(np.sum(factor * factor))


def production_cost(belief, lin, cfg):
    """Mirror of the update's search objective (pure pair formula).

    Returns (J, up, down) with the envelope slope dJ/dlog(beta) = up - down.
    """

    ctx = _UpdateContext(belief, lin, cfg.eta)

    def cost(beta):
        gain = skf_gain(belief, lin, cfg, beta)
        b_c, b_v, t_prior, t_meas = _update_terms(ctx, gain)
        tr_prior, tr_meas = sq_norm(t_prior), sq_norm(t_meas)
        tr_shape = (1 + 1 / beta) * tr_prior + (1 + beta) * tr_meas
        value = (1 - cfg.eta) * (sq_norm(b_c) + sq_norm(b_v)) + cfg.eta * tr_shape
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
        for beta in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="beta must be a positive finite number"):
                skf_gain(belief, scalar_linearization(), FilterConfig(), beta)

    def test_singular_bracket_reports_condition(self):
        belief = StateBelief([0.0], [[1.0]], [[0.0 + 1e-13]], "prior", 1)
        lin = Linearization(
            h_x=np.array([[0.0]]),
            h_v=np.array([[0.0]]),
            h_b=np.array([[0.0]]),
            meas_noise_factor=np.eye(1),
            meas_ubb_factor=np.eye(1),
        )
        with pytest.raises(SingularInnovationError, match="singular or numerically deficient"):
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
                    *noise_matrices(lin),
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
        # shape-only pseudo gain K0 = H_x^-1, certified as the beta -> 0
        # kink, and the posterior shape is the measurement set mapped by K0
        m = scalar_model(sz=1e-9)
        prior = StateBelief([0.0], [[1.0]], [[1.0]], "prior", 1)
        post, report = skf_update(prior, np.array([0.5]), m, FilterConfig(eta=1.0), 1)
        assert report.regime == "beta_to_zero"
        gain = report.gain[0, 0]
        assert gain == pytest.approx(1.0, abs=1e-6)  # S H^T (H S H^T)^{-1}
        # abs=0, since the default abs=1e-12 is a 1e-3 tolerance on this value
        assert post.shape[0, 0] == pytest.approx(gain**2 * 1e-9, rel=1e-12, abs=0)
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
            lin = factored_linearization(
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
            _, _, t_prior, t_meas = _update_terms(_UpdateContext(belief, lin, cfg.eta), gain)
            ratio = np.sqrt(sq_norm(t_prior) / sq_norm(t_meas))
            assert beta_star == pytest.approx(ratio, rel=1e-5)

    def test_trace_bound_envelope(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            belief, lin = random_update_setup(rng, n=2, m=2)
            cfg = FilterConfig(eta=0.5)
            c_z, s_z = noise_matrices(lin)
            post_model = NonlinearModel(
                state_dim=2,
                input_dim=2,
                meas_dim=2,
                f=lambda x, u, w, a, k: x,
                h=lambda x, v, b, k: lin.h_x @ x + v + b,
                process_noise_cov=np.eye(2),
                ubb_process_shapes=(),
                meas_noise_cov=c_z,
                ubb_meas_shape=s_z,
            )
            post, report = skf_update(
                belief, np.zeros(2), post_model, cfg, 1
            )
            lin_post = linearize_measurement(post_model, belief.center, 1)
            ctx = _UpdateContext(belief, lin_post, cfg.eta)
            _, _, t_prior, t_meas = _update_terms(ctx, report.gain)
            m_tr, n_tr = sq_norm(t_prior), sq_norm(t_meas)
            bound = (np.sqrt(m_tr) + np.sqrt(n_tr)) ** 2
            assert report.trace_shape <= bound + 1e-9

    @pytest.mark.parametrize("regime", sorted(REGIME_SETUPS))
    def test_posterior_shape_formula(self, regime):
        # for eta > 0, every regime takes the trace-minimal pair of the gain's
        # own terms, (sqrt T1 + sqrt T2)^2, with any live term kept however
        # small: at beta -> inf (K = 0) that is the prior itself, to rounding,
        # and at a point measurement set T2 = 0; at eta = 0 the shape is
        # p T1 + q T2 at the conventional beta = 1
        cov, shape, eta, sz = REGIME_SETUPS[regime]
        prior = StateBelief([0.0], [[cov]], [[shape]], "prior", 1)
        post, report = skf_update(prior, np.array([1.0]), scalar_model(sz=sz), FilterConfig(eta), 1)
        assert report.regime == regime
        k = report.gain[0, 0]
        t_prior, t_meas = (1 - k) ** 2 * shape, k**2 * sz
        if regime == "eta_zero":
            beta = report.beta_star
            expected = (1 + 1 / beta) * t_prior + (1 + beta) * t_meas
        else:
            expected = (np.sqrt(t_prior) + np.sqrt(t_meas)) ** 2
        assert post.shape[0, 0] == pytest.approx(expected, rel=1e-12)
        if regime == "beta_to_inf":
            assert np.array_equal(post.center, prior.center)
            assert np.array_equal(report.gain, np.zeros((1, 1)))
            for name in ("cov", "shape"):
                assert getattr(post, name) == pytest.approx(getattr(prior, name), rel=1e-15, abs=0)

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
        # a wide prior set against a tight measurement: trust the measurement,
        # certified in closed form, with the exact limit gain 1/h
        report = self.update("beta_to_zero")
        assert report.regime == "beta_to_zero"
        assert report.beta_star == np.exp(-20.0)
        assert report.evals == 0
        h = linearize_measurement(scalar_model(), np.zeros(1), 1).h_x[0, 0]
        assert report.gain[0, 0] == 1.0 / h
        assert report.kink_ratios[1] <= 1.0

    def test_beta_to_inf(self):
        # a tight prior set against a wide measurement set: ignore the set,
        # certified in closed form, with the exact limit gain 0
        report = self.update("beta_to_inf")
        assert report.regime == "beta_to_inf"
        assert report.beta_star == np.exp(20.0)
        assert report.evals == 0
        assert report.gain[0, 0] == 0.0
        assert report.kink_ratios[0] <= 1.0 and report.kink_ratios[1] is None

    def test_eta_zero(self):
        report = self.update("eta_zero")
        assert (report.regime, report.evals, report.beta_star) == ("eta_zero", 0, 1.0)

    def test_single_set(self):
        report = self.update("single_set")
        assert (report.regime, report.evals, report.beta_star) == ("single_set", 0, 1.0)

    def test_search_hook_takes_a_rebuilt_problem(self, monkeypatch):
        # a tracer replaces skf.filter.minimize_scalar, reads the problem's
        # bracket and hands the search a copy with a wrapped objective
        rebuilt = dataclasses.replace(ScalarProblem(objective=abs), objective=round)
        assert rebuilt.objective is round
        assert rebuilt.bracket == BRACKET

        search, brackets = filter_module.minimize_scalar, []

        def traced(problem):
            brackets.append(problem.bracket)
            objective = problem.objective
            return search(dataclasses.replace(problem, objective=lambda b: objective(b)))

        untraced = self.update("interior")
        monkeypatch.setattr(filter_module, "minimize_scalar", traced)
        report = self.update("interior")
        assert brackets == [BRACKET]
        assert (report.beta_star, report.evals) == (untraced.beta_star, untraced.evals)
        assert np.array_equal(report.gain, untraced.gain)


class TestSolve:
    """``_solve``, the one solve of the gains and the kink tests."""

    @pytest.mark.parametrize(
        "a, b",
        [
            ([[0.0]], [[1.0, 2.0]]),  # a 1 x 1 zero
            ([[1.0, 2.0], [2.0, 4.0]], np.eye(2)),  # a singular 2 x 2
            ([[1e-300]], [[1e300]]),  # a quotient that overflows
            ([[1e-300, 0.0], [0.0, 1.0]], [[1e300], [1.0]]),  # a solve that overflows
            ([[2.0]], [[np.nan]]),  # a non-finite right side
        ],
    )
    def test_singular_or_non_finite_gives_none(self, a, b):
        assert _solve(np.array(a), np.array(b)) is None

    def test_scalar_division_equals_lapack_bit_for_bit(self):
        # LAPACK divides a one-column b; for several columns an optimized
        # BLAS may multiply by the reciprocal instead, within an ulp
        rng = np.random.default_rng(18)
        signs = rng.choice([-1.0, 1.0], size=(2, 5000))
        a, b = signs * 10.0 ** rng.uniform(-10.0, 10.0, size=(2, 5000))
        for a_i, b_i in zip(a, b):
            a_i, column, wide = np.array([[a_i]]), np.array([[b_i]]), np.array([[b_i, 1.0, -b_i]])
            assert np.array_equal(_solve(a_i, column), np.linalg.solve(a_i, column))
            np.testing.assert_array_max_ulp(_solve(a_i, wide), np.linalg.solve(a_i, wide), 1)

    def test_solve_against_identity_equals_inv_bit_for_bit(self):
        rng = np.random.default_rng(19)
        for n in range(1, 6):
            for _ in range(200):
                h = rng.standard_normal((n, n))
                assert np.array_equal(_solve(h, np.eye(n)), np.linalg.inv(h))


class TestKinkTests:
    """The closed-form kink tests on inputs the properties do not draw:
    example2's observation map and a wide H_b."""

    def context(self, h_b, shape_scale, eta):
        cfg = example2_config(trials=1)
        center = np.array([10.0, 20.0, 1.0, 1.0])
        prior = StateBelief(center, 1e-8 * np.eye(4), shape_scale * np.eye(4), "prior", 1)
        lin = dataclasses.replace(linearize_measurement(cfg.model, center, 1), h_b=h_b)
        return _UpdateContext(prior, lin, eta)

    def test_example2_map_with_full_rank_h_b_certifies_beta_to_inf(self):
        # control for the test below: a tight prior set is ignored, K = 0
        ctx = self.context(np.eye(4), 1e-6, 0.5)
        assert not ctx.lin.h_x[:, 2:].any()  # velocities are unobserved
        regime, gain, (to_inf, to_zero) = _kink_tests(ctx, 4e-6)
        assert (regime, to_zero) == ("beta_to_inf", None)
        assert to_inf <= 1.0 and not gain.any()

    def test_wide_h_b_takes_the_square_factor_of_n(self):
        # H_b L_Sz is 1 x 2 here: both tests use the 1 x 1 factor of
        # N = H_b S_z H_b^T = 2, and read as they do with a 1 x 1 H_b
        prior = StateBelief([0.0], [[0.01]], [[100.0]], "prior", 1)
        ratios = []
        for h_b, s_z in (([[1.0, 2.0]], [1.0, 0.25]), ([[1.0]], [2.0])):
            lin = factored_linearization(
                h_x=np.eye(1), h_v=np.eye(1), h_b=np.array(h_b),
                meas_noise_cov=np.eye(1), meas_ubb_shape=np.diag(s_z),
            )
            regime, _, pair = _kink_tests(_UpdateContext(prior, lin, 0.5), 100.0)
            assert regime == "beta_to_zero"
            ratios.append(pair)
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-14)
        assert ratios[1] == pytest.approx(((0.005 + 50.0) ** 2 / 2.0 / 25.0, 1.5**2 / 100.0 / 0.5))

    @pytest.mark.parametrize("rank_deficient", ["zero_row", "product"])
    def test_example2_map_and_rank_deficient_h_b_never_certify(self, rank_deficient):
        # singular H_x (zero velocity columns) leaves beta -> 0 untested, and a
        # singular N = H_b S_z H_b^T fails the beta -> inf test
        rng = np.random.default_rng(5)
        if rank_deficient == "zero_row":
            h_b = np.diag([1.0, 1.0, 1.0, 0.0])
        else:
            h_b = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 4))
        for shape_scale in (1e-9, 1e-6, 1e-3, 1.0, 1e2):
            for eta in (0.1, 0.5, 0.9, 1.0):
                ctx = self.context(h_b, shape_scale, eta)
                regime, gain, (to_inf, to_zero) = _kink_tests(ctx, 4 * shape_scale)
                assert (regime, gain, to_zero) == (None, None, None)
                assert to_inf is None or to_inf > 1.0


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
        x, factor = np.array([1.0]), np.eye(1)
        steps = 5
        for k in range(1, steps + 1):
            prior = skf_predict(belief, m, np.array([0.1]), k)
            belief, _ = skf_update(prior, np.array([1.5]), m, FilterConfig(eta=0.5), k)
        assert calls == dict.fromkeys(("f", "h") + providers, steps)
        calls.update(dict.fromkeys(calls, 0))
        for k in range(1, steps + 1):
            x, factor = ekf_step(x, factor, np.array([0.1]), np.array([1.5]), m, k)
        assert calls == dict.fromkeys(("f", "h") + providers, steps)


NAN = np.array([[np.nan]])
# a scalar model with a NaN h_x, measurement-noise or process-noise provider, and
# the start of the EKF's message: a provider's value fails where it is served
NAN_MODEL_FIELDS = [
    pytest.param({"jacobians": AnalyticJacobians(h_x=lambda x, k: NAN)}, "EKF", id="h_x"),
    pytest.param(
        {"meas_noise_cov": lambda k: NAN}, "meas_noise_cov: matrix has non-finite",
        id="meas_noise_cov",
    ),
    pytest.param(
        {"process_noise_cov": lambda k: NAN}, "process_noise_cov: matrix has non-finite",
        id="process_noise_cov",
    ),
]


class TestNonFiniteModel:
    @pytest.mark.parametrize("fields, ekf_message", NAN_MODEL_FIELDS)
    def test_skf_raises_filter_error_with_step(self, fields, ekf_message):
        m = dataclasses.replace(scalar_model(), **fields)
        belief = StateBelief([0.0], [[1.0]], [[1.0]], "posterior", 0)
        with pytest.raises(FilterError, match="step 3") as exc:
            prior = skf_predict(belief, m, np.zeros(1), 3)
            skf_update(prior, np.array([1.0]), m, FilterConfig(eta=0.5), 3)
        assert exc.value.step == 3

    @pytest.mark.parametrize("fields, ekf_message", NAN_MODEL_FIELDS)
    def test_ekf_raises_filter_error_with_step(self, fields, ekf_message):
        m = dataclasses.replace(scalar_model(), **fields)
        with pytest.raises(FilterError, match=f"step 3: {ekf_message}") as exc:
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
        factor = np.eye(2)  # ekf_step takes and returns a factor L of P = L L^T
        x_ref = x.copy()
        p_ref = np.eye(2)
        for k in range(1, 31):
            u = rng.standard_normal(2)
            y = rng.standard_normal(1)
            x, factor = ekf_step(x, factor, u, y, m, k)
            p = factor @ factor.T
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
        x, factor = ekf_step(np.array([0.0]), np.array([[1.0]]), np.zeros(1),
                             np.array([3.0]), m, 1)
        # predict: x = 0, P = 2; update with H = 1, R = 1: K = 2/3
        assert x[0] == pytest.approx(2.0, abs=1e-12)
        assert factor[0, 0] ** 2 == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_eta_zero_cross_implementation_50_steps(self):
        cfg = example1_config(eta=0.0)
        m = build_model(cfg)
        rng = np.random.default_rng([cfg.seed, 0])
        states, meas = simulate_truth(cfg, rng)
        fcfg = FilterConfig(eta=0.0)
        belief = StateBelief(cfg.x0, cfg.cov0, cfg.shape0, "posterior", 0)
        x, factor = np.array(cfg.x0), np.sqrt(cfg.cov0)
        for k in range(1, cfg.steps + 1):
            u = input_vector(cfg, k)
            prior = skf_predict(belief, m, u, k)
            belief, _ = skf_update(prior, meas[k - 1], m, fcfg, k)
            x, factor = ekf_step(x, factor, u, meas[k - 1], m, k)
            assert np.max(np.abs(belief.center - x)) < 1e-9
            assert np.max(np.abs(belief.cov - factor @ factor.T)) < 1e-9


# the PSD fields of scalar_model, each served by a callable whose value is not PSD:
# all four through the SKF, the two covariances through the EKF
PSD_PROVIDERS = ["process_noise_cov", "meas_noise_cov", "ubb_process_shapes[0]", "ubb_meas_shape"]
BAD_PROVIDER_CASES = [("skf", f) for f in PSD_PROVIDERS] + [("ekf", f) for f in PSD_PROVIDERS[:2]]


def bad_provider_model(field):
    bad = lambda k: [[-0.5]]  # noqa: E731
    if field == "ubb_process_shapes[0]":
        return dataclasses.replace(scalar_model(), ubb_process_shapes=(bad,))
    return dataclasses.replace(scalar_model(), **{field: bad})


class TestNumericalHygiene:
    @pytest.mark.parametrize("scale", [1e2, 1e4])
    def test_rank_deficient_prediction_keeps_its_factor(self, scale):
        # F C F^T is singular; its factor, from one QR of F L_C, keeps the zero
        # eigenvalue (no floor lifts it) and its product is exactly symmetric
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
        assert np.array_equal(prior.cov, prior.cov_factor @ prior.cov_factor.T)
        assert np.allclose(prior.cov, f_mat @ cov0 @ f_mat.T, rtol=1e-14, atol=0)
        assert abs(np.linalg.eigvalsh(prior.cov)[0]) <= 1e-15 * scale
        post, _ = skf_update(prior, np.zeros(2), m, FilterConfig(eta=0.5), 1)
        assert np.array_equal(post.cov, post.cov.T)

    def test_hygiene_violation_raises(self):
        # a provider's value follows the matrix rule where it is served
        belief = StateBelief(np.zeros(2), np.eye(2), np.eye(2), "posterior", 0)
        violations = [
            ([[1.0, 1e-8], [0.0, 1.0]], "matrix asymmetry"),
            ([[1.0, 0.0], [0.0, -1e-8]], "matrix is not PSD"),
        ]
        for bad in (np.nan, np.inf, -np.inf):
            violations.append(([[bad, 0.0], [0.0, 1.0]], "matrix has non-finite"))
        for value, message in violations:
            m = NonlinearModel(
                state_dim=2,
                input_dim=2,
                meas_dim=2,
                f=lambda x, u, w, a, k: x + u + w,
                h=lambda x, v, b, k: x + v + b,
                process_noise_cov=lambda k, value=value: value,
                ubb_process_shapes=(),
                meas_noise_cov=np.eye(2),
                ubb_meas_shape=np.eye(2),
            )
            with pytest.raises(NumericsError, match=f"^step 4: process_noise_cov: {message}"):
                skf_predict(belief, m, np.zeros(2), 4)

    @pytest.mark.parametrize("recursion, field", BAD_PROVIDER_CASES)
    def test_bad_process_shape_provider_names_step_and_term(self, recursion, field):
        # a callable provider's value is checked where a linearization serves it
        m = bad_provider_model(field)
        belief = StateBelief([0.0], [[1.0]], [[1.0]], "posterior", 0)
        message = "^" + re.escape(f"step 3: {field}: matrix is not PSD")
        with pytest.raises(NumericsError, match=message) as exc:
            if recursion == "ekf":
                ekf_step(np.zeros(1), np.eye(1), np.zeros(1), np.array([1.0]), m, 3)
            else:
                prior = skf_predict(belief, scalar_model(), np.zeros(1), 3)
                skf_predict(belief, m, np.zeros(1), 3)
                skf_update(prior, np.array([1.0]), m, FilterConfig(eta=0.5), 3)
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
