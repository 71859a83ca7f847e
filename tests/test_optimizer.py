"""Scalar minimizer tests."""

import math

import numpy as np
import pytest

from skf.optimizer import OptimizerError, ScalarProblem, minimize_scalar


def parts(value, slope):
    """(value, up, down) for a cost whose log-slope dJ/dlog(beta) is ``slope``."""
    return value, max(slope, 0.0), max(-slope, 0.0)


class TestClosedFormCases:
    def test_pair_trace_objective(self):
        # min over beta of (1 + 1/beta) 4 + (1 + beta) 1 is at beta = 2, value 9
        beta, value, evals, _ = minimize_scalar(
            ScalarProblem(objective=lambda b: ((1 + 1 / b) * 4 + (1 + b) * 1, b, 4 / b))
        )
        assert beta == pytest.approx(2.0, rel=1e-6)
        assert value == pytest.approx(9.0, abs=1e-9)
        assert evals > 0

    def test_symmetric_objective(self):
        beta, value, _, _ = minimize_scalar(
            ScalarProblem(objective=lambda b: ((1 + 1 / b) + (1 + b), b, 1 / b))
        )
        assert beta == pytest.approx(1.0, rel=1e-6)
        assert value == pytest.approx(4.0, abs=1e-9)

    def test_sqrt_ratio_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = float(rng.uniform(0.1, 50.0))
            n = float(rng.uniform(0.1, 50.0))
            beta, value, _, _ = minimize_scalar(
                ScalarProblem(objective=lambda b: ((1 + 1 / b) * m + (1 + b) * n, n * b, m / b))
            )
            assert abs(np.log(beta) - 0.5 * np.log(m / n)) < 1e-7
            assert value <= (np.sqrt(m) + np.sqrt(n)) ** 2 + 1e-9


class TestGridConsistency:
    def test_value_beats_dense_grid_on_unimodal_objectives(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            t0 = float(rng.uniform(-5, 5))
            scale = float(rng.uniform(0.2, 3.0))

            def objective(beta, _t0=t0, _s=scale):
                t = np.log(beta)
                return parts(_s * (t - _t0) ** 2, 2 * _s * (t - _t0))

            _, value, _, _ = minimize_scalar(ScalarProblem(objective=objective))
            grid = np.exp(np.linspace(-20, 20, 10_000))
            grid_min = min(objective(b)[0] for b in grid)
            assert value <= grid_min + 1e-9

    def test_deterministic(self):
        problem = ScalarProblem(
            objective=lambda b: parts((np.log(b) - 1.3) ** 2 + 0.5, 2 * (np.log(b) - 1.3))
        )
        first = minimize_scalar(problem)
        second = minimize_scalar(problem)
        assert first == second


class TestBracketHandling:
    def test_exterior_minimum_returns_upper_end_exactly(self):
        # minimum at t = 25, outside the bracket: the search does not widen it
        result = minimize_scalar(
            ScalarProblem(
                objective=lambda b: parts((np.log(b) - 25.0) ** 2, 2 * (np.log(b) - 25.0))
            )
        )
        assert result.beta == np.exp(20.0)
        assert result.regime == "upper"
        assert result.evals == 2

    def test_unbounded_descent_returns_upper_end_exactly(self):
        result = minimize_scalar(ScalarProblem(objective=lambda b: parts(-np.log(b), -1.0)))
        assert result.beta == np.exp(20.0)
        assert result.regime == "upper"

    def test_flat_objective_terminates(self):
        beta, value, _, _ = minimize_scalar(ScalarProblem(objective=lambda b: parts(7.0, 0.0)))
        assert value == 7.0
        assert beta > 0

    def test_non_finite_objective_raises(self):
        with pytest.raises(OptimizerError, match="not finite"):
            minimize_scalar(ScalarProblem(objective=lambda b: parts(float("nan"), 0.0)))


class TestRegimes:
    def test_lower_limit_returns_end_exactly(self):
        # J = 1 + beta rises with beta: no interior zero of the slope
        result = minimize_scalar(ScalarProblem(objective=lambda b: (1 + b, b, 0.0)))
        assert result.beta == np.exp(-20.0)
        assert result.regime == "lower"
        assert result.evals == 2

    def test_upper_limit_returns_end_exactly(self):
        result = minimize_scalar(ScalarProblem(objective=lambda b: (1 + 1 / b, 0.0, 1 / b)))
        assert result.beta == np.exp(20.0)
        assert result.regime == "upper"
        assert result.evals == 2

    def test_linear_log_ratio_needs_one_interior_evaluation(self):
        # G(t) = 2t - log 4 is linear: the fixed-point step lands on the zero
        result = minimize_scalar(
            ScalarProblem(objective=lambda b: ((1 + 1 / b) * 4 + (1 + b), b, 4 / b))
        )
        assert result.regime == "interior"
        assert result.evals <= 4
        assert np.log(result.beta) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_negative_slope_part_rejected(self):
        with pytest.raises(OptimizerError, match="non-negative"):
            minimize_scalar(ScalarProblem(objective=lambda b: (1.0, -1.0, 0.0)))

    def test_end_slope_contradicted_by_values_searches_interior(self):
        # the lower end reports a rising cost (a rounding-level slope of the
        # wrong sign), but it lies above the upper end: the minimum at t = 1
        # is interior
        def objective(b):
            t = np.log(b)
            if t == -20.0:
                return (t - 1) ** 2, 1e-30, 0.0
            return parts((t - 1) ** 2, 2 * (t - 1))

        result = minimize_scalar(ScalarProblem(objective=objective))
        assert result.regime == "interior"
        assert np.log(result.beta) == pytest.approx(1.0, abs=1e-7)

    def test_end_slope_contradicted_with_defined_log_ratio_searches_interior(self):
        # as above, but G is defined at the lower end (about 1e-10): its
        # fixed-point step lands within TOL just outside the bracket, which
        # must not end the search at that end
        def objective(b):
            t = np.log(b)
            if t == -20.0:
                return (t - 1) ** 2, 1.0 + 1e-10, 1.0
            return parts((t - 1) ** 2, 2 * (t - 1))

        result = minimize_scalar(ScalarProblem(objective=objective))
        assert result.regime == "interior"
        assert np.log(result.beta) == pytest.approx(1.0, abs=1e-7)

    def test_interior_search_closing_on_an_end_returns_it_exactly(self):
        # J = t rises everywhere, but the lower end reports a falling slope
        def objective(b):
            t = np.log(b)
            return (t, 0.0, 1e-30) if t == -20.0 else parts(t, 1.0)

        result = minimize_scalar(ScalarProblem(objective=objective))
        assert result.regime == "lower"
        assert result.beta == np.exp(-20.0)

    def test_linear_fractional_ratio_needs_two_steps_after_the_fixed_point(self):
        # sqrt(up/down) = (4 beta + 0.01)/(beta + 1) is flat in both tails, where
        # steps on G alone would crawl; the linear-fractional fit is exact
        def objective(b):
            ratio = (4.0 * b + 0.01) / (b + 1.0)
            return np.log(ratio) ** 2, ratio, 1.0 / ratio

        result = minimize_scalar(ScalarProblem(objective=objective))
        assert result.regime == "interior"
        assert result.evals <= 2 + 1 + 2  # the ends, the fixed-point step, two more
        assert np.log(result.beta) == pytest.approx(np.log(0.99 / 3.0), abs=1e-10)

    def test_step_within_tol_of_the_current_end_returns(self):
        # G = 2 (t - 16); the fixed-point step from t = -20 lands on t = 16,
        # where G = log(1 + 2**-52) moves the next step by less than half an
        # ulp: it lands on that bracket end itself, and ends the search
        def objective(b):
            if b == math.exp(16.0):
                return 2.0, 1.0 + 2.0**-52, 1.0
            s = np.log(b) - 16.0
            return 2.0 * np.cosh(s), np.exp(s), np.exp(-s)

        result = minimize_scalar(ScalarProblem(objective=objective))
        assert result.regime == "interior"
        assert result.evals == 3
        assert np.log(result.beta) == pytest.approx(16.0, abs=1e-12)
