"""Ellipsoid calculus tests.

Derived expectations are computed by independent oracles (boundary
sampling, dense beta grids, simplex sampling) rather than by the code
under test.
"""

import numpy as np
import pytest

from skf.ellipsoid import (
    DegenerateEllipsoidError,
    Ellipsoid,
    affine_image,
    contains,
    pair_sum_shape,
    sample_boundary,
    trace_min_sum,
)


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


class TestEllipsoidType:
    def test_scalar_inputs_promote_to_1d(self):
        e = Ellipsoid(0.0, 9.0)
        assert e.dim == 1
        assert e.shape.shape == (1, 1)

    def test_asymmetric_shape_rejected(self):
        with pytest.raises(ValueError, match="asymmetry"):
            Ellipsoid([0.0, 0.0], [[1.0, 1e-3], [0.0, 1.0]])

    def test_stack_rejected(self):
        # a stack of matrices is not one shape matrix
        with pytest.raises(ValueError, match="square"):
            Ellipsoid([0.0], np.ones((2, 1, 1)))
        with pytest.raises(ValueError, match="square"):
            Ellipsoid([0.0], np.ones((1, 1, 1)))

    def test_indefinite_shape_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            Ellipsoid([0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Ellipsoid([0.0], [[bad]])
        with pytest.raises(ValueError, match="finite"):
            Ellipsoid([bad], [[1.0]])

    def test_degenerate_flag(self):
        assert Ellipsoid([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]]).degenerate
        assert not Ellipsoid([0.0, 0.0], np.eye(2)).degenerate


class TestAffineImage:
    def test_scaling(self):
        e = affine_image(Ellipsoid(np.zeros(2), np.eye(2)), 2.0 * np.eye(2))
        assert np.allclose(e.shape, 4.0 * np.eye(2))
        assert np.allclose(e.center, 0.0)

    def test_translation(self):
        e = affine_image(Ellipsoid([1.0, 2.0], np.eye(2)), np.eye(2), [3.0, -1.0])
        assert np.allclose(e.center, [4.0, 1.0])
        assert np.allclose(e.shape, np.eye(2))

    def test_projection_matches_boundary_sampling(self):
        # oracle: max squared first coordinate over dense boundary samples
        e = Ellipsoid(np.zeros(2), np.diag([9.0, 4.0]))
        samples = sample_boundary(e, 10_000, seed=5)
        oracle = float(np.max(samples[:, 0] ** 2))
        proj = affine_image(e, np.array([[1.0, 0.0]]))
        assert proj.dim == 1
        assert proj.shape[0, 0] == pytest.approx(9.0, abs=1e-12)
        assert oracle == pytest.approx(9.0, abs=1e-3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            affine_image(Ellipsoid(np.zeros(2), np.eye(2)), np.eye(3))

    def test_preserves_containment(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            e = Ellipsoid(rng.standard_normal(n), random_spd(rng, n))
            a = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            x = sample_boundary(e, 1, seed=int(rng.integers(1 << 30)))[0]
            img = affine_image(e, a, b)
            if img.degenerate:
                continue
            assert contains(img, a @ x + b, slack=1e-9)


class TestContains:
    def test_center_is_inside(self):
        rng = np.random.default_rng(1)
        e = Ellipsoid(rng.standard_normal(3), random_spd(rng, 3))
        assert contains(e, e.center)

    def test_interval_boundary(self):
        e = Ellipsoid(0.0, 9.0)
        assert contains(e, 3.0)
        assert not contains(e, 3.0001)

    @pytest.mark.parametrize("theta", np.linspace(0.0, 2 * np.pi, 9))
    def test_parametrized_boundary(self, theta):
        e = Ellipsoid(np.zeros(2), np.diag([4.0, 1.0]))
        assert contains(e, [2.0 * np.cos(theta), np.sin(theta)], slack=1e-12)

    def test_degenerate_rejected(self):
        e = Ellipsoid([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateEllipsoidError):
            contains(e, [0.0, 0.0])

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            contains(Ellipsoid(0.0, 1.0), 0.0, slack=-1.0)


class TestPairSumShape:
    def test_unit_balls(self):
        assert np.allclose(pair_sum_shape(np.eye(2), np.eye(2), 1.0), 4.0 * np.eye(2))

    def test_scalar_closed_form_trace(self):
        # beta* = sqrt(4/1) = 2 gives trace (2 + 1)^2 = 9
        out = pair_sum_shape(np.array([[4.0]]), np.array([[1.0]]), 2.0)
        assert out[0, 0] == pytest.approx(9.0, abs=1e-12)

    def test_matches_dense_beta_grid(self):
        # oracle: minimize the trace over a dense log-spaced beta grid
        s1, s2 = np.diag([4.0, 1.0]), np.eye(2)
        betas = np.logspace(-3, 3, 100_000)
        traces = (1 + 1 / betas) * np.trace(s1) + (1 + betas) * np.trace(s2)
        best = betas[np.argmin(traces)]
        beta_star = np.sqrt(np.trace(s1) / np.trace(s2))
        assert abs(best - beta_star) / beta_star < 1e-4
        out = pair_sum_shape(s1, s2, beta_star)
        assert np.trace(out) <= float(np.min(traces)) + 1e-5
        assert np.allclose(np.diag(out), [9.11096096, 4.21359436], atol=1e-7)

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            pair_sum_shape(np.eye(2), np.eye(2), 0.0)

    def test_invalid_terms_rejected(self):
        # the terms follow the same matrix rule as those of trace_min_sum
        with pytest.raises(ValueError, match="s1: matrix is not PSD"):
            pair_sum_shape([[-4.0]], np.eye(1), 1.0)
        with pytest.raises(ValueError, match="s2: matrix asymmetry"):
            pair_sum_shape(np.eye(2), [[1.0, 1e-3], [0.0, 1.0]], 1.0)
        with pytest.raises(ValueError, match="s2: shape matrix is 2x2, expected 1x1"):
            pair_sum_shape(np.eye(1), np.eye(2), 1.0)
        with pytest.raises(ValueError, match="s1: matrix has non-finite"):
            pair_sum_shape([[np.nan]], np.eye(1), 1.0)


def random_terms(rng, n, count):
    """Random ellipsoids plus their sum's center, for containment checks."""
    terms = [Ellipsoid(rng.standard_normal(n), random_spd(rng, n)) for _ in range(count)]
    return terms, np.sum([t.center for t in terms], axis=0)


class TestTraceMinSum:
    def test_two_unit_balls(self):
        out = trace_min_sum([np.eye(2), np.eye(2)])
        assert np.allclose(out, 4.0 * np.eye(2), atol=1e-14)

    def test_centers_add(self):
        # the bound of member sums is centered on the sum of the centers
        rng = np.random.default_rng(2)
        terms = [
            Ellipsoid([1.0, 2.0], random_spd(rng, 2)),
            Ellipsoid([3.0, -1.0], random_spd(rng, 2)),
        ]
        shape = trace_min_sum([t.shape for t in terms])
        bound = Ellipsoid(np.sum([t.center for t in terms], axis=0), shape)
        assert np.allclose(bound.center, [4.0, 1.0])
        assert contains(bound, terms[0].center + terms[1].center)

    def test_pair_matches_grid_oracle(self):
        out = trace_min_sum([np.diag([4.0, 1.0]), np.eye(2)])
        assert np.allclose(np.diag(out), [9.11096096, 4.21359436], atol=1e-7)

    def test_single_term_unchanged(self):
        s = np.array([[5.0]])
        out = trace_min_sum([s])
        assert np.array_equal(out, s)

    def test_zero_trace_terms_shift_center_only(self):
        # a zero-trace term is a point: it adds nothing to the shape
        out = trace_min_sum([np.zeros((2, 2)), np.eye(2)])
        assert np.allclose(out, np.eye(2))

    def test_all_zero_terms_give_point(self):
        out = trace_min_sum([np.zeros((1, 1)), np.zeros((1, 1))])
        assert out.shape == (1, 1)
        assert np.all(out == 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expected"):
            trace_min_sum([np.eye(1), np.eye(2)])

    def test_invalid_terms_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            trace_min_sum([])
        with pytest.raises(ValueError, match="square"):
            trace_min_sum([np.ones((2, 3))])
        with pytest.raises(ValueError, match="asymmetry"):
            trace_min_sum([np.eye(2), [[1.0, 1e-3], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="PSD"):
            trace_min_sum([np.eye(2), np.diag([1.0, -1.0])])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                trace_min_sum([[[bad]], np.eye(1)])
            with pytest.raises(ValueError, match="non-finite"):
                trace_min_sum([np.eye(1), [[bad]]])

    def test_corollary_consistency_k2(self):
        # for two terms the result must equal the closed-form pair bound
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            s1, s2 = random_spd(rng, n), random_spd(rng, n)
            beta = np.sqrt(np.trace(s1) / np.trace(s2))
            out = trace_min_sum([s1, s2])
            assert np.max(np.abs(out - pair_sum_shape(s1, s2, beta))) < 1e-10

    def test_containment_of_member_sums(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            count = int(rng.integers(1, 5))
            terms, center = random_terms(rng, n, count)
            bound = Ellipsoid(center, trace_min_sum([t.shape for t in terms]))
            draws = 400
            points = np.zeros((draws, n))
            for t in terms:
                radius = rng.uniform(size=draws) ** (1.0 / n)
                radius[: draws // 2] = 1.0  # half on the boundary
                direction = rng.standard_normal((draws, n))
                direction /= np.linalg.norm(direction, axis=1)[:, None]
                chol = np.linalg.cholesky(t.shape)
                points += t.center + (radius[:, None] * direction) @ chol.T
            for p in points[::37]:
                assert contains(bound, p, slack=1e-9)
            d = points - bound.center
            q = np.einsum("ij,ij->i", d, np.linalg.solve(bound.shape, d.T).T)
            assert float(q.max()) <= 1.0 + 1e-9

    def test_trace_optimal_within_family(self):
        # oracle: the weighted family sum over random simplex weights
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            count = int(rng.integers(2, 5))
            shapes = [random_spd(rng, n) for _ in range(count)]
            bound = trace_min_sum(shapes)
            alphas = rng.dirichlet(np.ones(count), size=1000)
            family_traces = alphas @ np.array([np.trace(s) for s in shapes]) * 0.0
            for i, alpha in enumerate(alphas):
                family_traces[i] = sum(np.trace(s) / a for s, a in zip(shapes, alpha))
            assert np.trace(bound) <= float(family_traces.min()) + 1e-9

    def test_outputs_symmetric_psd(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            count = int(rng.integers(1, 5))
            terms, _ = random_terms(rng, n, count)
            out = trace_min_sum([t.shape for t in terms])
            assert np.max(np.abs(out - out.T)) == 0.0
            assert np.linalg.eigvalsh(out)[0] >= -1e-10


class TestSampleBoundary:
    def test_unit_ball_norms(self):
        pts = sample_boundary(Ellipsoid(np.zeros(3), np.eye(3)), 500, seed=0)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_membership_with_slack(self):
        rng = np.random.default_rng(7)
        e = Ellipsoid(rng.standard_normal(3), random_spd(rng, 3))
        for p in sample_boundary(e, 100, seed=1):
            assert contains(e, p, slack=1e-9)

    def test_interval_endpoints(self):
        pts = sample_boundary(Ellipsoid(0.0, 9.0), 2, seed=2)
        assert set(np.round(pts.ravel(), 12)) <= {-3.0, 3.0}

    def test_deterministic(self):
        e = Ellipsoid(np.zeros(2), np.diag([2.0, 5.0]))
        a = sample_boundary(e, 50, seed=9)
        b = sample_boundary(e, 50, seed=9)
        assert np.array_equal(a, b)

    def test_degenerate_rejected(self):
        e = Ellipsoid([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateEllipsoidError):
            sample_boundary(e, 1, seed=0)
