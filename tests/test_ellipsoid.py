"""Ellipsoid calculus tests.

Derived expectations are computed by independent oracles (boundary
sampling, dense beta grids, simplex sampling) rather than by the code
under test.
"""

import math

import numpy as np
import pytest

from skf.ellipsoid import (
    DegenerateEllipsoidError,
    Ellipsoid,
    _qr_factor,
    affine_image,
    contains,
    membership_form,
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
        assert Ellipsoid([0.0], [[0.0]]).degenerate

    def test_degenerate_flag_is_relative_to_the_shape(self):
        # a small round shape is a full ellipsoid in small units
        e = Ellipsoid([0.0, 0.0], 1e-16 * np.eye(2))
        assert not e.degenerate
        assert contains(e, [0.5e-8, 0.0])
        assert not contains(e, [1.5e-8, 0.0])
        assert Ellipsoid([0.0, 0.0], np.diag([1e-16, 1e-30])).degenerate


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
        # a slack that is negative or not finite, and a non-finite point
        for slack in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="slack"):
                contains(Ellipsoid(0.0, 1.0), 0.0, slack=slack)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                contains(Ellipsoid(np.zeros(2), np.eye(2)), [0.0, bad])


class TestMembershipForm:
    def test_same_form_for_any_factor(self):
        # an eigh factor and a triangular factor of the same S give the same
        # form, 1 on the boundary points each of them maps out
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            s = random_spd(rng, n, scale=10.0 ** rng.uniform(-3.0, 3.0))
            c = rng.standard_normal(n)
            w, v = np.linalg.eigh(s)
            factors = (v * np.sqrt(w), np.linalg.cholesky(s))
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            for through in factors:
                x = c + through @ u
                for factor in factors:
                    assert membership_form(c, factor, x) == pytest.approx(1.0, rel=0, abs=1e-12)

    def test_sizes_checked(self):
        with pytest.raises(ValueError, match="expected \\(2,\\)"):
            membership_form([0.0, 0.0], np.eye(2), [1.0])
        with pytest.raises(ValueError, match="expected \\(1,\\)"):
            membership_form([0.0, 0.0], [[1.0]], [0.0])
        with pytest.raises(ValueError, match="square"):
            membership_form([0.0, 0.0], np.ones((2, 3)), [0.0, 0.0])

    def test_singular_factor_gives_infinity(self):
        assert membership_form([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]], [0.5, 0.0]) == math.inf
        assert membership_form([0.0], [[0.0]], [0.0]) == math.inf


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
        for beta in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="beta must be a positive finite number"):
                pair_sum_shape(np.eye(2), np.eye(2), beta)

    def test_invalid_terms_rejected(self):
        # the terms follow the package's matrix rule
        with pytest.raises(ValueError, match="s1: matrix is not PSD"):
            pair_sum_shape([[-4.0]], np.eye(1), 1.0)
        with pytest.raises(ValueError, match="s2: matrix asymmetry"):
            pair_sum_shape(np.eye(2), [[1.0, 1e-3], [0.0, 1.0]], 1.0)
        with pytest.raises(ValueError, match="s2: shape matrix is 2x2, expected 1x1"):
            pair_sum_shape(np.eye(1), np.eye(2), 1.0)
        with pytest.raises(ValueError, match="s1: matrix has non-finite"):
            pair_sum_shape([[np.nan]], np.eye(1), 1.0)


def sum_bound(shapes):
    """The shape of ``trace_min_sum``'s bound, for terms given by their shapes."""
    out = trace_min_sum([np.linalg.cholesky(s) for s in shapes])
    return out @ out.T


def random_terms(rng, n, count):
    """Random ellipsoids plus their sum's center, for containment checks."""
    terms = [Ellipsoid(rng.standard_normal(n), random_spd(rng, n)) for _ in range(count)]
    return terms, np.sum([t.center for t in terms], axis=0)


def wide_entries(rng, shape):
    """Entries of either sign and magnitude 1e-300 .. 1e300, a fifth of them zero, one subnormal."""
    x = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-300.0, 300.0, size=shape)
    x[rng.random(shape) < 0.2] = 0.0
    x.flat[rng.integers(x.size)] = 5e-324
    return x


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def norm_reference(a) -> float:
    """``np.linalg.norm(a)``; below sqrt(tiny), where the squares of the entries
    underflow, the norm of a / max|a| scaled back."""
    r = float(np.linalg.norm(a))
    if r >= math.sqrt(np.finfo(float).tiny) or not np.any(a):
        return r
    scale = float(np.max(np.abs(a)))
    return scale * float(np.linalg.norm(a / scale))


def qr_factor_reference(*blocks):
    """``_qr_factor`` with its one-row case taken by ``norm_reference``."""
    stacked = np.concatenate(blocks, axis=1)
    if stacked.shape[0] == 1:
        return np.array([[norm_reference(stacked)]])
    return _qr_factor(*blocks)


def trace_min_sum_reference(factors):
    """``trace_min_sum`` with every norm taken by ``norm_reference``."""
    if len(factors) < 1:
        raise ValueError("a sum needs at least one term")
    terms = [np.atleast_2d(np.asarray(f, dtype=float)) for f in factors]
    n = terms[0].shape[0]
    roots = []
    for i, term in enumerate(terms):
        if term.ndim != 2 or term.shape[0] != n:
            raise ValueError(f"term {i}: factor has shape {term.shape}, expected {n} rows")
        roots.append(norm_reference(term))
        if not math.isfinite(roots[-1]):
            raise ValueError(f"term {i}: factor has non-finite entries")
    live = [(term, r) for term, r in zip(terms, roots) if r > 0.0]
    if not live:
        return np.zeros((n, n))
    root_total = math.sqrt(sum(r for _, r in live))
    return qr_factor_reference(*(term * (root_total / math.sqrt(r)) for term, r in live))


def outcome(fn, *args):
    """``fn(*args)``, or the message of the ``ValueError`` it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return str(err)


class TestQrFactor:
    def test_one_row_is_the_norm_bit_for_bit(self):
        # squares of entries near 1e300 overflow, and both forms give inf;
        # near 1e-300 they underflow, and both scale by the largest entry
        rng = np.random.default_rng(17)
        with np.errstate(over="ignore"):
            for _ in range(2000):
                blocks = [wide_entries(rng, (1, int(w))) for w in rng.integers(1, 6, size=2)]
                if rng.random() < 0.3:  # moderate entries, where the order of the sum shows
                    blocks = [rng.standard_normal(b.shape) for b in blocks]
                assert same_bits(_qr_factor(*blocks), qr_factor_reference(*blocks))


class TestTraceMinSum:
    def test_bits_match_the_norm_reference(self):
        # random factor lists, some Fortran-ordered or transposed, some with a
        # zero, non-finite, overflowing or mis-sized term: the same factor bit
        # for bit, or the same rejection
        rng = np.random.default_rng(23)
        kinds = {"bits": 0, "rejected": 0}
        with np.errstate(over="ignore"):
            for _ in range(1500):
                n = int(rng.integers(1, 5))
                factors = []
                for _ in range(int(rng.integers(1, 4))):
                    cols = int(rng.integers(1, 6))
                    term = rng.standard_normal((n, cols)) * 10.0 ** rng.uniform(-8.0, 8.0)
                    draw = rng.random()
                    if draw < 0.1:
                        term = wide_entries(rng, (n, cols))
                    elif draw < 0.2:
                        term = np.zeros((n, cols))
                    elif draw < 0.35:
                        term = np.asfortranarray(term)
                    elif draw < 0.5:
                        term = rng.standard_normal((cols, n)).T
                    elif draw < 0.55:
                        term[rng.integers(n), rng.integers(cols)] = rng.choice([np.nan, np.inf])
                    elif draw < 0.6:
                        term = rng.standard_normal((n + 1, cols))
                    factors.append(term)
                expected = outcome(trace_min_sum_reference, factors)
                got = outcome(trace_min_sum, factors)
                if isinstance(expected, str):
                    kinds["rejected"] += 1
                    assert got == expected
                else:
                    kinds["bits"] += 1
                    assert same_bits(got, expected)
        assert min(kinds.values()) >= 100

    def test_two_unit_balls(self):
        out = trace_min_sum([np.eye(2), np.eye(2)])
        assert out.shape == (2, 2)
        assert np.allclose(out @ out.T, 4.0 * np.eye(2), atol=1e-14)

    def test_centers_add(self):
        # the bound of member sums is centered on the sum of the centers
        rng = np.random.default_rng(2)
        terms = [
            Ellipsoid([1.0, 2.0], random_spd(rng, 2)),
            Ellipsoid([3.0, -1.0], random_spd(rng, 2)),
        ]
        shape = sum_bound([t.shape for t in terms])
        bound = Ellipsoid(np.sum([t.center for t in terms], axis=0), shape)
        assert np.allclose(bound.center, [4.0, 1.0])
        assert contains(bound, terms[0].center + terms[1].center)

    def test_pair_matches_grid_oracle(self):
        out = trace_min_sum([np.diag([2.0, 1.0]), np.eye(2)])
        assert np.allclose(np.diag(out @ out.T), [9.11096096, 4.21359436], atol=1e-7)

    def test_single_term_unchanged(self):
        # one term takes weight 1, and the QR of a triangular factor keeps it
        for factor in (np.array([[5.0]]), np.array([[2.0, 0.0], [1.0, 3.0]])):
            assert np.array_equal(trace_min_sum([factor]), factor)

    def test_zero_trace_terms_shift_center_only(self):
        # a zero-trace term is a point: it adds nothing to the shape
        out = trace_min_sum([np.zeros((2, 2)), np.eye(2)])
        assert np.allclose(out @ out.T, np.eye(2))

    def test_small_terms_are_kept(self):
        # only an exactly zero factor is a point: in one dimension the bound
        # is the exact sum, however small a term is against the other
        for small in (1e-9, 1e-200, 5e-324):
            out = trace_min_sum([[[small]], [[1.0]]])
            assert out[0, 0] == 1.0 + small
        out = trace_min_sum([1e-9 * np.eye(2), np.eye(2)])
        assert np.allclose(out @ out.T, (1.0 + 1e-9) ** 2 * np.eye(2), rtol=1e-15, atol=0)

    def test_tiny_terms_are_live(self):
        # a factor is a point only when every entry is exactly zero: entries
        # whose squares underflow still give the term its weight and its norm
        assert trace_min_sum([[[1e-163]]])[0, 0] == 1e-163
        assert trace_min_sum([[[5e-324]], [[0.0]]])[0, 0] == 5e-324
        assert trace_min_sum([[[3e-170]], [[4e-170]]])[0, 0] == pytest.approx(7e-170, rel=1e-15)
        out = trace_min_sum([np.diag([1e-163, 2e-163])])
        assert np.allclose(np.abs(np.diag(out)), [1e-163, 2e-163], rtol=1e-15, atol=0)

    def test_all_zero_terms_give_point(self):
        out = trace_min_sum([np.zeros((1, 1)), np.zeros((1, 1))])
        assert out.shape == (1, 1)
        assert np.all(out == 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expected"):
            trace_min_sum([np.eye(1), np.eye(2)])

    def test_invalid_terms_rejected(self):
        # any real factor has a PSD product; its rows must match, its entries be finite
        with pytest.raises(ValueError, match="at least one"):
            trace_min_sum([])
        with pytest.raises(ValueError, match=r"term 1: factor has shape \(3, 2\), expected 2 rows"):
            trace_min_sum([np.ones((2, 3)), np.ones((3, 2))])
        with pytest.raises(ValueError, match=r"term 1: factor has shape \(1, 2, 2\)"):
            trace_min_sum([np.eye(2), np.ones((1, 2, 2))])
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
            out = sum_bound([s1, s2])
            assert np.max(np.abs(out - pair_sum_shape(s1, s2, beta))) < 1e-10

    def test_containment_of_member_sums(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            count = int(rng.integers(1, 5))
            terms, center = random_terms(rng, n, count)
            bound = Ellipsoid(center, sum_bound([t.shape for t in terms]))
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
            bound = sum_bound(shapes)
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
            out = sum_bound([t.shape for t in terms])
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
