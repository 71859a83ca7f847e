"""Property tests for the Minkowski-sum bound, the matrix rule and its
factor, the beta search, the update's kink tests and the set guarantee of
the whole recursion.

Inputs span dimensions 1-5, scales 1e-6 to 1e6 and rank-deficient
terms (set terms of the sum; observation maps of the update). Runs are
derandomized, so every run checks the same examples.

The rule's factor L = V sqrt(max(lambda, 0)) comes from ``eigh``, whose
rounding is of order eps * |entries|, so L L^T matches the matrix only up
to ``ROUNDING`` times its largest entry. A stack of two matrices must be
factored exactly, bit for bit, like each matrix alone, whichever slot
the drawn matrix takes.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from skf.ellipsoid import (
    EPS_TRACE,
    _check_psd,
    _qr_factor,
    _scale_tol,
    membership_form,
    pair_sum_shape,
    symmetrize,
    trace_min_sum,
)
from skf.filter import (
    _LIMIT_REGIMES,
    FilterConfig,
    StateBelief,
    _kink_tests,
    _UpdateContext,
    _beta_cost,
    _update_terms,
    skf_gain,
    skf_predict,
    skf_update,
)
from skf.model import Linearization, linearize_measurement
from skf.optimizer import ScalarProblem, minimize_scalar
from skf.validation import _CONTAINMENT_TOL, _linear_system, _recursion_forms

ROUNDING = 64 * np.finfo(float).eps
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def factor_terms(draw, n, min_rank=0):
    """An n x rank factor, of random rank and of a shape at scale 1e-6 .. 1e6."""
    rank = draw(st.integers(min_rank, n))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    factor = draw(arrays(np.float64, (n, rank), elements=st.floats(-1.0, 1.0)))
    return np.sqrt(scale) * factor


@st.composite
def psd_terms(draw, n, min_rank=0):
    """A symmetric PSD n x n matrix of random rank and scale 1e-6 .. 1e6."""
    factor = draw(factor_terms(n, min_rank))
    return symmetrize(factor @ factor.T)


@st.composite
def term_families(draw, min_count=1, max_count=4, min_rank=0):
    n = draw(st.integers(1, 5))
    count = draw(st.integers(min_count, max_count))
    return [draw(factor_terms(n, min_rank)) for _ in range(count)]


@PROPERTY
@given(term_families())
def test_trace_min_sum_symmetric_psd(factors):
    out = trace_min_sum(factors)
    n = factors[0].shape[0]
    assert out.shape == (n, n)
    shape = out @ out.T
    assert np.array_equal(shape, shape.T)
    assert np.linalg.eigvalsh(shape)[0] >= -_scale_tol(shape)


@PROPERTY
@given(term_families(min_count=2, max_count=2, min_rank=1))
def test_trace_min_sum_pair_matches_closed_form(factors):
    s1, s2 = (f @ f.T for f in factors)
    tr1, tr2 = float(np.trace(s1)), float(np.trace(s2))
    assume(min(tr1, tr2) > EPS_TRACE)
    expected = pair_sum_shape(s1, s2, np.sqrt(tr1 / tr2))
    out = trace_min_sum(factors)
    gap = float(np.max(np.abs(out @ out.T - expected)))
    assert gap <= 1e-10 * float(np.max(np.abs(expected)))


def psd_pairs(min_n):
    """Two symmetric PSD matrices of one size, for the stacked checks."""
    return st.integers(min_n, 5).flatmap(lambda n: st.tuples(psd_terms(n), psd_terms(n)))


def in_slot(mat, other, slot):
    """A 2-stack with ``mat`` in ``slot`` and ``other`` in the remaining one."""
    return np.stack([mat, other] if slot == 0 else [other, mat])


@PROPERTY
@given(psd_pairs(1), st.sampled_from([0, 1]))
def test_matrix_rule_factor_reproduces_the_matrix(pair, slot):
    mat, other = pair
    (once,), (eigmin,), (factor,) = _check_psd(mat[None])
    rounding = ROUNDING * float(np.max(np.abs(mat)))
    assert np.array_equal(once, mat)  # exactly symmetric input is kept as is
    assert np.max(np.abs(factor @ factor.T - mat)) <= rounding
    assert eigmin >= -_scale_tol(mat)
    _, _, stacked = _check_psd(in_slot(mat, other, slot), names=("a", "b"))
    assert np.array_equal(stacked[slot], factor)
    _, _, (other_factor,) = _check_psd(other[None])
    assert np.array_equal(stacked[1 - slot], other_factor)


@PROPERTY
@given(psd_pairs(2), st.sampled_from([0, 1]))
def test_matrix_rule_asymmetry_threshold(pair, slot):
    mat, other = pair
    tol = _scale_tol(mat)
    below = mat.copy()
    below[0, 1] += 0.99 * tol
    _check_psd(below)
    _check_psd(in_slot(below, other, slot), names=("a", "b"))
    above = mat.copy()
    above[0, 1] += 1.01 * tol
    with pytest.raises(ValueError, match="^matrix asymmetry"):
        _check_psd(above)
    name = "ab"[slot]
    with pytest.raises(ValueError, match=f"^{name}: matrix asymmetry"):
        _check_psd(in_slot(above, other, slot), names=("a", "b"))


# --- beta search -----------------------------------------------------------

LOG_GRID = np.linspace(-20.0, 20.0, 2001)


def low_rank(draw, rows, cols):
    """A rows x cols matrix of random rank 1 .. min(rows, cols)."""
    rank = draw(st.integers(1, min(rows, cols)))
    left = draw(arrays(np.float64, (rows, rank), elements=st.floats(-1.0, 1.0)))
    right = draw(arrays(np.float64, (rank, cols), elements=st.floats(-1.0, 1.0)))
    return (left + np.eye(rows, rank)) @ (right + np.eye(rank, cols))


@st.composite
def update_problems(draw):
    """An update with both set terms live: dimensions 1-5, one scale 1e-6 .. 1e6
    for every covariance and shape, and h_x, h_b of any rank.

    Covariances and shapes are positive definite. The slope parts are
    traces through S and S_z, so their rounding in a null direction of
    either would set the sign of the slope where it vanishes.
    """
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))

    def spd(k):
        factor = low_rank(draw, k, k)
        return scale * symmetrize(factor @ factor.T + 0.1 * np.eye(k))

    belief = StateBelief(np.zeros(n), spd(n), spd(n), "prior", 1)
    lin = factored_linearization(
        h_x=low_rank(draw, m, n),
        h_v=np.eye(m),
        h_b=low_rank(draw, m, m),
        meas_noise_cov=spd(m),
        meas_ubb_shape=spd(m),
    )
    cfg = FilterConfig(eta=draw(st.sampled_from([0.25, 0.5, 0.75])))
    ctx = _UpdateContext(belief, lin, cfg.eta)
    result = minimize_scalar(ScalarProblem(objective=_beta_cost(ctx)))
    return belief, lin, cfg, scale, result


def factored_linearization(meas_noise_cov, meas_ubb_shape, **fields):
    """A measurement ``Linearization`` whose noise factors are the matrices' Cholesky factors."""
    return Linearization(
        **fields,
        meas_noise_factor=np.linalg.cholesky(np.atleast_2d(meas_noise_cov)),
        meas_ubb_factor=np.linalg.cholesky(np.atleast_2d(meas_ubb_shape)),
    )


def grid_oracle(belief, lin, eta, betas):
    """Update cost, in Joseph form, and its envelope log-slope for each beta.

    The slope is eta (beta tr T2 - tr T1 / beta) at the stationary gain.
    T2 is formed as (K H_b) S_z (K H_b)^T, so no rounding of H_b S_z H_b^T
    is scaled up by 1 + beta.
    """
    h_x, h_b = lin.h_x, lin.h_b
    c, s = belief.cov, belief.shape
    c_z, s_z = (f @ f.T for f in (lin.meas_noise_factor, lin.meas_ubb_factor))
    p, q = 1 + 1 / betas, 1 + betas
    r = lin.h_v @ c_z @ lin.h_v.T
    z = h_b @ s_z @ h_b.T
    cross = (1 - eta) * (c @ h_x.T)[None] + eta * p[:, None, None] * (s @ h_x.T)[None]
    bracket = (1 - eta) * (h_x @ c @ h_x.T + r)[None] + eta * (
        p[:, None, None] * (h_x @ s @ h_x.T)[None] + q[:, None, None] * z[None]
    )
    bracket = 0.5 * (bracket + np.swapaxes(bracket, 1, 2))
    gain = np.swapaxes(np.linalg.solve(bracket, np.swapaxes(cross, 1, 2)), 1, 2)
    ikh = np.eye(c.shape[0])[None] - gain @ h_x
    gain_b = gain @ h_b

    def tr(left, mid):
        return np.trace(left @ mid @ np.swapaxes(left, 1, 2), axis1=1, axis2=2)

    t_prior, t_meas = tr(ikh, s), tr(gain_b, s_z)
    costs = (1 - eta) * (tr(ikh, c) + tr(gain, r)) + eta * (p * t_prior + q * t_meas)
    return costs, eta * (betas * t_meas - t_prior / betas)


@PROPERTY
@given(update_problems())
def test_interior_beta_meets_envelope_identity(problem):
    belief, lin, cfg, _, result = problem
    assume(result.regime == "interior")
    gain = skf_gain(belief, lin, cfg, result.beta)
    # T1 = B_S B_S^T, T2 = B_z B_z^T
    _, _, t_prior, t_meas = _update_terms(_UpdateContext(belief, lin, cfg.eta), gain)
    identity = result.beta**2 * np.sum(t_meas * t_meas) / np.sum(t_prior * t_prior)
    assert abs(identity - 1.0) <= 1e-8


@PROPERTY
@given(update_problems())
def test_beta_search_beats_log_grid(problem):
    belief, lin, cfg, scale, result = problem
    at_star = grid_oracle(belief, lin, cfg.eta, np.array([result.beta]))[0][0]
    on_grid, _ = grid_oracle(belief, lin, cfg.eta, np.exp(LOG_GRID))
    assert at_star <= on_grid.min() + 1e-9 * scale


@PROPERTY
@given(update_problems())
def test_limit_regime_slope_keeps_one_sign(problem):
    belief, lin, cfg, _, result = problem
    assume(result.regime != "interior")
    assert result.beta in (np.exp(-20.0), np.exp(20.0))
    assert result.evals == 2
    _, slopes = grid_oracle(belief, lin, cfg.eta, np.exp(LOG_GRID))
    assert np.all(slopes >= 0.0) or np.all(slopes <= 0.0)


@st.composite
def factored_update_problems(draw):
    """An update's context with S and S_z of any rank, zero included, and eta in (0, 1).

    C and C_z are positive definite, so the gain's bracket is. The prior
    shape is L L^T of an n x rank factor of ``factor_terms``, and the
    measurement set is given by an m x rank factor L_Sz of its own.
    """
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def spd(k):
        factor = low_rank(draw, k, k)
        return symmetrize(factor @ factor.T + 0.1 * np.eye(k))

    l_s = draw(factor_terms(n))
    belief = StateBelief(np.zeros(n), spd(n), symmetrize(l_s @ l_s.T), "prior", 1)
    lin = Linearization(
        h_x=low_rank(draw, m, n),
        h_v=np.eye(m),
        h_b=low_rank(draw, m, m),
        meas_noise_factor=np.linalg.cholesky(spd(m)),
        meas_ubb_factor=draw(factor_terms(m)),
    )
    return _UpdateContext(belief, lin, draw(st.floats(0.01, 0.99)))


@PROPERTY
@given(factored_update_problems(), st.floats(-20.0, 20.0))
def test_search_cost_is_the_posteriors_own_cost(ctx, log_beta):
    # J, up and down are the squared norms of the posterior's covariance
    # factor and shape blocks at the gain the cost solves for; up and down
    # are sums of squares, never below zero
    beta = float(np.exp(log_beta))
    p, q, eta = 1.0 + 1.0 / beta, 1.0 + beta, ctx.eta
    value, up, down = _beta_cost(ctx)(beta)
    b_c, b_v, b_s, b_z = _update_terms(ctx, ctx.gain(p, q))
    cov_factor = _qr_factor(b_c, b_v)  # the posterior's, as skf_update forms it
    tr_cov, tr_prior, tr_meas = (float(np.sum(b * b)) for b in (cov_factor, b_s, b_z))
    expected = (1 - eta) * tr_cov + eta * (p * tr_prior + q * tr_meas)
    assert value == pytest.approx(expected, rel=1e-12, abs=0)
    assert up == pytest.approx(eta * beta * tr_meas, rel=1e-12, abs=0)
    assert down == pytest.approx(eta * tr_prior / beta, rel=1e-12, abs=0)
    assert up >= 0.0 and down >= 0.0


def log_uniform(low, high):
    return st.floats(np.log10(low), np.log10(high)).map(lambda e: 10.0**e)


NONZERO = st.tuples(st.sampled_from([-1.0, 1.0]), log_uniform(0.1, 10.0)).map(
    lambda pair: pair[0] * pair[1]
)


def scalar_update(spreads, maps, eta):
    """A scalar update's context and the closed-form zero beta* of its slope.

    For n = m = 1, sqrt(up/down) = |h_x| sqrt(N/S) (A beta + eta S)/(B + eta N beta)
    with A = (1-eta) C + eta S, B = (1-eta) R + eta N, R = h_v^2 C_z and
    N = h_b^2 S_z: a linear-fractional function of beta with one zero.
    """
    c, s, c_z, s_z = spreads
    h_x, h_v, h_b = maps
    r, n = h_v**2 * c_z, h_b**2 * s_z
    a, b = (1 - eta) * c + eta * s, (1 - eta) * r + eta * n
    k = abs(h_x) * np.sqrt(n / s)
    beta_star = (b - eta * abs(h_x) * np.sqrt(n * s)) / (k * a - eta * n)

    belief = StateBelief([0.0], [[c]], [[s]], "prior", 1)
    lin = factored_linearization(
        h_x=np.array([[h_x]]),
        h_v=np.array([[h_v]]),
        h_b=np.array([[h_b]]),
        meas_noise_cov=np.array([[c_z]]),
        meas_ubb_shape=np.array([[s_z]]),
    )
    return _UpdateContext(belief, lin, eta), beta_star


SCALAR_INPUTS = (
    st.tuples(*[log_uniform(1e-3, 1e3)] * 4),
    st.tuples(NONZERO, NONZERO, NONZERO),
    st.floats(0.01, 0.99),
)


@PROPERTY
@given(*SCALAR_INPUTS)
def test_scalar_search_meets_closed_form(spreads, maps, eta):
    ctx, beta_star = scalar_update(spreads, maps, eta)
    result = minimize_scalar(ScalarProblem(objective=_beta_cost(ctx)))
    if beta_star > 0 and -20.0 < np.log(beta_star) < 20.0:
        assert result.regime == "interior"
        assert abs(np.log(result.beta) - np.log(beta_star)) <= 1e-6
        assert result.evals <= 9
    else:
        assert result.regime in ("lower", "upper")


# --- kink tests ------------------------------------------------------------


@st.composite
def square_problems(draw):
    """An update with square h_x (n = m = 1-4), positive definite covariances
    and shapes, both set terms live, and its context. Every matrix has the
    scale 1e-6 .. 1e6 of the problem, the two shapes each a factor of
    1e-3 .. 1e3 beyond it, so both kinks occur."""
    n = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))

    def spd(spread=0.0):
        factor = draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
        return scale * 10.0**spread * symmetrize(factor @ factor.T + 0.1 * np.eye(n))

    def square():
        return draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0))) + np.eye(n)

    spreads = st.sampled_from([-3.0, -1.5, 0.0, 1.5, 3.0])
    belief = StateBelief(np.zeros(n), spd(), spd(draw(spreads)), "prior", 1)
    lin = factored_linearization(
        h_x=square(),
        h_v=np.eye(n),
        h_b=square(),
        meas_noise_cov=spd(),
        meas_ubb_shape=spd(draw(spreads)),
    )
    eta = draw(st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]))
    return belief, lin, eta, _UpdateContext(belief, lin, eta)


def certify(ctx):
    return _kink_tests(ctx, float(np.trace(ctx.belief.shape)))


def reduced_cost(belief, lin, eta, gain):
    """J*(K) = (1 - eta) tr C+(K) + eta (||(I - K H_x) L_S||_F + ||K H_b L_Sz||_F)^2."""
    b_c, b_v, t_prior, t_meas = _update_terms(_UpdateContext(belief, lin, eta), gain)
    a, b = np.linalg.norm(t_prior), np.linalg.norm(t_meas)
    return (1 - eta) * float(np.sum(b_c * b_c) + np.sum(b_v * b_v)) + eta * (a + b) ** 2


@PROPERTY
@given(square_problems())
def test_kink_tests_agree_with_the_search(problem):
    # a certified regime is the one the search ends in; an uncertified square
    # problem has an interior minimizer, and the search finds it
    _, _, _, ctx = problem
    regime, gain, ratios = certify(ctx)
    result = minimize_scalar(ScalarProblem(objective=_beta_cost(ctx)))
    if regime is None:
        assert result.regime == "interior"
        assert all(r is None or r > 1.0 for r in ratios)
    else:
        assert _LIMIT_REGIMES[result.regime] == regime
        assert min(r for r in ratios if r is not None) <= 1.0


@PROPERTY
@given(square_problems(), st.integers(0, 2**32 - 1))
def test_certified_gain_minimizes_the_reduced_cost(problem, seed):
    # the certificate: J* at the certified limit gain is not above J* at any
    # nearby gain, up to the rounding of J*
    belief, lin, eta, ctx = problem
    regime, gain, _ = certify(ctx)
    assume(regime is not None)
    at_kink = reduced_cost(belief, lin, eta, gain)
    rng = np.random.default_rng(seed)
    size = 1e-3 * max(1.0, float(np.max(np.abs(gain))))
    for _ in range(20):
        delta = size * rng.standard_normal(gain.shape) * 10.0 ** rng.uniform(-3.0, 0.0)
        assert at_kink <= reduced_cost(belief, lin, eta, gain + delta) * (1.0 + 1e-12)


@PROPERTY
@given(*SCALAR_INPUTS)
def test_scalar_kink_tests_certify_exactly_without_interior_zero(spreads, maps, eta):
    # beta* of scalar_update is the only zero of the slope: the kink tests
    # certify exactly where it is not a positive beta, with the search's regime
    ctx, beta_star = scalar_update(spreads, maps, eta)
    regime, _, _ = certify(ctx)
    assert (regime is None) == (beta_star > 0)
    if regime is not None:
        result = minimize_scalar(ScalarProblem(objective=_beta_cost(ctx)))
        assert _LIMIT_REGIMES[result.regime] == regime


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 6), st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
def test_posterior_shape_is_at_most_the_pair_bound(n, m, eta, seed):
    # the posterior shape, trace_min_sum of the gain's own blocks, is never
    # above p T1 + q T2 at the reported beta for the same gain; a tall h_x
    # (m > n) leaves beta -> 0 to the search, whose limit keeps its bracket end
    rng = np.random.default_rng(seed)
    model, belief = _linear_system(rng, n, m)
    prior = skf_predict(belief, model, np.zeros(0), 1)
    _, report = skf_update(prior, rng.standard_normal(m), model, FilterConfig(eta), 1)
    lin = linearize_measurement(model, prior.center, 1)
    _, _, b_s, b_z = _update_terms(_UpdateContext(prior, lin, eta), report.gain)
    beta = report.beta_star
    pair = (1 + 1 / beta) * float(np.sum(b_s * b_s)) + (1 + beta) * float(np.sum(b_z * b_z))
    assert report.regime != "single_set"
    assert report.trace_shape <= (1.0 + 1e-12) * pair


def test_searched_limit_shape_holds_the_gains_worst_point():
    # a tall h_x leaves beta -> 0 to the search, whose gain at beta = e^-20
    # leaves B_S of extent O(e^-20): live, though its trace is below
    # EPS_TRACE. With one state the worst point of c + B_S u1 + B_z u2 is
    # c + |B_S| + ||B_z||; dropping B_S would miss it by about
    # 2 |B_S| / ||B_z|| in the form.
    searched = 0
    for seed in range(12):
        model, belief = _linear_system(np.random.default_rng(seed), 1, 2)
        prior = skf_predict(belief, model, np.zeros(0), 1)
        post, report = skf_update(prior, np.zeros(2), model, FilterConfig(0.5), 1)
        if report.regime != "beta_to_zero":
            continue
        searched += 1
        assert report.evals > 0
        lin = linearize_measurement(model, prior.center, 1)
        _, _, b_s, b_z = _update_terms(_UpdateContext(prior, lin, 0.5), report.gain)
        assert 0.0 < float(np.sum(b_s * b_s)) <= EPS_TRACE
        assert np.abs(b_s).sum() > 1e-11 * np.linalg.norm(b_z)
        worst = post.center + np.abs(b_s).sum() + np.linalg.norm(b_z)
        assert membership_form(post.center, post.shape_factor, worst) <= 1.0 + _CONTAINMENT_TOL
    assert searched >= 5


# --- recursion containment -------------------------------------------------


@PROPERTY
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.floats(0.01, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_recursion_keeps_truth_inside_every_set(n, m, eta, seed):
    # A linear system whose only disturbances are bounded, each drawn on its
    # ellipsoid's boundary: the truth must lie in center + S after every
    # predict and update of 30 steps. A square or tall h_x (m >= n) lets the
    # gain annul the prior set, so beta_to_zero steps occur. eta starts at
    # 0.01: near 0, a tall h_x with zero Gaussian covariances leaves the
    # gain's bracket singular to rounding, which the update refuses.
    rng = np.random.default_rng(seed)
    forms = _recursion_forms(*_linear_system(rng, n, m), eta, 30, rng)
    assert forms.max() <= 1.0 + _CONTAINMENT_TOL


@pytest.mark.xfail(strict=True, reason="beta* lies in the noisy lower tail of the search's G")
def test_scalar_search_noisy_tail_known_failures():
    # Three inputs that the property above does not draw, each with closed-form
    # beta* = 1e-4, where G = log(up) - log(down) is rounding noise (ROADMAP
    # items 7 and 2): the first search returns "lower" after 2 evaluations,
    # the other two reach beta* in 10 and 11 evaluations, against a bound of 9.
    check = test_scalar_search_meets_closed_form.hypothesis.inner_test
    failures = []
    for s in (1000.0, 100.0, 10.0):
        try:
            check((1.0, s, 0.01, s), (-1.0, -0.1, -1.0), 0.75)
        except AssertionError:
            failures.append(s)
    assert not failures, f"the search misses beta* = 1e-4 at S = S_z in {failures}"
