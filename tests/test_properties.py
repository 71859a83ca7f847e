"""Property tests for the Minkowski-sum bound, the matrix rule and its
factor, the beta search and the set guarantee of the whole recursion.

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
    _scale_tol,
    pair_sum_shape,
    symmetrize,
    trace_min_sum,
)
from skf.filter import (
    FilterConfig,
    StateBelief,
    _UpdateContext,
    _beta_cost,
    _update_terms,
    skf_gain,
)
from skf.model import Linearization
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


def factored_linearization(**fields):
    """A measurement ``Linearization`` whose noise matrices carry Cholesky factors."""
    c_z, s_z = (np.atleast_2d(fields[name]) for name in ("meas_noise_cov", "meas_ubb_shape"))
    return Linearization(
        **fields, meas_noise_factor=np.linalg.cholesky(c_z), meas_ubb_factor=np.linalg.cholesky(s_z)
    )


def grid_oracle(belief, lin, eta, betas):
    """Update cost, in Joseph form, and its envelope log-slope for each beta.

    The slope is eta (beta tr T2 - tr T1 / beta) at the stationary gain.
    T2 is formed as (K H_b) S_z (K H_b)^T, so no rounding of H_b S_z H_b^T
    is scaled up by 1 + beta.
    """
    h_x, h_b = lin.h_x, lin.h_b
    c, s = belief.cov, belief.shape
    p, q = 1 + 1 / betas, 1 + betas
    r = lin.h_v @ lin.meas_noise_cov @ lin.h_v.T
    z = h_b @ lin.meas_ubb_shape @ h_b.T
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

    t_prior, t_meas = tr(ikh, s), tr(gain_b, lin.meas_ubb_shape)
    costs = (1 - eta) * (tr(ikh, c) + tr(gain, r)) + eta * (p * t_prior + q * t_meas)
    return costs, eta * (betas * t_meas - t_prior / betas)


@PROPERTY
@given(update_problems())
def test_interior_beta_meets_envelope_identity(problem):
    belief, lin, cfg, _, result = problem
    assume(result.regime == "interior")
    gain = skf_gain(belief, lin, cfg, result.beta)
    _, t_prior, t_meas = _update_terms(belief, lin, gain)  # T1 = B1 B1^T, T2 = B2 B2^T
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
    _, slopes = grid_oracle(belief, lin, cfg.eta, np.exp(LOG_GRID))
    assert np.all(slopes >= 0.0) or np.all(slopes <= 0.0)


def log_uniform(low, high):
    return st.floats(np.log10(low), np.log10(high)).map(lambda e: 10.0**e)


NONZERO = st.tuples(st.sampled_from([-1.0, 1.0]), log_uniform(0.1, 10.0)).map(
    lambda pair: pair[0] * pair[1]
)


@PROPERTY
@given(
    st.tuples(*[log_uniform(1e-3, 1e3)] * 4),
    st.tuples(NONZERO, NONZERO, NONZERO),
    st.floats(0.01, 0.99),
)
def test_scalar_search_meets_closed_form(spreads, maps, eta):
    # For n = m = 1, sqrt(up/down) = |h_x| sqrt(N/S) (A beta + eta S)/(B + eta N beta)
    # with A = (1-eta) C + eta S, B = (1-eta) R + eta N, R = h_v^2 C_z and
    # N = h_b^2 S_z: a linear-fractional function of beta with one zero.
    c, s, c_z, s_z = spreads
    h_x, h_v, h_b = maps
    r, n = h_v**2 * c_z, h_b**2 * s_z
    a, b = (1 - eta) * c + eta * s, (1 - eta) * r + eta * n
    k = abs(h_x) * np.sqrt(n / s)
    beta_star = (b - eta * abs(h_x) * np.sqrt(n * s)) / (k * a - eta * n)

    belief = StateBelief([0.0], [[c]], [[s]], "prior", 1)
    lin = Linearization(
        h_x=np.array([[h_x]]),
        h_v=np.array([[h_v]]),
        h_b=np.array([[h_b]]),
        meas_noise_cov=np.array([[c_z]]),
        meas_ubb_shape=np.array([[s_z]]),
    )
    result = minimize_scalar(ScalarProblem(objective=_beta_cost(_UpdateContext(belief, lin, eta))))
    if beta_star > 0 and -20.0 < np.log(beta_star) < 20.0:
        assert result.regime == "interior"
        assert abs(np.log(result.beta) - np.log(beta_star)) <= 1e-6
        assert result.evals <= 9
    else:
        assert result.regime in ("lower", "upper")


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
