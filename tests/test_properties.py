"""Property tests for the Minkowski-sum bound, the conditioning routine,
the beta search and the set guarantee of the whole recursion.

Inputs span dimensions 1-5, scales 1e-6 to 1e6 and rank-deficient
terms (set terms of the sum; observation maps of the update). Runs are
derandomized, so every run checks the same examples.

``_condition`` re-runs ``eigvalsh`` on its own output. That value carries
rounding error of order eps * |entries|. So "idempotent" and "eigmin at
least floor" hold only up to ``ROUNDING`` times the largest entry. Over
3000 random cases the worst deviation measured was 8e-16 of that entry.
A stack of two matrices must be conditioned exactly, bit for bit, like
each matrix alone, whichever slot the drawn matrix takes.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from skf.ellipsoid import EPS_TRACE, _scale_tol, pair_sum_shape, symmetrize, trace_min_sum
from skf.filter import (
    COV_FLOOR,
    FilterConfig,
    NumericsError,
    StateBelief,
    _UpdateContext,
    _beta_cost,
    _condition,
    _update_terms,
    skf_gain,
)
from skf.model import Linearization
from skf.optimizer import ScalarProblem, minimize_scalar
from skf.validation import _CONTAINMENT_TOL, _linear_system, _recursion_forms

ROUNDING = 64 * np.finfo(float).eps
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def psd_terms(draw, n, min_rank=0):
    """A symmetric PSD n x n matrix of random rank and scale 1e-6 .. 1e6."""
    rank = draw(st.integers(min_rank, n))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    factor = draw(arrays(np.float64, (n, rank), elements=st.floats(-1.0, 1.0)))
    return symmetrize(scale * (factor @ factor.T))


@st.composite
def term_families(draw, min_count=1, max_count=4, min_rank=0):
    n = draw(st.integers(1, 5))
    count = draw(st.integers(min_count, max_count))
    return [draw(psd_terms(n, min_rank)) for _ in range(count)]


@PROPERTY
@given(term_families())
def test_trace_min_sum_symmetric_psd(shapes):
    out = trace_min_sum(shapes)
    assert np.array_equal(out, out.T)
    assert np.linalg.eigvalsh(out)[0] >= -_scale_tol(out)


@PROPERTY
@given(term_families(min_count=2, max_count=2, min_rank=1))
def test_trace_min_sum_pair_matches_closed_form(shapes):
    s1, s2 = shapes
    tr1, tr2 = float(np.trace(s1)), float(np.trace(s2))
    assume(min(tr1, tr2) > EPS_TRACE)
    expected = pair_sum_shape(s1, s2, np.sqrt(tr1 / tr2))
    gap = float(np.max(np.abs(trace_min_sum(shapes) - expected)))
    assert gap <= 1e-10 * float(np.max(np.abs(expected)))


def psd_pairs(min_n):
    """Two symmetric PSD matrices of one size, for the stacked checks."""
    return st.integers(min_n, 5).flatmap(lambda n: st.tuples(psd_terms(n), psd_terms(n)))


FLOORS = st.sampled_from([0.0, COV_FLOOR, 1e-6, 1.0])


def in_slot(mat, other, slot):
    """A 2-stack with ``mat`` in ``slot`` and ``other`` in the remaining one."""
    return np.stack([mat, other] if slot == 0 else [other, mat])


@PROPERTY
@given(psd_pairs(1), FLOORS, FLOORS, st.sampled_from([0, 1]))
def test_condition_lifts_to_floor_and_is_idempotent(pair, floor, other_floor, slot):
    mat, other = pair
    once = _condition(mat, floor, step=3, what="mat")
    twice = _condition(once, floor, step=3, what="mat")
    rounding = ROUNDING * float(np.max(np.abs(once)))
    assert np.array_equal(once, once.T)
    assert np.max(np.abs(twice - once)) <= rounding
    assert np.linalg.eigvalsh(once)[0] >= floor - rounding
    floors = np.array([floor, other_floor] if slot == 0 else [other_floor, floor])
    stacked = _condition(in_slot(mat, other, slot), floors, step=3, what=("a", "b"))
    assert np.array_equal(stacked[slot], once)
    other_once = _condition(other, other_floor, step=3, what="other")
    assert np.array_equal(stacked[1 - slot], other_once)


@PROPERTY
@given(psd_pairs(2), st.integers(0, 10_000), st.sampled_from([0, 1]))
def test_condition_asymmetry_threshold(pair, step, slot):
    mat, other = pair
    tol = _scale_tol(mat)
    below = mat.copy()
    below[0, 1] += 0.99 * tol
    _condition(below, 0.0, step=step, what="mat")
    _condition(in_slot(below, other, slot), 0.0, step=step, what=("a", "b"))
    above = mat.copy()
    above[0, 1] += 1.01 * tol
    with pytest.raises(NumericsError, match="asymmetry") as exc:
        _condition(above, 0.0, step=step, what="mat")
    assert exc.value.step == step
    assert str(exc.value).startswith(f"step {step}:")
    name = "ab"[slot]
    with pytest.raises(NumericsError, match=f"{name}: matrix asymmetry") as exc:
        _condition(in_slot(above, other, slot), 0.0, step=step, what=("a", "b"))
    assert exc.value.step == step
    assert str(exc.value).startswith(f"step {step}:")


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
    lin = Linearization(
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
    _, t_prior, t_meas = _update_terms(belief, lin, gain)
    identity = result.beta**2 * np.trace(t_meas) / np.trace(t_prior)
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
