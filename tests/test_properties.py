"""Property tests for the Minkowski-sum bound and the conditioning routine.

Inputs span dimensions 1-5, scales 1e-6 to 1e6 and rank-deficient
terms. Runs are derandomized, so every run checks the same examples.

``_condition`` re-runs ``eigvalsh`` on its own output. That value carries
rounding error of order eps * |entries|. So "idempotent" and "eigmin at
least floor" hold only up to ``ROUNDING`` times the largest entry. Over
3000 random cases the worst deviation measured was 8e-16 of that entry.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from skf.ellipsoid import EPS_TRACE, _scale_tol, pair_sum_shape, symmetrize, trace_min_sum
from skf.filter import COV_FLOOR, NumericsError, _condition

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


@PROPERTY
@given(
    st.integers(1, 5).flatmap(psd_terms),
    st.sampled_from([0.0, COV_FLOOR, 1e-6, 1.0]),
)
def test_condition_lifts_to_floor_and_is_idempotent(mat, floor):
    once = _condition(mat, floor, step=3, what="mat")
    twice = _condition(once, floor, step=3, what="mat")
    rounding = ROUNDING * float(np.max(np.abs(once)))
    assert np.array_equal(once, once.T)
    assert np.max(np.abs(twice - once)) <= rounding
    assert np.linalg.eigvalsh(once)[0] >= floor - rounding


@PROPERTY
@given(st.integers(2, 5).flatmap(psd_terms), st.integers(0, 10_000))
def test_condition_asymmetry_threshold(mat, step):
    tol = _scale_tol(mat)
    below = mat.copy()
    below[0, 1] += 0.99 * tol
    _condition(below, 0.0, step=step, what="mat")
    above = mat.copy()
    above[0, 1] += 1.01 * tol
    with pytest.raises(NumericsError, match="asymmetry") as exc:
        _condition(above, 0.0, step=step, what="mat")
    assert exc.value.step == step
    assert str(exc.value).startswith(f"step {step}:")
