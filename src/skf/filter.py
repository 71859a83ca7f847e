"""Set-membership Kalman filter recursion and a first-order EKF baseline.

Each belief carries three objects: a center estimate, a covariance C for
the Gaussian error component, and a shape matrix S bounding the set of
possible means. Prediction pushes all three through the process model,
bounding the Minkowski sum of mapped uncertainty ellipsoids by its
trace-minimal outer ellipsoid. The update blends the prior with the
measurement through a gain that is adaptive in a pairing parameter beta,
chosen each step by minimizing a weighted total-uncertainty cost

    J(beta) = (1 - eta) tr C_plus(beta) + eta tr S_plus(beta).

For a gain K the posterior has four factor blocks (``_update_terms``), and
its cost is a sum of their squared norms. At the stationary gain K(beta),
by the envelope theorem, so is the slope

    dJ/dlog(beta) = eta (beta ||B_z||^2 - ||B_S||^2 / beta),

with B_S = (I - K H_x) L_S, B_z = K H_b L_Sz, and T1, T2 their Grams. The
search finds the zero of that slope, or the end of its bracket that the
cost descends to, in a handful of evaluations; ``GainReport`` records
which regime applied and how many evaluations it took.

Before any search, two closed-form tests (``_kink_tests``) decide whether
a limit regime is optimal: beta -> inf, the gain K = 0, or beta -> 0, the
gain K0 = H_x^-1 of a square H_x. These are the kinks of the update cost
with beta minimized out. A certified step takes the exact limit gain
and runs no search; every other step searches.

The beta-independent products are formed once per update, in an
``_UpdateContext``; every gain of the step, both tests and the posterior's
blocks come from it. At eta = 0 the center and covariance recursions
coincide exactly with the extended Kalman filter. ``FilterConfig`` carries
eta alone, a real number in [0, 1]. For eta > 0 the posterior shape has
one rule in every regime: the trace-minimal bound ``trace_min_sum`` of
the gain's two set blocks B_S and B_z. The filter computes from factors
alone: L_C, L_S of a belief's C = L_C L_C^T and S = L_S L_S^T, L_Cz, L_Sz
of the noise. Each new factor is one QR of blocks, so
a computed belief is PSD by construction; its cov and shape are outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Literal

import numpy as np

from .ellipsoid import (
    Ellipsoid,
    _check_psd,
    _identity,
    _qr_factor,
    symmetrize,
    trace_min_sum,
)
from .model import (
    FilterError,
    Linearization,
    NonlinearModel,
    NumericsError,
    linearize_measurement,
    linearize_process,
    wrap_angles,
)
from .optimizer import BRACKET, OptimizerError, ScalarProblem, minimize_scalar


class SingularInnovationError(FilterError):
    """The innovation-covariance bracket of the gain is not invertible."""


@dataclass(frozen=True)
class StateBelief:
    """State estimate: center, Gaussian covariance, and mean-set shape.

    The constructor is the strict check of caller input: cov and shape
    pass ``_check_psd`` together, which also factors them, and cov must be
    positive definite. Beliefs the filter computes are built from their
    factors by ``_computed_belief`` instead.
    """

    center: np.ndarray
    cov: np.ndarray
    shape: np.ndarray
    kind: Literal["prior", "posterior"]
    step: int
    cov_factor: np.ndarray = field(init=False, repr=False, compare=False)
    shape_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if not np.all(np.isfinite(center)):
            raise ValueError("center has non-finite entries")
        if self.kind not in ("prior", "posterior"):
            raise ValueError(f"kind must be 'prior' or 'posterior', got {self.kind!r}")
        mats = np.atleast_2d(self.cov, self.shape)
        (cov, shape), eigmin, (l_c, l_s) = _check_psd(mats, center.size, ("cov", "shape"))
        if eigmin[0] <= 0.0:
            raise ValueError("cov must be strictly positive-definite")
        self.__dict__.update(center=center, cov=cov, shape=shape, cov_factor=l_c, shape_factor=l_s)

    @property
    def dim(self) -> int:
        return self.center.size

    def mean_set(self) -> Ellipsoid:
        """The ellipsoid of candidate means, centered at the estimate."""
        return Ellipsoid(self.center, self.shape)


@dataclass(frozen=True)
class FilterConfig:
    """Update-step setting: the weight eta of the set term in the cost, a real in [0, 1]."""

    eta: float = 0.5

    def __post_init__(self):
        eta = self.eta
        if isinstance(eta, bool) or not isinstance(eta, Real) or not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must be a real number in [0, 1], got {eta!r}")
        object.__setattr__(self, "eta", float(eta))


@dataclass(frozen=True)
class GainReport:
    """Diagnostics of one update: gain, chosen beta, and final traces.

    ``regime`` says how beta was chosen: ``"interior"`` (a zero of the
    cost's slope), ``"beta_to_zero"`` or ``"beta_to_inf"`` (a kink of the
    cost, K H_x = I or K = 0, reported at that end of the search bracket),
    ``"eta_zero"`` (the cost does not depend on beta) or ``"single_set"``
    (at most one set term is live). ``evals`` counts the cost evaluations
    of the search: 0 where a kink test certified its regime, whose gain is
    then the limit gain itself; a limit regime the search found keeps its
    gain at the bracket end. Otherwise ``gain`` is stationary for the
    inflation pair (p, q) of ``beta_star``; for eta > 0 the posterior shape
    is the trace-minimal bound of that gain's two set terms, whatever the
    regime (see ``skf_update``). ``kink_ratios`` holds left side / right side of
    the beta -> inf and the beta -> 0 test of ``_kink_tests``, None where a
    test did not run or its solve failed; a ratio of at most 1 certifies.
    """

    gain: np.ndarray
    beta_star: float
    cost_at_star: float
    trace_cov: float
    trace_shape: float
    regime: str
    evals: int
    kink_ratios: tuple[float | None, float | None]


def _computed_belief(center, l_c: np.ndarray, l_s: np.ndarray, kind: str, step: int):
    """A belief the filter computed, from its factors; a non-finite one raises ``NumericsError``.

    cov = L_C L_C^T and shape = L_S L_S^T are exactly symmetric and PSD by
    construction, so the constructor's strict check of caller input does not
    run. Their traces, sums of squared factor entries, are finite exactly
    when both matrices are.
    """
    cov, shape = l_c @ l_c.T, l_s @ l_s.T
    if not np.isfinite(cov.trace() + shape.trace()):
        raise NumericsError(f"{kind} cov or shape is not finite", step)
    belief = object.__new__(StateBelief)
    belief.__dict__.update(
        center=center, cov=cov, shape=shape, kind=kind, step=step, cov_factor=l_c, shape_factor=l_s
    )
    return belief


def _predicted_cov_factor(lin: Linearization, l_c: np.ndarray) -> np.ndarray:
    """Factor of f_x C f_x^T + f_w C_u f_w^T: one QR of [f_x L_C, f_w L_Cu]."""
    return _qr_factor(lin.f_x @ l_c, lin.f_w @ lin.process_noise_factor)


def _sq_norm(factor: np.ndarray) -> float:
    """tr(L L^T) of a factor or factor block L: its squared Frobenius norm."""
    return float(np.vdot(factor, factor))


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """a^-1 b for a square a, or None where a is singular or the result is not finite.

    A nonzero 1 x 1 a is a division, without ``np.linalg``'s call overhead,
    which dominates 1 x 1 steps; for a one-column b it equals LAPACK's
    quotient bit for bit. Like ``np.linalg.solve``, it overflows quietly.
    """
    if a.shape == (1, 1) and a[0, 0] != 0.0:
        with np.errstate(all="ignore"):
            x = b / a
    else:
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            return None
    return x if np.isfinite(x).all() else None


def _solve_gain(cross: np.ndarray, bracket: np.ndarray, what: str, step: int) -> np.ndarray:
    """``cross B^-1`` by ``_solve`` against the symmetrized bracket B.

    A singular bracket or a non-finite gain raises ``SingularInnovationError``
    that names the bracket by ``what``, with its condition number if finite.
    """
    bracket = symmetrize(bracket)
    gain_t = _solve(bracket, cross.T)
    if gain_t is None:
        if not np.all(np.isfinite(bracket)):
            raise SingularInnovationError(f"{what} is not finite", step)
        raise SingularInnovationError(
            f"{what} is singular or numerically deficient "
            f"(condition number {np.linalg.cond(bracket):.3e})",
            step,
        )
    return gain_t.T


def skf_predict(
    belief: StateBelief, m: NonlinearModel, u: np.ndarray, k: int
) -> StateBelief:
    """Push a posterior belief through the process model to the next prior.

    The covariance propagates as f_x C f_x^T + f_w C_u f_w^T; the center
    through the full nonlinear map, whose value the linearization has
    already computed; the shape as the trace-minimal outer bound of the
    mapped mean-set ellipsoid plus every mapped bounded process ellipsoid.
    Both are computed as factors.
    """
    if belief.kind != "posterior":
        raise ValueError("prediction starts from a posterior belief")
    lin = linearize_process(m, belief.center, u, k)
    terms = [lin.f_x @ belief.shape_factor]
    terms += [f_ai @ l_i for f_ai, l_i in zip(lin.f_a, lin.ubb_process_factors)]
    try:
        shape_factor = trace_min_sum(terms)
    except ValueError as err:
        raise NumericsError(f"predicted shape {err}", k) from err
    cov_factor = _predicted_cov_factor(lin, belief.cov_factor)
    return _computed_belief(lin.f_value, cov_factor, shape_factor, "prior", k)


class _UpdateContext:
    """The beta-independent products of one update, from H_x L_C, H_x L_S, H_v L_Cz, H_b L_Sz.

    Built once per update from the factors of the prior belief and of the
    measurement noise, and eta; every gain of the step comes from ``gain``,
    or from ``_kink_tests`` where a limit regime is certified. The set
    products S H_x^T, H_x S H_x^T and H_b S_z H_b^T are formed for eta > 0
    only: at eta = 0 the gain solves the covariance parts alone.
    """

    def __init__(self, belief: StateBelief, lin: Linearization, eta: float):
        self.belief, self.lin, self.eta = belief, lin, eta
        self.eye = _identity(belief.dim)
        hl_c = lin.h_x @ belief.cov_factor
        self.hv_lcz = lin.h_v @ lin.meas_noise_factor
        self.hb_lsz = lin.h_b @ lin.meas_ubb_factor
        # the covariance parts, (1 - eta) C H_x^T and (1 - eta)(H_x C H_x^T + R),
        # in ``ekf_step``'s order, so that eta = 0 gives the EKF gain bit for bit
        self.cov_cross = (1.0 - eta) * (belief.cov_factor @ hl_c.T)
        self.meas_noise = self.hv_lcz @ self.hv_lcz.T
        self.cov_bracket = (1.0 - eta) * (hl_c @ hl_c.T + self.meas_noise)
        if eta > 0.0:
            hl_s = lin.h_x @ belief.shape_factor
            self.s_ht = belief.shape_factor @ hl_s.T
            self.meas_prior_shape = hl_s @ hl_s.T
            self.meas_set_shape = self.hb_lsz @ self.hb_lsz.T

    def gain(self, p_prior: float, q_meas: float) -> np.ndarray:
        """Stationary gain for given inflation coefficients on the two set terms.

        At eta = 0 the set terms would add eta times them, exactly 0, so the
        covariance parts alone give the same gain, the EKF's.
        """
        eta, cross, bracket = self.eta, self.cov_cross, self.cov_bracket
        if eta > 0.0:
            cross = cross + eta * p_prior * self.s_ht
            bracket = bracket + eta * (
                p_prior * self.meas_prior_shape + q_meas * self.meas_set_shape
            )
        return _solve_gain(cross, bracket, "innovation-covariance bracket", self.belief.step)


def skf_gain(
    belief: StateBelief, lin: Linearization, cfg: FilterConfig, beta: float
) -> np.ndarray:
    """Adaptive gain for a given beta.

    K = [(1-eta) C H_x^T + eta (1+1/beta) S H_x^T] B^{-1} with the bracket
    B = (1-eta)(H_x C H_x^T + H_v C_z H_v^T)
        + eta [(1+1/beta) H_x S H_x^T + (1+beta) H_b S_z H_b^T],
    computed by a linear solve against the symmetrized bracket.
    """
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be a positive finite number, got {beta}")
    return _UpdateContext(belief, lin, cfg.eta).gain(1.0 + 1.0 / beta, 1.0 + beta)


def _update_terms(ctx: _UpdateContext, gain: np.ndarray):
    """The posterior's four factor blocks for a gain K: (B_C, B_v, B_S, B_z).

    B_C = (I - K H_x) L_C and B_v = K H_v L_Cz: the Joseph covariance is
    B_C B_C^T + B_v B_v^T. B_S = (I - K H_x) L_S and B_z = K H_b L_Sz: the
    shape terms are T1 = B_S B_S^T and T2 = B_z B_z^T. ``ekf_step`` forms
    its Joseph blocks in the same order.
    """
    ikh, belief = ctx.eye - gain @ ctx.lin.h_x, ctx.belief
    return ikh @ belief.cov_factor, gain @ ctx.hv_lcz, ikh @ belief.shape_factor, gain @ ctx.hb_lsz


def _beta_cost(ctx: _UpdateContext):
    """The search objective: beta -> (J, up, down), with dJ/dlog(beta) = up - down.

    Everything comes from the blocks of the one stationary gain
    K(beta) = ctx.gain(p, q), with (p, q) = (1 + 1/beta, 1 + beta):
    J = (1 - eta)(||B_C||^2 + ||B_v||^2) + eta (p ||B_S||^2 + q ||B_z||^2),
    the posterior's own cost, up = eta beta ||B_z||^2 and
    down = eta ||B_S||^2 / beta. Each is a sum of squares, so none is negative.
    """
    eta = ctx.eta

    def cost(beta: float) -> tuple[float, float, float]:
        p_prior, q_meas = 1.0 + 1.0 / beta, 1.0 + beta
        b_c, b_v, b_s, b_z = _update_terms(ctx, ctx.gain(p_prior, q_meas))
        tr_prior, tr_meas = _sq_norm(b_s), _sq_norm(b_z)
        value = (1.0 - eta) * (_sq_norm(b_c) + _sq_norm(b_v))
        value += eta * (p_prior * tr_prior + q_meas * tr_meas)
        return value, eta * beta * tr_meas, eta * tr_prior / beta

    return cost


def _kink_ratio(factor: np.ndarray, rhs: np.ndarray, right: float) -> float | None:
    """||factor^-1 rhs||_F^2 / right, or None where ``_solve`` fails or a side is not finite."""
    solved = _solve(factor, rhs)
    if solved is None or not 0.0 < right < math.inf:
        return None
    left = float(np.vdot(solved, solved))
    return left / right if math.isfinite(left) else None


def _kink_tests(ctx: _UpdateContext, tr_shape: float):
    """Closed-form optimality tests of the update cost's two kinks, for eta > 0.

    Minimizing the pair bound over beta leaves, for a gain K,
    J*(K) = (1 - eta) tr C+(K) + eta (a + b)^2, with a = ||(I - K H_x) L_S||_F
    and b = ||K L_N||_F, where N = H_b S_z H_b^T = L_N L_N^T. J* is convex;
    beta -> inf is its kink at K = 0 and beta -> 0 its kink at K H_x = I.
    The subgradient condition 0 in dJ* gives, with
    G = ((1 - eta) C + eta S) H_x^T and M = (1 - eta) H_v C_z H_v^T + eta N:

    * K = 0 is optimal if ||L_N^-1 G^T||_F^2 <= eta^2 tr S;
    * for square H_x, K0 = H_x^-1 is optimal if
      ||L_S^-1 K0 M K0^T||_F^2 <= eta^2 ||K0 L_N||_F^2.

    Returns ``(regime, gain, ratios)``: the certified regime and its exact
    gain, or (None, None), and left side / right side of each test (a ratio
    of at most 1 certifies), None where the test did not run or its solve
    failed. Every side is a squared norm, so a singular L_N, H_x or L_S can
    fail a test but never pass one. A tall or singular H_x leaves beta -> 0
    to the search.
    """
    eta = ctx.eta
    l_n = ctx.hb_lsz
    if l_n.shape[0] != l_n.shape[1]:
        l_n = _qr_factor(l_n)
    cross = ctx.cov_cross + eta * ctx.s_ht
    to_inf = _kink_ratio(l_n, cross.T, eta * eta * tr_shape)
    if to_inf is not None and to_inf <= 1.0:
        return "beta_to_inf", np.zeros_like(cross), (to_inf, None)
    h_x = ctx.lin.h_x
    if h_x.shape[0] != h_x.shape[1]:
        return None, None, (to_inf, None)
    k0 = _solve(h_x, _identity(h_x.shape[0]))
    if k0 is None:
        return None, None, (to_inf, None)
    # a nearly singular H_x gives a huge K0 whose products overflow: the
    # test then has a side that is not finite, and its ratio is None
    with np.errstate(over="ignore", invalid="ignore"):
        k0_ln = k0 @ l_n
        p_mat = k0 @ ((1.0 - eta) * ctx.meas_noise + eta * ctx.meas_set_shape) @ k0.T
        right = eta * eta * float(np.vdot(k0_ln, k0_ln))
        to_zero = _kink_ratio(ctx.belief.shape_factor, p_mat, right)
    if to_zero is not None and to_zero <= 1.0:
        return "beta_to_zero", k0, (to_inf, to_zero)
    return None, None, (to_inf, to_zero)


_LIMIT_REGIMES = {"lower": "beta_to_zero", "upper": "beta_to_inf"}


def skf_update(
    belief: StateBelief, y: np.ndarray, m: NonlinearModel, cfg: FilterConfig, k: int
) -> tuple[StateBelief, GainReport]:
    """Fold a measurement into a prior belief.

    With both set terms live and eta > 0, ``_kink_tests`` first decides in
    closed form whether a kink of the cost is optimal; such a step takes
    its exact limit gain, 0 at beta -> inf or K0 = H_x^-1 at beta -> 0, runs
    no search and reports its bracket end as beta.

    Otherwise one inflation pair (p, q) gives the gain, ``ctx.gain(p, q)``:
    (1 + 1/beta, 1 + beta) with both set terms live, beta minimizing J(beta)
    or, at eta = 0, where J does not depend on it, 1 by convention. A limit
    regime the tests did not certify keeps its bracket end. A set term
    whose factor is exactly zero is a point, whatever the units: it takes
    0, a live term 1, and beta = 1 is reported.

    The covariance is the Joseph form at the gain. For eta > 0 the shape is
    ``trace_min_sum`` of the gain's blocks B_S = (I - K H_x) L_S and
    B_z = K H_b L_Sz, in every regime: at an interior beta* the envelope
    identity beta*^2 ||B_z||^2 = ||B_S||^2 makes it p T1 + q T2 without the
    search's tolerance, and K = 0 gives a factor of the prior shape. The
    block of a point input set is exactly zero, so ``trace_min_sum`` drops
    it; it keeps a small live block, such as B_S at a limit regime, of
    extent O(1/p). The trace-minimal bound of the two live blocks holds
    their Minkowski sum, so for every gain the shape holds the set the
    gain leaves, up to rounding.
    """
    if belief.kind != "prior":
        raise ValueError("update starts from a prior belief")
    y = np.array(y, dtype=float, copy=None, ndmin=1)
    if y.size != m.meas_dim:
        raise ValueError(f"measurement has dimension {y.size}, expected {m.meas_dim}")
    lin = linearize_measurement(m, belief.center, k)
    eta = cfg.eta
    ctx = _UpdateContext(belief, lin, eta)

    # A point set term must not inflate the gain, or the beta search would
    # chase an inflation factor of 1 toward the bracket boundary.
    tr_shape = _sq_norm(belief.shape_factor)
    prior_set_live = tr_shape > 0.0
    meas_set_live = _sq_norm(ctx.hb_lsz) > 0.0
    beta_star = 1.0
    evals = 0
    gain = None
    ratios = (None, None)
    if eta == 0.0:
        # Cost independent of beta: the gain is exactly the EKF gain.
        regime = "eta_zero"
    elif prior_set_live and meas_set_live:
        regime, gain, ratios = _kink_tests(ctx, tr_shape)
        if gain is not None:
            beta_star = math.exp(BRACKET[0] if regime == "beta_to_zero" else BRACKET[1])
        else:
            problem = ScalarProblem(objective=_beta_cost(ctx))
            try:
                beta_star, _, evals, end = minimize_scalar(problem)
            except OptimizerError as err:
                raise FilterError(
                    f"beta search failed on bracket {problem.bracket}: {err}", k
                ) from err
            regime = _LIMIT_REGIMES.get(end, end)
    else:
        # A point term adds nothing to the sum: 0 for it, 1 for a live term.
        regime = "single_set"
    if gain is None:
        if prior_set_live and meas_set_live:
            p_prior, q_meas = 1.0 + 1.0 / beta_star, 1.0 + beta_star
        else:
            p_prior, q_meas = float(prior_set_live), float(meas_set_live)
        gain = ctx.gain(p_prior, q_meas)
    innovation = wrap_angles(y - lin.h_value, m.angular_mask)
    center = belief.center + gain @ innovation
    if not np.isfinite(center).all():
        raise FilterError(f"updated center is not finite: {center}", k)

    b_c, b_v, b_s, b_z = _update_terms(ctx, gain)
    if eta == 0.0:
        # p T1 + q T2 at the gain's conventional pair, 2 T1 + 2 T2 with both
        # terms live. The benchmark's reference (perfbench/reference.json)
        # pins ex2_eta0's semi-axes from this shape; once it is re-pinned,
        # eta = 0 takes the rule below too.
        shape_factor = _qr_factor(math.sqrt(p_prior) * b_s, math.sqrt(q_meas) * b_z)
    else:
        # trace_min_sum drops the exactly zero block of a point input set
        # and keeps every other block, however small
        try:
            shape_factor = trace_min_sum([b_s, b_z])
        except ValueError as err:
            raise NumericsError(f"posterior shape {err}", k) from err
    posterior = _computed_belief(center, _qr_factor(b_c, b_v), shape_factor, "posterior", k)
    trace_cov = _sq_norm(posterior.cov_factor)
    trace_shape = _sq_norm(posterior.shape_factor)
    report = GainReport(
        gain=gain,
        beta_star=float(beta_star),
        cost_at_star=(1.0 - eta) * trace_cov + eta * trace_shape,
        trace_cov=trace_cov,
        trace_shape=trace_shape,
        regime=regime,
        evals=evals,
        kink_ratios=ratios,
    )
    return posterior, report


def ekf_step(
    state: np.ndarray,
    cov_factor: np.ndarray,
    u: np.ndarray,
    y: np.ndarray,
    m: NonlinearModel,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One predict+update of a first-order EKF on the same model.

    Takes and returns the state and a factor L of its covariance L L^T.
    Bounded disturbances are ignored entirely; the covariance update uses
    the Joseph form. Kept free of the set-membership code path so the two
    recursions can be cross-checked against each other; it forms its gain
    and Joseph blocks as ``_UpdateContext`` and ``_update_terms`` do, from
    H_x L and H_v L_Cz, so the two agree bit for bit at eta = 0.
    A wrong-size ``y`` raises ``ValueError``, a non-finite result
    ``FilterError`` with the step.
    """
    state = np.array(state, dtype=float, copy=None, ndmin=1)
    cov_factor = np.array(cov_factor, dtype=float, copy=None, ndmin=2)
    y = np.array(y, dtype=float, copy=None, ndmin=1)
    if y.size != m.meas_dim:
        raise ValueError(f"measurement has dimension {y.size}, expected {m.meas_dim}")

    lin_p = linearize_process(m, state, u, k)
    x_pred = lin_p.f_value
    pred_factor = _predicted_cov_factor(lin_p, cov_factor)

    lin_m = linearize_measurement(m, x_pred, k)
    h_x = lin_m.h_x
    hl_p, hv_lcz = h_x @ pred_factor, lin_m.h_v @ lin_m.meas_noise_factor
    s_inn = hl_p @ hl_p.T + hv_lcz @ hv_lcz.T
    gain = _solve_gain(pred_factor @ hl_p.T, s_inn, "EKF innovation covariance", k)

    x_post = x_pred + gain @ wrap_angles(y - lin_m.h_value, m.angular_mask)
    ikh = _identity(m.state_dim) - gain @ h_x
    post_factor = _qr_factor(ikh @ pred_factor, gain @ hv_lcz)
    if not (np.isfinite(x_post).all() and np.isfinite(post_factor).all()):
        raise FilterError("EKF updated state or covariance is not finite", k)
    return x_post, post_factor
