"""Set-membership Kalman filter recursion and a first-order EKF baseline.

Each belief carries three objects: a center estimate, a covariance C for
the Gaussian error component, and a shape matrix S bounding the set of
possible means. Prediction pushes all three through the process model,
bounding the Minkowski sum of mapped uncertainty ellipsoids by its
trace-minimal outer ellipsoid. The update blends the prior with the
measurement through a gain that is adaptive in a pairing parameter beta,
chosen each step by minimizing a weighted total-uncertainty cost

    J(beta) = (1 - eta) tr C_plus(beta) + eta tr S_plus(beta).

The gain K(beta) is stationary in J, so one gain solve gives both the
value and, by the envelope theorem, the slope

    dJ/dlog(beta) = eta (beta tr T2 - tr T1 / beta),

with T1 = (I - K H_x) S (I - K H_x)^T and T2 = K H_b S_z H_b^T K^T. The
search finds the zero of that slope, or the end of its bracket that the
cost descends to, in a handful of evaluations; ``GainReport`` records
which regime applied and how many evaluations it took.

The beta-independent products are formed once per update, in an
``_UpdateContext``; every gain of the step comes from it. At eta = 0 the
center and covariance recursions coincide exactly with the extended
Kalman filter. ``FilterConfig`` carries eta alone, a real number in
[0, 1]. The posterior shape is p T1 + q T2 at the gain's own inflation
pair. A belief carries factors L_C, L_S of C = L_C L_C^T, S = L_S L_S^T;
each new one comes from one QR, so a computed belief is PSD by
construction and is not checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
from typing import Literal

import numpy as np

from .ellipsoid import EPS_TRACE, Ellipsoid, _check_psd, _qr_factor, symmetrize, trace_min_sum
from .model import (
    FilterError,
    Linearization,
    NonlinearModel,
    NumericsError,
    linearize_measurement,
    linearize_process,
    wrap_angles,
)
from .optimizer import OptimizerError, ScalarProblem, minimize_scalar


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
    cost's slope), ``"beta_to_zero"`` or ``"beta_to_inf"`` (the cost
    descends to that end of the search bracket, which is returned),
    ``"eta_zero"`` (the cost does not depend on beta) or ``"single_set"``
    (at most one set term is live). ``evals`` counts the cost evaluations
    of the search. ``gain`` is stationary for the inflation pair (p, q)
    whose bound p T1 + q T2 is the posterior shape (see ``skf_update``).
    """

    gain: np.ndarray
    beta_star: float
    cost_at_star: float
    trace_cov: float
    trace_shape: float
    regime: str
    evals: int


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


def _joseph_factor(ikh: np.ndarray, l_c: np.ndarray, gain, lin: Linearization) -> np.ndarray:
    """Factor of the Joseph form: one QR of [(I - K H_x) L_C, K H_v L_Cz]."""
    return _qr_factor(ikh @ l_c, gain @ lin.h_v @ lin.meas_noise_factor)


def _solve_gain(cross: np.ndarray, bracket: np.ndarray, what: str, step: int) -> np.ndarray:
    """``cross B^-1`` by a linear solve against the symmetrized bracket B.

    A failed or non-finite solve raises ``SingularInnovationError`` that
    names the bracket by ``what``, with its condition number if finite.
    """
    bracket = symmetrize(bracket)
    try:
        gain = np.linalg.solve(bracket, cross.T).T
    except np.linalg.LinAlgError:
        gain = None
    if gain is None or not np.all(np.isfinite(gain)):
        if not np.all(np.isfinite(bracket)):
            raise SingularInnovationError(f"{what} is not finite", step)
        raise SingularInnovationError(
            f"{what} is singular or numerically deficient "
            f"(condition number {np.linalg.cond(bracket):.3e})",
            step,
        )
    return gain


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
    """The beta-independent products of one update.

    Built once per update from the prior belief, the measurement
    linearization and eta; every gain of the step comes from ``gain``.
    """

    def __init__(self, belief: StateBelief, lin: Linearization, eta: float):
        self.belief, self.lin, self.eta = belief, lin, eta
        h_x, h_v, h_b = lin.h_x, lin.h_v, lin.h_b
        self.c_ht = belief.cov @ h_x.T
        self.s_ht = belief.shape @ h_x.T
        self.meas_cov = h_x @ belief.cov @ h_x.T + h_v @ lin.meas_noise_cov @ h_v.T
        self.meas_prior_shape = h_x @ belief.shape @ h_x.T
        self.meas_set_shape = h_b @ lin.meas_ubb_shape @ h_b.T

    def gain(self, p_prior: float, q_meas: float) -> np.ndarray:
        """Stationary gain for given inflation coefficients on the two set terms."""
        eta = self.eta
        cross = (1.0 - eta) * self.c_ht + eta * p_prior * self.s_ht
        bracket = (1.0 - eta) * self.meas_cov + eta * (
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
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    return _UpdateContext(belief, lin, cfg.eta).gain(1.0 + 1.0 / beta, 1.0 + beta)


def _update_terms(belief: StateBelief, lin: Linearization, gain: np.ndarray):
    """The Joseph covariance factor and the factor blocks of the two shape terms for a gain.

    Returns (L_plus, B1, B2): L_plus L_plus^T is the Joseph-form covariance,
    B1 = (I - K H_x) L_S and B2 = K H_b L_Sz, so T1 = B1 B1^T and T2 = B2 B2^T.
    """
    ikh = np.eye(belief.dim) - gain @ lin.h_x
    cov_factor = _joseph_factor(ikh, belief.cov_factor, gain, lin)
    return cov_factor, ikh @ belief.shape_factor, gain @ lin.h_b @ lin.meas_ubb_factor


def _beta_cost(ctx: _UpdateContext):
    """The search objective: beta -> (J, up, down), with dJ/dlog(beta) = up - down.

    Everything comes from the one stationary gain K(beta):
    J = tr((I - K H_x) A) with A = (1 - eta) C + eta (1 + 1/beta) S,
    up = eta beta tr T2 and down = eta tr T1 / beta. T2 is formed as
    (K H_b) S_z (K H_b)^T: as beta grows, K H_b vanishes while K need not,
    and forming H_b S_z H_b^T first would leave its rounding in T2.
    """
    eta, belief, lin = ctx.eta, ctx.belief, ctx.lin
    eye = np.eye(belief.dim)
    cov_part = (1.0 - eta) * belief.cov

    def cost(beta: float) -> tuple[float, float, float]:
        gain = ctx.gain(1.0 + 1.0 / beta, 1.0 + beta)
        ikh = eye - gain @ lin.h_x
        ikh_s = ikh @ belief.shape
        gain_b = gain @ lin.h_b
        value = float(np.sum(ikh * cov_part)) + eta * (1.0 + 1.0 / beta) * float(
            np.trace(ikh_s)
        )
        # Both traces are of PSD products; a rounding residue below zero
        # counts as zero.
        tr_meas = max(float(np.sum((gain_b @ lin.meas_ubb_shape) * gain_b)), 0.0)
        tr_prior = max(float(np.sum(ikh_s * ikh)), 0.0)
        return value, eta * beta * tr_meas, eta * tr_prior / beta

    return cost


_LIMIT_REGIMES = {"lower": "beta_to_zero", "upper": "beta_to_inf"}


def skf_update(
    belief: StateBelief, y: np.ndarray, m: NonlinearModel, cfg: FilterConfig, k: int
) -> tuple[StateBelief, GainReport]:
    """Fold a measurement into a prior belief.

    One inflation pair (p, q) gives the gain, ``ctx.gain(p, q)``, and the
    posterior shape p T1 + q T2: (1 + 1/beta, 1 + beta) with both set terms
    live, beta minimizing J(beta) or, at eta = 0, where J does not depend
    on it, 1 by convention. A limit regime keeps its bracket end. A set
    term of (essentially) zero trace is a point: it takes 0, a live term
    1, and beta = 1 is reported.
    """
    if belief.kind != "prior":
        raise ValueError("update starts from a prior belief")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != m.meas_dim:
        raise ValueError(f"measurement has dimension {y.size}, expected {m.meas_dim}")
    lin = linearize_measurement(m, belief.center, k)
    eta = cfg.eta
    ctx = _UpdateContext(belief, lin, eta)

    # A point set term must not inflate the gain, or the beta search would
    # chase an inflation factor of 1 toward the bracket boundary.
    prior_set_live = float(np.trace(belief.shape)) > EPS_TRACE
    meas_set_live = float(np.trace(ctx.meas_set_shape)) > EPS_TRACE
    beta_star = 1.0
    evals = 0
    if eta == 0.0:
        # Cost independent of beta: the gain is exactly the EKF gain.
        regime = "eta_zero"
    elif prior_set_live and meas_set_live:
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
    if prior_set_live and meas_set_live:
        p_prior, q_meas = 1.0 + 1.0 / beta_star, 1.0 + beta_star
    else:
        p_prior, q_meas = float(prior_set_live), float(meas_set_live)
    gain = ctx.gain(p_prior, q_meas)
    innovation = wrap_angles(y - lin.h_value, m.angular_mask)
    center = belief.center + gain @ innovation
    if not np.all(np.isfinite(center)):
        raise FilterError(f"updated center is not finite: {center}", k)

    cov_factor, t_prior, t_meas = _update_terms(belief, lin, gain)
    shape_factor = _qr_factor(np.sqrt(p_prior) * t_prior, np.sqrt(q_meas) * t_meas)
    posterior = _computed_belief(center, cov_factor, shape_factor, "posterior", k)
    trace_cov = float(np.trace(posterior.cov))
    trace_shape = float(np.trace(posterior.shape))
    report = GainReport(
        gain=gain,
        beta_star=float(beta_star),
        cost_at_star=(1.0 - eta) * trace_cov + eta * trace_shape,
        trace_cov=trace_cov,
        trace_shape=trace_shape,
        regime=regime,
        evals=evals,
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
    recursions can be cross-checked against each other; the gain solve and
    the factor helpers it shares make them agree bit for bit at eta = 0.
    A wrong-size ``y`` raises ``ValueError``, a non-finite result
    ``FilterError`` with the step.
    """
    state = np.atleast_1d(np.asarray(state, dtype=float))
    cov_factor = np.atleast_2d(np.asarray(cov_factor, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != m.meas_dim:
        raise ValueError(f"measurement has dimension {y.size}, expected {m.meas_dim}")

    lin_p = linearize_process(m, state, u, k)
    x_pred = lin_p.f_value
    pred_factor = _predicted_cov_factor(lin_p, cov_factor)
    p_pred = pred_factor @ pred_factor.T

    lin_m = linearize_measurement(m, x_pred, k)
    h_x, h_v, c_z = lin_m.h_x, lin_m.h_v, lin_m.meas_noise_cov
    s_inn = h_x @ p_pred @ h_x.T + h_v @ c_z @ h_v.T
    gain = _solve_gain(p_pred @ h_x.T, s_inn, "EKF innovation covariance", k)

    x_post = x_pred + gain @ wrap_angles(y - lin_m.h_value, m.angular_mask)
    ikh = np.eye(m.state_dim) - gain @ h_x
    post_factor = _joseph_factor(ikh, pred_factor, gain, lin_m)
    if not (np.isfinite(x_post).all() and np.isfinite(post_factor).all()):
        raise FilterError("EKF updated state or covariance is not finite", k)
    return x_post, post_factor
