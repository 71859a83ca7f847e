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
[0, 1]. Each matrix check is one ``_check_psd`` call on a stack: of a
caller's ``StateBelief``, of a predicted sum's terms, and of the cov and
shape of each computed belief, which ``_condition`` floors exactly once.
The posterior shape is p T1 + q T2 at the gain's own inflation pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Literal

import numpy as np

from .ellipsoid import EPS_TRACE, Ellipsoid, _check_psd, symmetrize, trace_min_sum
from .model import (
    Linearization,
    NonlinearModel,
    linearize_measurement,
    linearize_process,
    wrap_angles,
)
from .optimizer import OptimizerError, ScalarProblem, minimize_scalar

# Smallest eigenvalue a propagated covariance keeps; long runs with tiny
# measurement noise can underflow positive definiteness in floating point.
COV_FLOOR = 1e-14
_BELIEF_FLOORS = np.array([COV_FLOOR, 0.0])  # of a computed (cov, shape) stack


class FilterError(RuntimeError):
    """Filter step failure; carries the step index when known."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message if step is None else f"step {step}: {message}")
        self.step = step


class SingularInnovationError(FilterError):
    """The innovation-covariance bracket of the gain is not invertible."""


class NumericsError(FilterError):
    """A covariance or shape matrix violated symmetry/PD beyond tolerance."""


@dataclass(frozen=True)
class StateBelief:
    """State estimate: center, Gaussian covariance, and mean-set shape.

    The constructor is the strict check of caller input: cov and shape
    pass ``_check_psd`` together, and cov must be positive definite.
    Nothing is lifted; beliefs the filter computes are built
    by ``_conditioned_belief`` instead.
    """

    center: np.ndarray
    cov: np.ndarray
    shape: np.ndarray
    kind: Literal["prior", "posterior"]
    step: int

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if not np.all(np.isfinite(center)):
            raise ValueError("center has non-finite entries")
        if self.kind not in ("prior", "posterior"):
            raise ValueError(f"kind must be 'prior' or 'posterior', got {self.kind!r}")
        mats = np.atleast_2d(self.cov, self.shape)
        (cov, shape), eigmin = _check_psd(mats, center.size, ("cov", "shape"))
        if eigmin[0] <= 0.0:
            raise ValueError("cov must be strictly positive-definite")
        self.__dict__.update(center=center, cov=cov, shape=shape)

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


def _condition(mats, floor, step: int, what) -> np.ndarray:
    """Symmetrize and lift each spectrum to its floor; loud failure beyond tolerance.

    ``mats`` is one matrix or a stack, with one ``floor`` or one per matrix,
    named by ``what`` as by ``_check_psd``'s ``names``; a violation raises
    ``NumericsError``. A smallest eigenvalue under its floor is lifted by a
    diagonal shift to 1.001 * floor (``floor=0`` shifts exactly by -eigmin).
    """
    try:
        mats, eigmin = _check_psd(mats, names=what)
    except ValueError as err:
        raise NumericsError(str(err), step) from err
    low = eigmin < floor
    if low.any():
        shift = (1.001 * floor - eigmin)[..., None, None] * np.eye(mats.shape[-1])
        mats = np.where(low[..., None, None], mats + shift, mats)
    return mats


def _conditioned_belief(
    center: np.ndarray, cov: np.ndarray, shape: np.ndarray, kind: str, step: int
) -> StateBelief:
    """A belief the filter computed: cov and shape pass one ``_condition`` call.

    The fields are set directly, so the constructor's strict check of
    caller input does not run again on the conditioned matrices.
    """
    what = "predicted" if kind == "prior" else "updated"
    cov, shape = _condition((cov, shape), _BELIEF_FLOORS, step, (f"{what} cov", f"{what} shape"))
    belief = object.__new__(StateBelief)
    belief.__dict__.update(center=center, cov=cov, shape=shape, kind=kind, step=step)
    return belief


def skf_predict(
    belief: StateBelief, m: NonlinearModel, u: np.ndarray, k: int
) -> StateBelief:
    """Push a posterior belief through the process model to the next prior.

    The covariance propagates as f_x C f_x^T + f_w C_u f_w^T; the center
    through the full nonlinear map, whose value the linearization has
    already computed; the shape as the trace-minimal outer bound of the
    mapped mean-set ellipsoid plus every mapped bounded process ellipsoid.
    """
    if belief.kind != "posterior":
        raise ValueError("prediction starts from a posterior belief")
    lin = linearize_process(m, belief.center, u, k)
    f_x, f_w = lin.f_x, lin.f_w

    cov = f_x @ belief.cov @ f_x.T + f_w @ lin.process_noise_cov @ f_w.T
    terms = [f_x @ belief.shape @ f_x.T]
    terms += [f_ai @ s_i @ f_ai.T for f_ai, s_i in zip(lin.f_a, lin.ubb_process_shapes)]
    try:
        shape = trace_min_sum(terms)
    except ValueError as err:
        raise NumericsError(f"predicted shape {err}", k) from err
    return _conditioned_belief(lin.f_value, cov, shape, "prior", k)


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
        bracket = symmetrize(bracket)
        try:
            gain = np.linalg.solve(bracket, cross.T).T
        except np.linalg.LinAlgError:
            gain = None
        if gain is None or not np.all(np.isfinite(gain)):
            if not np.all(np.isfinite(bracket)):
                raise SingularInnovationError(
                    "innovation-covariance bracket is not finite", self.belief.step
                )
            raise SingularInnovationError(
                "innovation-covariance bracket is singular or numerically deficient "
                f"(condition number {np.linalg.cond(bracket):.3e})",
                self.belief.step,
            )
        return gain


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
    """Joseph-form covariance and the two shape building blocks for a gain."""
    n = belief.dim
    ikh = np.eye(n) - gain @ lin.h_x
    cov_plus = ikh @ belief.cov @ ikh.T + gain @ lin.h_v @ lin.meas_noise_cov @ lin.h_v.T @ gain.T
    t_prior = ikh @ belief.shape @ ikh.T
    t_meas = gain @ lin.h_b @ lin.meas_ubb_shape @ lin.h_b.T @ gain.T
    return cov_plus, t_prior, t_meas


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

    cov_plus, t_prior, t_meas = _update_terms(belief, lin, gain)
    shape = p_prior * t_prior + q_meas * t_meas
    posterior = _conditioned_belief(center, cov_plus, shape, "posterior", k)
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
    cov: np.ndarray,
    u: np.ndarray,
    y: np.ndarray,
    m: NonlinearModel,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One predict+update of a first-order EKF on the same model.

    Bounded disturbances are ignored entirely; the covariance update uses
    the Joseph form. Kept free of the set-membership code path so the two
    recursions can be cross-checked against each other. A wrong-size ``y``
    raises ``ValueError``, a non-finite result ``FilterError`` with the step.
    """
    state = np.atleast_1d(np.asarray(state, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != m.meas_dim:
        raise ValueError(f"measurement has dimension {y.size}, expected {m.meas_dim}")

    lin_p = linearize_process(m, state, u, k)
    x_pred = lin_p.f_value
    p_pred = lin_p.f_x @ cov @ lin_p.f_x.T + lin_p.f_w @ lin_p.process_noise_cov @ lin_p.f_w.T
    p_pred = symmetrize(p_pred)

    lin_m = linearize_measurement(m, x_pred, k)
    h_x, h_v, c_z = lin_m.h_x, lin_m.h_v, lin_m.meas_noise_cov
    s_inn = symmetrize(h_x @ p_pred @ h_x.T + h_v @ c_z @ h_v.T)
    try:
        gain = np.linalg.solve(s_inn, (p_pred @ h_x.T).T).T
    except np.linalg.LinAlgError as err:
        raise SingularInnovationError(
            f"EKF innovation covariance is singular: {err}", k
        ) from err

    x_post = x_pred + gain @ wrap_angles(y - lin_m.h_value, m.angular_mask)
    ikh = np.eye(m.state_dim) - gain @ h_x
    p_post = ikh @ p_pred @ ikh.T + gain @ h_v @ c_z @ h_v.T @ gain.T
    if not (np.isfinite(x_post).all() and np.isfinite(p_post).all()):
        raise FilterError("EKF updated state or covariance is not finite", k)
    return x_post, symmetrize(p_post)
