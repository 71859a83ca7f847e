"""Scalar minimization over the positive half-line by root-finding on the slope.

The filtering step needs the minimizer of a cost J(beta) for beta > 0.
The search runs in t = log(beta), on the fixed bracket ``BRACKET`` =
[-20, 20]. Each evaluation returns the cost and the two non-negative parts
of its slope, dJ/dt = up - down; the filter gets both from the envelope
theorem at no cost beyond the value. An interior minimizer is a zero of
G(t) = log(up) - log(down):

* If up - down keeps one sign between the bracket ends, and the values
  agree, the cost is monotone there and the search returns the end it
  descends to, exactly.
* Otherwise a fixed-point step t - G/2 from one end starts the search.
  Each later step fits exp(G/2) = sqrt(up/down) as (a beta + b)/(c beta + 1)
  through the last three evaluated points and proposes its zero (Jarratt
  and Nudds, Comput. J. 8(1), 1965); where that zero is undefined or leaves
  the bracket, bisection on the sign of up - down takes its place (Brent,
  *Algorithms for Minimization without Derivatives*, 1973). A proposed
  step within ``TOL`` of the current point ends the search, also where it
  falls just outside the bracket.

For a scalar measurement the fit is exact: sqrt(up/down) =
|h_x| sqrt(N/S) (A beta + eta S)/(B + eta N beta), with
A = (1 - eta) C + eta S, B = (1 - eta) R + eta N, R = h_v^2 C_z and
N = h_b^2 S_z. G is flat in both tails, where a step on G alone would
crawl, but the fit still lands on the zero. On example1 an interior
search takes 5 to 7 evaluations, the two ends included; on example2 it
takes 5 to 8.

An end whose slope sign the values contradict (a slope at rounding level
pointing the wrong way) does not settle the regime; the interior search
then runs, and if it closes in on an end, that end is returned as above.

The bracket is never widened: the filter's cost needs no wider one. With
p, q >= 1 in J = (1 - eta) tr C_plus + eta (p tr T1 + q tr T2), its slope
parts obey up = eta beta tr T2 <= beta J and down = eta tr T1 / beta <=
J / beta. Below the lower end log J thus falls by at most the integral of
e^t, e^-20, and above the upper end likewise: the cost beyond either end
is within a relative e^-20 (about 2e-9) of the end's value. An objective
that still descends at an end is returned at that end.

A problem sets only its objective. The bracket, the accuracy ``TOL``
(1e-8 in t) and the evaluation cap ``MAX_ITERS`` (200) are constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple

TOL = 1e-8  # accuracy of the minimizer in t = log(beta)
MAX_ITERS = 200  # evaluations of the search between the bracket ends
BRACKET = (-20.0, 20.0)  # the search bracket, in t = log(beta)


class OptimizerError(RuntimeError):
    """Scalar search failed; the message names the point or bracket where."""


@dataclass(frozen=True)
class ScalarProblem:
    """A one-dimensional minimization of a cost over beta > 0.

    ``objective(beta)`` returns ``(value, up, down)``: the cost and two
    non-negative parts of its log-slope, dJ/dlog(beta) = up - down.
    ``bracket`` reads the fixed bracket ``BRACKET``, in t = log(beta); it
    is not a field. The accuracy ``TOL`` and the evaluation cap
    ``MAX_ITERS`` are module constants too.
    """

    objective: Callable[[float], tuple[float, float, float]]
    bracket: ClassVar[tuple[float, float]] = BRACKET


class ScalarResult(NamedTuple):
    """The minimizer, the cost at the last evaluated point, and the work done.

    ``regime`` is ``"interior"`` for a zero of the slope, and ``"lower"``
    or ``"upper"`` for a cost monotone up to that end of the bracket.
    """

    beta: float
    value: float
    evals: int
    regime: str


class _Point(NamedTuple):
    t: float
    value: float
    up: float
    down: float


def _eval(objective, t: float) -> _Point:
    beta = math.exp(t)
    value, up, down = (float(v) for v in objective(beta))
    if not math.isfinite(value):
        raise OptimizerError(f"objective is not finite at beta = exp({t:.6g}) = {beta:.6g}")
    if not (0.0 <= up < math.inf and 0.0 <= down < math.inf):
        raise OptimizerError(
            f"slope parts must be finite and non-negative at beta = {beta:.6g}, "
            f"got up = {up!r}, down = {down!r}"
        )
    return _Point(t, value, up, down)


def _log_ratio(p: _Point) -> float | None:
    """G = log(up) - log(down), or None where a part is 0."""
    if p.up > 0.0 and p.down > 0.0:
        return math.log(p.up) - math.log(p.down)
    return None


def _fixed_point(p: _Point) -> float | None:
    """The fixed-point step t - G/2, or None where G is undefined.

    It is the secant step on G for dG/dt = 2, its value when both traces
    are locally constant; the search takes it from one end, before it has
    three points to fit.
    """
    g = _log_ratio(p)
    return None if g is None else p.t - 0.5 * g


def _linear_fractional(p1: _Point, p2: _Point, p3: _Point) -> float | None:
    """Zero of exp(G/2) = (a beta + b)/(c beta + 1) fitted through three points.

    In u = beta / beta_3 - 1 and e = exp(G/2) - 1 the fit is
    e = (alpha u + e_3)/(delta u + 1), whose zero is u = -e_3 / alpha; with
    delta = 0 it is the secant step in beta. Returns None where G is
    undefined at a point, or the fit has no zero.
    """
    g1, g2, g3 = _log_ratio(p1), _log_ratio(p2), _log_ratio(p3)
    if g1 is None or g2 is None or g3 is None:
        return None
    # every expm1 argument below stays within double range
    if max(g1, g2, g3) > 1400.0:
        return None
    e1, e2, e3 = math.expm1(0.5 * g1), math.expm1(0.5 * g2), math.expm1(0.5 * g3)
    if e1 == e2:
        return None
    s1 = (e1 - e3) / math.expm1(p1.t - p3.t)
    s2 = (e2 - e3) / math.expm1(p2.t - p3.t)
    alpha = s1 + e1 * (s2 - s1) / (e1 - e2)
    if not (alpha and math.isfinite(alpha)):
        return None
    u = -e3 / alpha
    return p3.t + math.log1p(u) if u > -1.0 else None


def _root(objective, lo: _Point, hi: _Point):
    """Zero of the slope between lo and hi, taken as slope < 0 and slope > 0.

    Starts from the end with the larger |G|: its fixed-point step moves
    furthest. After it, each step is the linear-fractional zero through the
    last three evaluated points (lo and hi count, in that order). A step
    within ``TOL`` of the current point ends the search; one that leaves
    the bracket, or that the fit cannot take, gives way to bisection.
    Returns ``(t, last evaluated point, evaluations)``.
    """
    a, b = lo, hi
    ends = [p for p in (a, b) if _log_ratio(p) is not None]
    cur = max(ends, key=lambda p: abs(_log_ratio(p))) if ends else a
    last = (lo, hi)  # the evaluated points, in order
    for evals in range(MAX_ITERS + 1):
        if b.t - a.t <= TOL:
            return 0.5 * (a.t + b.t), cur, evals
        step = _linear_fractional(*last) if evals > 0 else _fixed_point(cur)
        t = 0.5 * (a.t + b.t)
        if step is not None:
            inside = a.t < step < b.t
            # A point the search evaluated is a bracket end, so a step onto
            # it leaves the bracket; an initial end's slope can be at
            # rounding level, so its own step counts only inside.
            if abs(step - cur.t) <= TOL and (inside or evals > 0):
                return step, cur, evals
            if inside:
                t = step
        if evals == MAX_ITERS:
            break
        cur = _eval(objective, t)
        last = (*last[-2:], cur)
        if cur.up == cur.down:
            return t, cur, evals + 1
        if cur.up < cur.down:
            a = cur
        else:
            b = cur
    raise OptimizerError(
        f"slope zero not located to {TOL:.3g} in {MAX_ITERS} evaluations "
        f"(bracket [{a.t:.6g}, {b.t:.6g}] in log space)"
    )


def minimize_scalar(p: ScalarProblem) -> ScalarResult:
    """Minimize ``p.objective`` over beta > 0 by root-finding on its log-slope.

    Both ends of ``BRACKET`` are evaluated once. Where the slope changes
    sign from negative to positive between them, the zero is found to
    ``TOL`` in log space. Otherwise the end the cost descends to is
    returned, exactly. The result is bit-deterministic in its inputs.
    """
    lo, hi = (_eval(p.objective, t) for t in BRACKET)
    evals = 2
    # The cost descends to an end whose slope does not point inward and
    # whose value is not above the other end's. Anything else brackets an
    # interior minimum: a sign change of the slope, or an end slope at
    # rounding level that the values contradict.
    lower = lo.up >= lo.down and lo.value <= hi.value
    if not (lower or (hi.up <= hi.down and hi.value <= lo.value)):
        t, at, n = _root(p.objective, lo, hi)
        evals += n
        if t - lo.t > TOL and hi.t - t > TOL:
            return ScalarResult(math.exp(t), at.value, evals, "interior")
        lower = t - lo.t <= TOL
    end = lo if lower else hi
    return ScalarResult(math.exp(end.t), end.value, evals, "lower" if lower else "upper")
