"""Scalar minimization over the positive half-line by root-finding on the slope.

The filtering step needs the minimizer of a cost J(beta) for beta > 0.
The search runs in t = log(beta), on the fixed bracket ``BRACKET`` =
[-20, 20]. Each evaluation returns the cost and the two non-negative parts
of its slope, dJ/dt = up - down; the filter gets both from the envelope
theorem at no cost beyond the value. An interior minimizer is a zero of
G(t) = log(up) - log(down).

A problem may give either bracket end as a ``Limit``: the limit of G as
beta -> 0 or beta -> inf, and the cost there, known in closed form, so
that end is not evaluated. The filter's kink tests supply both. G is flat
in both tails, so the limit stands for the end in the rule below and in
the bracket; in the fit it sits where G reaches it, at t = -inf or +inf.

* If the slope keeps one sign between the bracket ends, and the values
  agree, the cost is monotone there and the search returns the end it
  descends to, exactly.
* Otherwise a fixed-point step t - G/2 from an evaluated end starts the
  search; with two limit ends, a bisection step does. A limit end takes
  no fixed-point step: its G is the tail's asymptote, which the step
  would chase. Each later step fits exp(G/2) = sqrt(up/down) as
  (a beta + b)/(c beta + 1) through the last three points, ends and
  limits included (Jarratt and Nudds, Comput. J. 8(1), 1965). Where that
  zero leaves the bracket through a limit end, the search evaluates the
  end: G may not have reached its limit there, and the zero may lie
  beyond it. Where the zero is undefined or leaves the bracket
  elsewhere, bisection on the sign of the slope takes its place (Brent,
  *Algorithms for Minimization without Derivatives*, 1973). A proposed
  step within ``TOL`` of the current point ends the search, also where
  it falls just outside the bracket.

For a scalar measurement the fit is exact: sqrt(up/down) =
|h_x| sqrt(N/S) (A beta + eta S)/(B + eta N beta), with
A = (1 - eta) C + eta S, B = (1 - eta) R + eta N, R = h_v^2 C_z and
N = h_b^2 S_z. G is flat in both tails, where a step on G alone would
crawl, but the fit still lands on the zero. Its limits are b and a/c,
so with both given the bisection step fixes the fit and a second
evaluation confirms its zero: on example1 an interior search takes 2
evaluations. On example2, with only its beta -> inf limit given, it
takes 4 to 7, the lower end included.

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

A problem sets its objective and, optionally, its limit ends. The
bracket, the accuracy ``TOL`` (1e-8 in t) and the evaluation cap
``MAX_ITERS`` (200) are constants.
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


class Limit(NamedTuple):
    """A bracket end known in closed form: G = log(up) - log(down) there, and the cost."""

    g: float
    value: float


@dataclass(frozen=True)
class ScalarProblem:
    """A one-dimensional minimization of a cost over beta > 0.

    ``objective(beta)`` returns ``(value, up, down)``: the cost and two
    non-negative parts of its log-slope, dJ/dlog(beta) = up - down.
    ``limits`` holds a ``Limit`` or None for the lower and the upper end of
    the bracket; an end given as a limit is never passed to the objective.
    Its G must be finite and its value the cost there. ``bracket`` reads
    the fixed bracket ``BRACKET``, in t = log(beta); it is not a field.
    The accuracy ``TOL`` and the evaluation cap ``MAX_ITERS`` are module
    constants too.
    """

    objective: Callable[[float], tuple[float, float, float]]
    limits: tuple[Limit | None, Limit | None] = (None, None)
    bracket: ClassVar[tuple[float, float]] = BRACKET


class ScalarResult(NamedTuple):
    """The minimizer, a cost, and the work done.

    ``regime`` is ``"interior"`` for a zero of the slope, with ``value`` the
    cost at the last evaluated point, and ``"lower"`` or ``"upper"`` for a
    cost monotone up to that end of the bracket, with ``value`` the cost
    there (a limit's value where the end was not evaluated). ``evals``
    counts the calls of the objective.
    """

    beta: float
    value: float
    evals: int
    regime: str


class _Point(NamedTuple):
    """A point of the search; ``g`` is G, None where a slope part is 0.

    ``slope`` has the sign of dJ/dt: up - down where evaluated, G at a limit.
    A limit end sits at its bracket end, and in the fit at t = -inf or +inf.
    """

    t: float
    value: float
    slope: float
    g: float | None


def _eval(objective, t: float) -> _Point:
    beta = math.exp(t)
    value, up, down = objective(beta)
    value, up, down = float(value), float(up), float(down)
    if not math.isfinite(value):
        raise OptimizerError(f"objective is not finite at beta = exp({t:.6g}) = {beta:.6g}")
    if not (0.0 <= up < math.inf and 0.0 <= down < math.inf):
        raise OptimizerError(
            f"slope parts must be finite and non-negative at beta = {beta:.6g}, "
            f"got up = {up!r}, down = {down!r}"
        )
    g = math.log(up) - math.log(down) if up > 0.0 and down > 0.0 else None
    return _Point(t, value, up - down, g)


def _limit(t: float, limit: Limit) -> _Point:
    """The bracket end at t that ``limit`` gives; a G or value that is not finite raises."""
    g, value = float(limit.g), float(limit.value)
    if not (math.isfinite(g) and math.isfinite(value)):
        raise OptimizerError(f"limit at t = {t:.6g} is not finite: G = {g!r}, value = {value!r}")
    return _Point(t, value, g, g)


def _fixed_point(p: _Point) -> float | None:
    """The fixed-point step t - G/2, or None where G is undefined.

    It is the secant step on G for dG/dt = 2, its value when both traces
    are locally constant; the search takes it from an evaluated end,
    before it has three points to fit.
    """
    return None if p.g is None else p.t - 0.5 * p.g


def _linear_fractional(p1: _Point, p2: _Point, p3: _Point) -> float | None:
    """Zero of exp(G/2) = (a beta + b)/(c beta + 1) fitted through three points.

    In u = beta / beta_3 - 1 and e = exp(G/2) - 1 the fit is
    e = (alpha u + e_3)/(delta u + 1), whose zero is u = -e_3 / alpha; with
    delta = 0 it is the secant step in beta. A point at t = -inf or +inf
    is a limit, the fit's value at beta = 0 or its asymptote as beta -> inf
    (u = -1 or u = inf). Returns None where G is undefined at a point, or
    the fit has no zero.
    """
    g1, g2, g3 = p1.g, p2.g, p3.g
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


def _root(objective, lo: _Point, hi: _Point, start: _Point | None, fit: list[_Point]):
    """Zero of the slope between lo and hi, taken as slope < 0 and slope > 0.

    Starts with the fixed-point step from ``start``, an evaluated end, or
    with bisection where there is none. After it, each step is the
    linear-fractional zero through the last three points, the first two
    being ``fit``: lo and hi, in that order, with a limit end at its
    t = -inf or +inf. A step within ``TOL`` of the current point ends the
    search. One that leaves the bracket through a limit end evaluates that
    end; one that leaves it elsewhere, or that the fit cannot take, gives
    way to bisection. Returns ``(t, current point, evaluations)``.
    """
    a, b = lo, hi
    cur = start or lo
    last = tuple(fit)  # the points of the fit, in order
    # A fit step out through a limit end evaluates that end instead: where G
    # has not reached its limit by the end, the zero can lie beyond it.
    lo_is_limit, hi_is_limit = fit[0] is not lo, fit[1] is not hi
    for evals in range(MAX_ITERS + 1):
        if b.t - a.t <= TOL:
            return 0.5 * (a.t + b.t), cur, evals
        if evals > 0:
            step = _linear_fractional(*last)
        else:
            step = None if start is None else _fixed_point(start)
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
            elif step >= b.t and b is hi and hi_is_limit:
                t = b.t
            elif step <= a.t and a is lo and lo_is_limit:
                t = a.t
        if evals == MAX_ITERS:
            break
        cur = _eval(objective, t)
        last = (*last[-2:], cur)
        if cur.slope == 0.0:
            return t, cur, evals + 1
        if cur.slope < 0.0:
            a = cur
        else:
            b = cur
    raise OptimizerError(
        f"slope zero not located to {TOL:.3g} in {MAX_ITERS} evaluations "
        f"(bracket [{a.t:.6g}, {b.t:.6g}] in log space)"
    )


def minimize_scalar(p: ScalarProblem) -> ScalarResult:
    """Minimize ``p.objective`` over beta > 0 by root-finding on its log-slope.

    Each end of ``BRACKET`` that ``p.limits`` does not give is evaluated
    once. Where the slope changes sign from negative to positive between
    the ends, the zero is found to ``TOL`` in log space. Otherwise the end
    the cost descends to is returned, exactly. The result is
    bit-deterministic in its inputs.
    """
    ends, fit, evaluated = [], [], []  # the bracket ends, their fit points, those evaluated
    for t, limit in zip(BRACKET, p.limits):
        if limit is None:
            end = _eval(p.objective, t)
            evaluated.append(end)
        else:
            end = _limit(t, limit)
        ends.append(end)
        # a limit is G's asymptote: the fit takes it where G reaches it, at t = -inf or +inf
        fit.append(end if limit is None else end._replace(t=math.copysign(math.inf, t)))
    lo, hi = ends
    evals = len(evaluated)
    # The cost descends to an end whose slope does not point inward and
    # whose value is not above the other end's. Anything else brackets an
    # interior minimum: a sign change of the slope, or an end slope at
    # rounding level that the values contradict.
    lower = lo.slope >= 0.0 and lo.value <= hi.value
    if not (lower or (hi.slope <= 0.0 and hi.value <= lo.value)):
        # the fixed-point step moves furthest from the end with the larger |G|
        starts = [end for end in evaluated if end.g is not None]
        start = max(starts, key=lambda end: abs(end.g)) if starts else None
        t, at, n = _root(p.objective, lo, hi, start, fit)
        evals += n
        if t - lo.t > TOL and hi.t - t > TOL:
            return ScalarResult(math.exp(t), at.value, evals, "interior")
        lower = t - lo.t <= TOL
        if at.t == (lo.t if lower else hi.t):  # a limit end the search evaluated
            lo, hi = (at, hi) if lower else (lo, at)
    end = lo if lower else hi
    return ScalarResult(math.exp(end.t), end.value, evals, "lower" if lower else "upper")
