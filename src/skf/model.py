"""Nonlinear discrete-time system models and their linearization.

A model couples a process map ``f(x, u, w, a, k)`` and a measurement map
``h(x, v, b, k)``. Noise enters two ways: Gaussian terms (w, v) with
covariances, and bounded terms (a_1..a_I, b) whose reach is an ellipsoid
with a shape matrix. Each such matrix, and each analytic Jacobian, is a
constant, checked once and then served as stored, or a callable of the
step, checked where it is served; Jacobians not given are central finite
differences. A covariance or shape is served as its factor L only (L L^T
the matrix). ``NumericsError`` and its base ``FilterError`` are defined here,
where a provider's value is checked; ``skf.filter`` re-exports both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .ellipsoid import _check_psd

SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


class FilterError(RuntimeError):
    """Filter step failure; carries the step index when known."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message if step is None else f"step {step}: {message}")
        self.step = step


class NumericsError(FilterError):
    """A covariance or shape matrix broke the matrix rule, or is not finite."""


class ModelEvaluationError(RuntimeError):
    """The model returned a non-finite value at an expansion point."""


def wrap_angles(residual: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Wrap masked residual components into (-pi, pi]."""
    if mask is None:
        return residual
    out = np.array(residual, dtype=float)
    m = np.asarray(mask, dtype=bool)
    out[m] = np.pi - np.mod(np.pi - out[m], 2.0 * np.pi)
    return out


def _matrix(value) -> np.ndarray:
    return np.atleast_2d(np.asarray(value, dtype=float))


def _serve(value, *args) -> np.ndarray:
    """A field's matrix at ``args``: a stored constant as is, a callable's value converted."""
    return _matrix(value(*args)) if callable(value) else value


def _constant(value, name: str) -> np.ndarray:
    """A constant field as a float matrix; one numpy cannot convert names its field."""
    try:
        return _matrix(value)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{name}: {err}") from None


def _psd_pair(value, name: str) -> tuple[np.ndarray, np.ndarray]:
    """A PSD field's value as (symmetrized matrix, factor); it must be one matrix, not a stack."""
    (mat,), _, (factor,) = _check_psd(_constant(value, name)[None], names=name)
    return mat, factor


def _serve_psd(m: NonlinearModel, name: str, k: int) -> np.ndarray:
    """A PSD field's factor at step k: stored for a constant, checked for a callable.

    A callable's value that breaks the matrix rule raises ``NumericsError``.
    """
    source = m._psd[name]
    if not callable(source):
        return source
    served = source(k)
    try:
        return _psd_pair(served, name)[1]
    except ValueError as err:
        raise NumericsError(str(err), k) from err


def _jacobian_constant(value, name: str):
    if value is None or callable(value):
        return value
    mat = _constant(value, name)
    if mat.ndim != 2 or not np.all(np.isfinite(mat)):
        raise ValueError(f"{name}: a constant Jacobian must be finite and 2-D, got {mat.shape}")
    return mat


@dataclass(frozen=True)
class AnalyticJacobians:
    """Optional analytic Jacobians, each a constant matrix or a callable; any may be None.

    Process callables take (x, u, k) and are evaluated at w = 0, a = 0;
    measurement callables take (x, k) and are evaluated at v = 0, b = 0.
    """

    f_x: Callable | np.ndarray | None = None
    f_w: Callable | np.ndarray | None = None
    f_a: Sequence[Callable | np.ndarray] | None = None
    h_x: Callable | np.ndarray | None = None
    h_v: Callable | np.ndarray | None = None
    h_b: Callable | np.ndarray | None = None

    def __post_init__(self):
        for name in ("f_x", "f_w", "h_x", "h_v", "h_b"):
            object.__setattr__(self, name, _jacobian_constant(getattr(self, name), name))
        if self.f_a is not None:
            f_a = tuple(_jacobian_constant(j, f"f_a[{i}]") for i, j in enumerate(self.f_a))
            object.__setattr__(self, "f_a", f_a)


@dataclass(frozen=True)
class NonlinearModel:
    """Discrete-time system with Gaussian and bounded disturbances.

    ``process_noise_cov``, ``meas_noise_cov``, ``ubb_process_shapes`` and
    ``ubb_meas_shape`` accept either a constant matrix or a callable
    ``k -> matrix``. A constant passes ``_check_psd`` here, naming the field,
    and is stored symmetrized, with its factor, and served as is. A callable's
    value passes it each time it is served; a violation raises
    ``NumericsError`` naming the step and the field.
    """

    state_dim: int
    input_dim: int
    meas_dim: int
    f: Callable
    h: Callable
    process_noise_cov: Callable | np.ndarray
    ubb_process_shapes: tuple[Callable | np.ndarray, ...]
    meas_noise_cov: Callable | np.ndarray
    ubb_meas_shape: Callable | np.ndarray
    jacobians: AnalyticJacobians | None = None
    angular_mask: np.ndarray | None = None
    # field name (``ubb_process_shapes[i]`` per shape) -> a constant's factor, or the callable
    _psd: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        matrices = ("process_noise_cov", "meas_noise_cov", "ubb_meas_shape")
        named = [(name, getattr(self, name)) for name in matrices]
        named += [(f"ubb_process_shapes[{i}]", s) for i, s in enumerate(self.ubb_process_shapes)]
        pairs = {name: (v, v) if callable(v) else _psd_pair(v, name) for name, v in named}
        for name in matrices:
            object.__setattr__(self, name, pairs[name][0])
        shapes = tuple(pairs[name][0] for name, _ in named[3:])
        object.__setattr__(self, "ubb_process_shapes", shapes)
        object.__setattr__(self, "_psd", {name: pair[1] for name, pair in pairs.items()})
        object.__setattr__(self, "jacobians", self.jacobians or AnalyticJacobians())
        slots = self.jacobians.f_a
        if slots is not None and len(shapes) > len(slots):
            raise ValueError(f"ubb_process_shapes: {len(shapes)} shapes, but f_a has {len(slots)}")
        if self.angular_mask is not None:
            mask = np.asarray(self.angular_mask, dtype=bool)
            if mask.shape != (self.meas_dim,):
                raise ValueError("angular_mask must have one flag per measurement row")
            object.__setattr__(self, "angular_mask", mask)


@dataclass(frozen=True)
class Linearization:
    """First-order expansion of a model at a requested center.

    ``linearize_process`` fills the process part (the value f_value at the
    expansion point, f_x, f_w, f_a); ``linearize_measurement`` the
    measurement part (h_value, h_x, h_v, h_b). Each also carries the
    factors of its part's noise covariances and shapes at the step, served
    once from the model's fields; the filter computes from them alone.
    """

    f_value: np.ndarray | None = None
    f_x: np.ndarray | None = None
    f_w: np.ndarray | None = None
    f_a: tuple[np.ndarray, ...] = ()
    process_noise_factor: np.ndarray | None = None
    ubb_process_factors: tuple[np.ndarray, ...] = ()
    h_value: np.ndarray | None = None
    h_x: np.ndarray | None = None
    h_v: np.ndarray | None = None
    h_b: np.ndarray | None = None
    meas_noise_factor: np.ndarray | None = None
    meas_ubb_factor: np.ndarray | None = None


def central_jacobian(func: Callable[[np.ndarray], np.ndarray], x0: np.ndarray) -> np.ndarray:
    """Central finite-difference Jacobian with per-coordinate adaptive step."""
    x0 = np.asarray(x0, dtype=float)
    cols = []
    for j in range(x0.size):
        hj = SQRT_EPS * max(1.0, abs(x0[j]))
        xp = x0.copy()
        xm = x0.copy()
        xp[j] += hj
        xm[j] -= hj
        cols.append((func(xp) - func(xm)) / (2.0 * hj))
    return np.column_stack(cols)


def _jacobian(analytic, args: tuple, func: Callable, x0: np.ndarray):
    """The analytic Jacobian at ``args`` if given, else central differences of func at x0."""
    if analytic is not None:
        return _serve(analytic, *args)
    return central_jacobian(lambda z: np.atleast_1d(func(z)), x0)


def _check_finite(value: np.ndarray, what: str, k: int) -> np.ndarray:
    value = np.atleast_1d(np.asarray(value, dtype=float))
    if not np.all(np.isfinite(value)):
        raise ModelEvaluationError(f"{what} is not finite at step {k}: {value}")
    return value


def linearize_process(
    m: NonlinearModel, x_center: np.ndarray, u: np.ndarray, k: int
) -> Linearization:
    """Expand the process map about (x_center, u, w=0, a=0).

    Returns the process value at the expansion point, which must be
    finite, together with f_x, f_w, each f_a_i and the step's process
    noise factors; the zero disturbances are sized from those factors.
    """
    x_center = np.atleast_1d(np.asarray(x_center, dtype=float))
    if x_center.size != m.state_dim:
        raise ValueError(f"center has dimension {x_center.size}, expected {m.state_dim}")
    if np.size(u) != m.input_dim:
        raise ValueError(f"input has dimension {np.size(u)}, expected {m.input_dim}")
    l_u = _serve_psd(m, "process_noise_cov", k)
    names = [f"ubb_process_shapes[{i}]" for i in range(len(m.ubb_process_shapes))]
    factors = tuple(_serve_psd(m, name, k) for name in names)
    w0 = np.zeros(l_u.shape[0])
    a0 = [np.zeros(f.shape[0]) for f in factors]
    f_value = _check_finite(m.f(x_center, u, w0, a0, k), "process value", k)

    jac = m.jacobians
    at = (x_center, u, k)
    f_x = _jacobian(jac.f_x, at, lambda x: m.f(x, u, w0, a0, k), x_center)
    f_w = _jacobian(jac.f_w, at, lambda w: m.f(x_center, u, w, a0, k), w0)

    def f_of_a(i, ai):
        a = list(a0)
        a[i] = ai
        return m.f(x_center, u, w0, a, k)

    analytic_a = jac.f_a if jac.f_a is not None else (None,) * len(factors)
    f_a = [_jacobian(analytic_a[i], at, partial(f_of_a, i), a0[i]) for i in range(len(factors))]

    return Linearization(
        f_value=f_value,
        f_x=f_x,
        f_w=f_w,
        f_a=tuple(f_a),
        process_noise_factor=l_u,
        ubb_process_factors=factors,
    )


def linearize_measurement(m: NonlinearModel, x_center: np.ndarray, k: int) -> Linearization:
    """Expand the measurement map about (x_center, v=0, b=0).

    Returns the measurement value there, which must be finite, together
    with h_x, h_v, h_b and the step's measurement noise factors.
    """
    x_center = np.atleast_1d(np.asarray(x_center, dtype=float))
    if x_center.size != m.state_dim:
        raise ValueError(f"center has dimension {x_center.size}, expected {m.state_dim}")
    l_cz = _serve_psd(m, "meas_noise_cov", k)
    l_sz = _serve_psd(m, "ubb_meas_shape", k)
    v0 = np.zeros(l_cz.shape[0])
    b0 = np.zeros(l_sz.shape[0])
    h_value = _check_finite(m.h(x_center, v0, b0, k), "measurement value", k)

    jac = m.jacobians
    at = (x_center, k)
    h_x = _jacobian(jac.h_x, at, lambda x: m.h(x, v0, b0, k), x_center)
    h_v = _jacobian(jac.h_v, at, lambda v: m.h(x_center, v, b0, k), v0)
    h_b = _jacobian(jac.h_b, at, lambda b: m.h(x_center, v0, b, k), b0)

    return Linearization(
        h_value=h_value,
        h_x=h_x,
        h_v=h_v,
        h_b=h_b,
        meas_noise_factor=l_cz,
        meas_ubb_factor=l_sz,
    )
