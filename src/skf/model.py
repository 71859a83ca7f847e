"""Nonlinear discrete-time system models and their linearization.

A model couples a process map ``f(x, u, w, a, k)`` and a measurement map
``h(x, v, b, k)``. Noise enters two ways: Gaussian terms (w, v) with
covariance providers, and bounded terms (a_1..a_I, b) whose reach is an
ellipsoid with a shape-matrix provider. Jacobians may be supplied
analytically; otherwise central finite differences are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

SQRT_EPS = float(np.sqrt(np.finfo(float).eps))

MatrixProvider = Callable[[int], np.ndarray]


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


def _as_provider(value) -> MatrixProvider:
    if callable(value):
        return value
    mat = np.atleast_2d(np.asarray(value, dtype=float))
    return lambda k, _m=mat: _m


@dataclass(frozen=True)
class AnalyticJacobians:
    """Optional analytic Jacobian providers; any may be left None.

    Process providers take (x, u, k) and are evaluated at w = 0, a = 0;
    measurement providers take (x, k) and are evaluated at v = 0, b = 0.
    """

    f_x: Callable | None = None
    f_w: Callable | None = None
    f_a: Sequence[Callable] | None = None
    h_x: Callable | None = None
    h_v: Callable | None = None
    h_b: Callable | None = None


@dataclass(frozen=True)
class NonlinearModel:
    """Discrete-time system with Gaussian and bounded disturbances.

    ``process_noise_cov``, ``meas_noise_cov``, ``ubb_process_shapes`` and
    ``ubb_meas_shape`` accept either a constant matrix or a callable
    ``k -> matrix``; constants are wrapped into providers.
    """

    state_dim: int
    input_dim: int
    meas_dim: int
    f: Callable
    h: Callable
    process_noise_cov: MatrixProvider
    ubb_process_shapes: tuple[MatrixProvider, ...]
    meas_noise_cov: MatrixProvider
    ubb_meas_shape: MatrixProvider
    jacobians: AnalyticJacobians | None = None
    angular_mask: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "process_noise_cov", _as_provider(self.process_noise_cov))
        object.__setattr__(self, "meas_noise_cov", _as_provider(self.meas_noise_cov))
        object.__setattr__(self, "ubb_meas_shape", _as_provider(self.ubb_meas_shape))
        object.__setattr__(
            self,
            "ubb_process_shapes",
            tuple(_as_provider(s) for s in self.ubb_process_shapes),
        )
        if self.angular_mask is not None:
            mask = np.asarray(self.angular_mask, dtype=bool)
            if mask.shape != (self.meas_dim,):
                raise ValueError("angular_mask must have one flag per measurement row")
            object.__setattr__(self, "angular_mask", mask)

    @property
    def n_ubb_process(self) -> int:
        return len(self.ubb_process_shapes)

    def process_noise_dim(self, k: int) -> int:
        return np.atleast_2d(self.process_noise_cov(k)).shape[0]

    def meas_noise_dim(self, k: int) -> int:
        return np.atleast_2d(self.meas_noise_cov(k)).shape[0]

    def ubb_process_dims(self, k: int) -> tuple[int, ...]:
        return tuple(np.atleast_2d(s(k)).shape[0] for s in self.ubb_process_shapes)

    def ubb_meas_dim(self, k: int) -> int:
        return np.atleast_2d(self.ubb_meas_shape(k)).shape[0]

    def zero_disturbances(self, k: int):
        """(w, [a_i], v, b) zero vectors sized for step k."""
        w = np.zeros(self.process_noise_dim(k))
        a = [np.zeros(d) for d in self.ubb_process_dims(k)]
        v = np.zeros(self.meas_noise_dim(k))
        b = np.zeros(self.ubb_meas_dim(k))
        return w, a, v, b


@dataclass(frozen=True)
class Linearization:
    """First-order expansion of a model at a requested center.

    ``linearize_process`` fills the process part (the value f_value at the
    expansion point, f_x, f_w, f_a); ``linearize_measurement`` the
    measurement part (h_value, h_x, h_v, h_b), along with the step's
    measurement noise matrices so downstream gain algebra has everything
    it needs in one place.
    """

    f_value: np.ndarray | None = None
    f_x: np.ndarray | None = None
    f_w: np.ndarray | None = None
    f_a: tuple[np.ndarray, ...] = ()
    h_value: np.ndarray | None = None
    h_x: np.ndarray | None = None
    h_v: np.ndarray | None = None
    h_b: np.ndarray | None = None
    meas_noise_cov: np.ndarray | None = None
    meas_ubb_shape: np.ndarray | None = None


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
    finite, together with f_x, f_w and each f_a_i.
    """
    x_center = np.atleast_1d(np.asarray(x_center, dtype=float))
    if x_center.size != m.state_dim:
        raise ValueError(f"center has dimension {x_center.size}, expected {m.state_dim}")
    w0, a0, _, _ = m.zero_disturbances(k)
    f_value = _check_finite(m.f(x_center, u, w0, a0, k), "process value", k)

    jac = m.jacobians
    if jac is not None and jac.f_x is not None:
        f_x = np.atleast_2d(np.asarray(jac.f_x(x_center, u, k), dtype=float))
    else:
        f_x = central_jacobian(lambda x: np.atleast_1d(m.f(x, u, w0, a0, k)), x_center)

    if jac is not None and jac.f_w is not None:
        f_w = np.atleast_2d(np.asarray(jac.f_w(x_center, u, k), dtype=float))
    else:
        f_w = central_jacobian(
            lambda w: np.atleast_1d(m.f(x_center, u, w, a0, k)), w0
        )

    f_a = []
    for i in range(m.n_ubb_process):
        if jac is not None and jac.f_a is not None and jac.f_a[i] is not None:
            f_ai = np.atleast_2d(np.asarray(jac.f_a[i](x_center, u, k), dtype=float))
        else:

            def _f_of_ai(ai, _i=i):
                a = [v.copy() for v in a0]
                a[_i] = ai
                return np.atleast_1d(m.f(x_center, u, w0, a, k))

            f_ai = central_jacobian(_f_of_ai, a0[i])
        f_a.append(f_ai)

    return Linearization(f_value=f_value, f_x=f_x, f_w=f_w, f_a=tuple(f_a))


def linearize_measurement(m: NonlinearModel, x_center: np.ndarray, k: int) -> Linearization:
    """Expand the measurement map about (x_center, v=0, b=0).

    Returns the measurement value there, which must be finite, together
    with h_x, h_v, h_b and the step's measurement noise matrices.
    """
    x_center = np.atleast_1d(np.asarray(x_center, dtype=float))
    if x_center.size != m.state_dim:
        raise ValueError(f"center has dimension {x_center.size}, expected {m.state_dim}")
    _, _, v0, b0 = m.zero_disturbances(k)
    h_value = _check_finite(m.h(x_center, v0, b0, k), "measurement value", k)

    jac = m.jacobians
    if jac is not None and jac.h_x is not None:
        h_x = np.atleast_2d(np.asarray(jac.h_x(x_center, k), dtype=float))
    else:
        h_x = central_jacobian(lambda x: np.atleast_1d(m.h(x, v0, b0, k)), x_center)

    if jac is not None and jac.h_v is not None:
        h_v = np.atleast_2d(np.asarray(jac.h_v(x_center, k), dtype=float))
    else:
        h_v = central_jacobian(lambda v: np.atleast_1d(m.h(x_center, v, b0, k)), v0)

    if jac is not None and jac.h_b is not None:
        h_b = np.atleast_2d(np.asarray(jac.h_b(x_center, k), dtype=float))
    else:
        h_b = central_jacobian(lambda b: np.atleast_1d(m.h(x_center, v0, b, k)), b0)

    return Linearization(
        h_value=h_value,
        h_x=h_x,
        h_v=h_v,
        h_b=h_b,
        meas_noise_cov=np.atleast_2d(np.asarray(m.meas_noise_cov(k), dtype=float)),
        meas_ubb_shape=np.atleast_2d(np.asarray(m.ubb_meas_shape(k), dtype=float)),
    )
