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

import functools
from dataclasses import dataclass, field, fields
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
    """``value`` as a float array of at least two dimensions (``np.atleast_2d``), in one call."""
    return np.array(value, dtype=float, copy=None, ndmin=2)


@functools.cache
def _process_shape_names(count: int) -> tuple[str, ...]:
    """The field names ``ubb_process_shapes[i]`` of ``count`` bounded process shapes."""
    return tuple(f"ubb_process_shapes[{i}]" for i in range(count))


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


def _with_gram(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A measurement noise block J L and its Gram (J L)(J L)^T."""
    return block, block @ block.T


def _constant_blocks(pairs) -> list | None:
    """J @ L of each (Jacobian, factor) pair, or None unless every pair is constant and fits."""
    for jacobian, factor in pairs:
        constant = isinstance(jacobian, np.ndarray) and isinstance(factor, np.ndarray)
        if not (constant and jacobian.shape[1] == factor.shape[0]):
            return None
    return [jacobian @ factor for jacobian, factor in pairs]


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

    Where every noise Jacobian of a part (f_w and each f_a[i], or h_v and
    h_b) and every noise matrix it multiplies are constants, the model
    forms that part's noise blocks, the Jacobian times the factor, once,
    and the measurement blocks' Grams with them; the linearizers serve
    these at every step.
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
    # each part's noise blocks, as the linearizers serve them, or None where formed per step
    _process_blocks: tuple | None = field(init=False, repr=False, compare=False)
    _meas_blocks: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        matrices = ("process_noise_cov", "meas_noise_cov", "ubb_meas_shape")
        named = [(name, getattr(self, name)) for name in matrices]
        named_shapes = _process_shape_names(len(self.ubb_process_shapes))
        named += list(zip(named_shapes, self.ubb_process_shapes))
        pairs = {name: (v, v) if callable(v) else _psd_pair(v, name) for name, v in named}
        for name in matrices:
            object.__setattr__(self, name, pairs[name][0])
        shapes = tuple(pairs[name][0] for name in named_shapes)
        object.__setattr__(self, "ubb_process_shapes", shapes)
        object.__setattr__(self, "_psd", {name: pair[1] for name, pair in pairs.items()})
        object.__setattr__(self, "jacobians", self.jacobians or AnalyticJacobians())
        jac = self.jacobians
        slots = jac.f_a
        if slots is not None and len(shapes) > len(slots):
            raise ValueError(f"ubb_process_shapes: {len(shapes)} shapes, but f_a has {len(slots)}")
        # a block that does not fit is left to the step, which raises there
        psd = self._psd
        process = _constant_blocks(
            [(jac.f_w, psd["process_noise_cov"])]
            + [(j, psd[name]) for j, name in zip(slots or (None,) * len(shapes), named_shapes)]
        )
        meas = _constant_blocks(
            [(jac.h_v, psd["meas_noise_cov"]), (jac.h_b, psd["ubb_meas_shape"])]
        )
        process = process and (process[0], tuple(process[1:]))
        meas = meas and (*_with_gram(meas[0]), *_with_gram(meas[1]))
        object.__setattr__(self, "_process_blocks", process)
        object.__setattr__(self, "_meas_blocks", meas)
        if self.angular_mask is not None:
            mask = np.asarray(self.angular_mask, dtype=bool)
            if mask.shape != (self.meas_dim,):
                raise ValueError("angular_mask must have one flag per measurement row")
            object.__setattr__(self, "angular_mask", mask)


def _block_field(default=None):
    """A noise-block field of ``Linearization``: computed, not passed to the constructor."""
    return field(default=default, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Linearization:
    """First-order expansion of a model at a requested center.

    ``linearize_process`` fills the process part (the value f_value at the
    expansion point, f_x, f_w, f_a); ``linearize_measurement`` the
    measurement part (h_value, h_x, h_v, h_b). Each also carries the
    factors of its part's noise covariances and shapes at the step, served
    once from the model's fields, and its noise blocks: f_w L_Cu, each
    f_a,i L_a,i, h_v L_Cz and h_b L_Sz, with the Grams H_v C_z H_v^T and
    N = H_b S_z H_b^T of the last two. The filter computes from them alone.

    The blocks are not init fields. The linearizers serve them, the model's
    own for constant providers; a Linearization built by its constructor,
    also through ``dataclasses.replace``, computes them from its own fields.
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
    process_noise_block: np.ndarray | None = _block_field()
    ubb_process_blocks: tuple[np.ndarray, ...] = _block_field(())
    meas_noise_block: np.ndarray | None = _block_field()
    meas_noise_gram: np.ndarray | None = _block_field()
    meas_ubb_block: np.ndarray | None = _block_field()
    meas_ubb_gram: np.ndarray | None = _block_field()

    def __post_init__(self):
        blocks = {"ubb_process_blocks": tuple(map(np.matmul, self.f_a, self.ubb_process_factors))}
        if self.f_w is not None and self.process_noise_factor is not None:
            blocks["process_noise_block"] = self.f_w @ self.process_noise_factor
        for name, jacobian, factor in (
            ("meas_noise", self.h_v, self.meas_noise_factor),
            ("meas_ubb", self.h_b, self.meas_ubb_factor),
        ):
            if jacobian is not None and factor is not None:
                blocks[f"{name}_block"], blocks[f"{name}_gram"] = _with_gram(jacobian @ factor)
        self.__dict__.update(blocks)


# every field at its default, the start of a Linearization the linearizers fill
_EMPTY = {f.name: f.default for f in fields(Linearization)}


def _served(**parts) -> Linearization:
    """A Linearization of the given fields, blocks included, taken as they are."""
    lin = object.__new__(Linearization)
    lin.__dict__.update(_EMPTY, **parts)
    return lin


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


def _jacobian(analytic, at: tuple, func: Callable, args: tuple, slot: int, item: int | None = None):
    """The analytic Jacobian at ``at`` if given, else central differences of ``func(*args)``.

    A constant is served as stored, a callable's value converted. The
    differences are taken in ``args[slot]``, or in its ``item``-th array
    where the argument is a list (a bounded process term of f); the map
    they difference is built only here, where no analytic Jacobian is given.
    """
    if analytic is not None:
        return _matrix(analytic(*at)) if callable(analytic) else analytic

    def moved(z):
        new = list(args)
        if item is None:
            new[slot] = z
        else:
            new[slot] = [*args[slot][:item], z, *args[slot][item + 1 :]]
        return np.atleast_1d(func(*new))

    return central_jacobian(moved, args[slot] if item is None else args[slot][item])


def _check_finite(value: np.ndarray, what: str, k: int) -> np.ndarray:
    value = np.array(value, dtype=float, copy=None, ndmin=1)
    if not np.isfinite(value).all():
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
    x_center = np.array(x_center, dtype=float, copy=None, ndmin=1)
    if x_center.size != m.state_dim:
        raise ValueError(f"center has dimension {x_center.size}, expected {m.state_dim}")
    if np.size(u) != m.input_dim:
        raise ValueError(f"input has dimension {np.size(u)}, expected {m.input_dim}")
    l_u = _serve_psd(m, "process_noise_cov", k)
    names = _process_shape_names(len(m.ubb_process_shapes))
    factors = tuple([_serve_psd(m, name, k) for name in names])
    w0 = np.zeros(l_u.shape[0])
    a0 = [np.zeros(f.shape[0]) for f in factors]
    args = (x_center, u, w0, a0, k)
    f_value = _check_finite(m.f(*args), "process value", k)

    jac = m.jacobians
    at = (x_center, u, k)
    f_x = _jacobian(jac.f_x, at, m.f, args, 0)
    f_w = _jacobian(jac.f_w, at, m.f, args, 2)
    analytic_a = jac.f_a if jac.f_a is not None else (None,) * len(factors)
    f_a = [_jacobian(analytic_a[i], at, m.f, args, 3, i) for i in range(len(factors))]
    blocks = m._process_blocks or (f_w @ l_u, tuple(map(np.matmul, f_a, factors)))

    return _served(
        f_value=f_value,
        f_x=f_x,
        f_w=f_w,
        f_a=tuple(f_a),
        process_noise_factor=l_u,
        ubb_process_factors=factors,
        process_noise_block=blocks[0],
        ubb_process_blocks=blocks[1],
    )


def linearize_measurement(m: NonlinearModel, x_center: np.ndarray, k: int) -> Linearization:
    """Expand the measurement map about (x_center, v=0, b=0).

    Returns the measurement value there, which must be finite, together
    with h_x, h_v, h_b and the step's measurement noise factors.
    """
    x_center = np.array(x_center, dtype=float, copy=None, ndmin=1)
    if x_center.size != m.state_dim:
        raise ValueError(f"center has dimension {x_center.size}, expected {m.state_dim}")
    l_cz = _serve_psd(m, "meas_noise_cov", k)
    l_sz = _serve_psd(m, "ubb_meas_shape", k)
    v0 = np.zeros(l_cz.shape[0])
    b0 = np.zeros(l_sz.shape[0])
    args = (x_center, v0, b0, k)
    h_value = _check_finite(m.h(*args), "measurement value", k)

    jac = m.jacobians
    at = (x_center, k)
    h_x = _jacobian(jac.h_x, at, m.h, args, 0)
    h_v = _jacobian(jac.h_v, at, m.h, args, 1)
    h_b = _jacobian(jac.h_b, at, m.h, args, 2)

    blocks = m._meas_blocks or (*_with_gram(h_v @ l_cz), *_with_gram(h_b @ l_sz))
    hv_lcz, r, hb_lsz, n = blocks
    return _served(
        h_value=h_value,
        h_x=h_x,
        h_v=h_v,
        h_b=h_b,
        meas_noise_factor=l_cz,
        meas_ubb_factor=l_sz,
        meas_noise_block=hv_lcz,
        meas_noise_gram=r,
        meas_ubb_block=hb_lsz,
        meas_ubb_gram=n,
    )
