"""Ellipsoidal set calculus.

An ellipsoid is represented by its center c and a symmetric positive
semi-definite shape matrix S as {x : (x - c)^T S^{-1} (x - c) <= 1}.
This module provides affine images, membership tests, and the
trace-minimal ellipsoidal outer bound of a Minkowski sum of ellipsoids.
The sum bounds work on shape matrices alone: the center of a sum is the
sum of the centers, so callers that track centers add them directly.

``_scale_tol`` is the one symmetry/PSD tolerance of the package, and
rejects NaN and infinite entries. ``_as_shape_matrix`` and
``_psd_eigmin`` apply it; the filter's conditioning step reuses both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

TOL_SYM = 1e-10  # asymmetry / PSD deficit tolerated at unit scale
EPS_PD = 1e-12  # smallest eigenvalue below which a shape counts as degenerate
EPS_TRACE = 1e-14  # trace below which a summand counts as a single point


class DegenerateEllipsoidError(ValueError):
    """Operation requires a strictly positive-definite shape matrix."""


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Average a matrix with its transpose to suppress floating-point drift."""
    return 0.5 * (m + m.T)


def _scale_tol(m: np.ndarray) -> float:
    """TOL_SYM at unit scale, proportionally looser for large matrices.

    Float products of symmetric factors carry asymmetry and negative
    spectrum ~ eps * |entries|; deviations beyond this bound are bugs.
    NaN or inf entries propagate to the peak and raise ``ValueError``.
    """
    peak = float(np.max(np.abs(m))) if m.size else 0.0
    if not math.isfinite(peak):
        raise ValueError("matrix has non-finite entries")
    return TOL_SYM * max(1.0, peak)


def _as_shape_matrix(shape, dim: int | None = None) -> np.ndarray:
    s = np.asarray(shape, dtype=float)
    if s.ndim == 0:
        s = s.reshape(1, 1)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"shape matrix must be square, got {s.shape}")
    if dim is not None and s.shape[0] != dim:
        raise ValueError(f"shape matrix is {s.shape[0]}x{s.shape[0]}, expected {dim}x{dim}")
    tol = _scale_tol(s)
    asym = float(np.max(np.abs(s - s.T))) if s.size else 0.0
    if asym > tol:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds {tol:.3e}")
    return symmetrize(s)


def _psd_eigmin(s: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric shape; rejects negative spectrum."""
    eigmin = float(np.linalg.eigvalsh(s)[0]) if s.size else 0.0
    if eigmin < -_scale_tol(s):
        raise ValueError(f"matrix is not PSD (min eigenvalue {eigmin:.3e})")
    return eigmin


@dataclass(frozen=True)
class Ellipsoid:
    """Ellipsoid {x : (x - center)^T shape^{-1} (x - center) <= 1}.

    The shape matrix must be symmetric within ``TOL_SYM`` and positive
    semi-definite. Shapes whose smallest eigenvalue falls below ``EPS_PD``
    are flagged degenerate: they remain valid operands of sums and affine
    maps but reject membership queries.
    """

    center: np.ndarray
    shape: np.ndarray
    _eigmin: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if center.ndim != 1 or not np.all(np.isfinite(center)):
            raise ValueError("center must be a vector of finite entries")
        shape = _as_shape_matrix(self.shape, dim=center.size)
        eigmin = _psd_eigmin(shape)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_eigmin", eigmin)

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def degenerate(self) -> bool:
        return self._eigmin < EPS_PD


def affine_image(e: Ellipsoid, a, b=None) -> Ellipsoid:
    """Image of an ellipsoid under x -> a @ x + b.

    Returns the ellipsoid with center ``a @ center + b`` and shape
    ``a @ shape @ a.T`` (symmetrized). Rank-deficient maps yield a
    degenerate result, which is allowed.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[1] != e.dim:
        raise ValueError(f"map has {a.shape[1]} columns, ellipsoid dimension is {e.dim}")
    if b is None:
        b = np.zeros(a.shape[0])
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.size != a.shape[0]:
        raise ValueError(f"offset has size {b.size}, map has {a.shape[0]} rows")
    return Ellipsoid(a @ e.center + b, symmetrize(a @ e.shape @ a.T))


def contains(e: Ellipsoid, x, slack: float = 0.0) -> bool:
    """Membership test (x - c)^T S^{-1} (x - c) <= 1 + slack.

    Solved against the Cholesky factor L of S as |L^{-1} (x - c)|^2,
    never through an explicit inverse. Degenerate ellipsoids are rejected:
    the quadratic form is unbounded on flat directions.
    """
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    if e.degenerate:
        raise DegenerateEllipsoidError(
            "membership is undefined for a degenerate (flat) ellipsoid"
        )
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != e.dim:
        raise ValueError(f"point has dimension {x.size}, expected {e.dim}")
    z = np.linalg.solve(np.linalg.cholesky(e.shape), x - e.center)
    return float(z @ z) <= 1.0 + slack


def pair_sum_shape(s1, s2, beta: float) -> np.ndarray:
    """Shape of the two-term outer bound, (1 + 1/beta) S1 + (1 + beta) S2.

    For beta = sqrt(tr S1 / tr S2) the trace of the result equals
    (sqrt(tr S1) + sqrt(tr S2))^2, the minimum over beta > 0.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    s1 = _as_shape_matrix(s1)
    s2 = _as_shape_matrix(s2, dim=s1.shape[0])
    return symmetrize((1.0 + 1.0 / beta) * s1 + (1.0 + beta) * s2)


def trace_min_sum(shapes: Sequence) -> np.ndarray:
    """Shape of the trace-minimal outer bound of a Minkowski sum.

    Takes the shape matrices of the terms and returns
    ``(sum_k sqrt(tr S_k)) * (sum_k S_k / sqrt(tr S_k))`` over the terms
    with positive trace; zero-trace terms are points and add nothing. The
    center of the bound is the sum of the term centers, left to the
    caller. A single term is returned unchanged (symmetrized). Every term
    must be square, of one dimension, and symmetric and PSD within
    ``_scale_tol``; otherwise ``ValueError`` is raised.
    """
    if len(shapes) < 1:
        raise ValueError("a sum needs at least one term")
    first = _as_shape_matrix(shapes[0])
    terms = [first] + [_as_shape_matrix(s, dim=first.shape[0]) for s in shapes[1:]]
    for t in terms:
        _psd_eigmin(t)
    if len(terms) == 1:
        return first
    live = [t for t in terms if float(np.trace(t)) > EPS_TRACE]
    if not live:
        return np.zeros_like(first)
    roots = [np.sqrt(float(np.trace(m))) for m in live]
    shape = sum(roots) * sum(m / r for m, r in zip(live, roots))
    return symmetrize(shape)


def sample_boundary(e: Ellipsoid, count: int, seed: int) -> np.ndarray:
    """Deterministic points on the boundary of an ellipsoid.

    Uniform directions on the unit sphere are mapped through the Cholesky
    factor of the shape matrix, so the quadratic form of every sample is
    exactly one up to rounding. Returns an array of ``count`` rows.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if e.degenerate:
        raise DegenerateEllipsoidError("cannot sample the boundary of a flat ellipsoid")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((count, e.dim))
    norms = np.linalg.norm(u, axis=1)
    while np.any(norms < 1e-12):  # essentially unreachable, kept for safety
        bad = norms < 1e-12
        u[bad] = rng.standard_normal((int(bad.sum()), e.dim))
        norms = np.linalg.norm(u, axis=1)
    u /= norms[:, None]
    chol = np.linalg.cholesky(e.shape)
    return e.center + u @ chol.T
