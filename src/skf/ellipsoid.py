"""Ellipsoidal set calculus.

An ellipsoid is represented by its center c and a symmetric positive
semi-definite shape matrix S as {x : (x - c)^T S^{-1} (x - c) <= 1}.
This module provides affine images, membership tests, and the
trace-minimal ellipsoidal outer bound of a Minkowski sum of ellipsoids.
The sum bounds work on shape matrices alone: the center of a sum is the
sum of the centers, so callers that track centers add them directly.

``_check_psd`` applies the package's one matrix rule, to one matrix or to
a stack with one ``eigvalsh`` call; ``_scale_tol`` is its rounding bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

TOL_SYM = 1e-10  # asymmetry / PSD deficit tolerated at unit scale
EPS_PD = 1e-12  # smallest eigenvalue below which a shape counts as degenerate
EPS_TRACE = 1e-14  # trace below which a summand counts as a single point


class DegenerateEllipsoidError(ValueError):
    """Operation requires a strictly positive-definite shape matrix."""


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Average a matrix, or each matrix of a stack, with its transpose."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _scale_tol(m: np.ndarray) -> np.ndarray:
    """TOL_SYM at unit scale, proportionally looser for large matrices.

    Float products of symmetric factors carry asymmetry and negative
    spectrum ~ eps * |entries|; deviations beyond this bound are bugs.
    One tolerance per matrix of a stack; non-finite entries make it non-finite.
    """
    return TOL_SYM * np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))


def _failure(names, i, message: str) -> ValueError:
    if names is not None:
        message = f"{names.format(i) if isinstance(names, str) else names[i]}: {message}"
    return ValueError(message)


def _check_psd(mats, dim: int | None = None, names=None) -> tuple[np.ndarray, np.ndarray]:
    """The package's one matrix rule, on one matrix or a stack of one size.

    Each matrix must be square (a scalar counts as 1x1), of size ``dim`` if
    given, finite, and symmetric and PSD within ``_scale_tol``. Returns the
    input symmetrized and the smallest eigenvalue of each matrix, from one
    ``eigvalsh`` call. A ``ValueError`` names the failing matrix by ``names``:
    one name per matrix, or one string formatted with its index.
    """
    try:
        s = np.asarray(mats, dtype=float)
    except ValueError:  # a sequence of matrices of different sizes
        want = (dim, dim) if dim is not None else np.shape(mats[0])
        i = next((i for i, m in enumerate(mats) if np.shape(m) != want), None)
        if i is None:
            raise
        got, want = ("x".join(map(str, size)) for size in (np.shape(mats[i]), want))
        raise _failure(names, i, f"shape matrix is {got}, expected {want}") from None
    s = s.reshape(1, 1) if s.ndim == 0 else s
    n = s.shape[-1]
    if s.ndim not in (2, 3) or s.shape[-2] != n:
        raise _failure(names, 0, f"shape matrix must be square, got {s.shape}")
    if dim is not None and n != dim:
        raise _failure(names, 0, f"shape matrix is {n}x{n}, expected {dim}x{dim}")
    tol = _scale_tol(s)
    fit = np.isfinite(tol)  # checked first: inf - inf in the asymmetry would warn
    if not fit.all():
        raise _failure(names, np.argmin(fit), "matrix has non-finite entries")
    asym = np.abs(s - np.swapaxes(s, -1, -2)).max(axis=(-2, -1), initial=0.0)
    fit = asym <= tol
    if not fit.all():
        i = np.argmin(fit)
        raise _failure(names, i, f"matrix asymmetry {asym.flat[i]:.3e} exceeds {tol.flat[i]:.3e}")
    s = symmetrize(s)
    eigmin = np.linalg.eigvalsh(s)[..., 0] if n else np.zeros(s.shape[:-2])
    fit = eigmin >= -tol
    if not fit.all():
        i = np.argmin(fit)
        raise _failure(names, i, f"matrix is not PSD (min eigenvalue {eigmin.flat[i]:.3e})")
    return s, eigmin


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
        # checked as a stack of one, so that a stack given as the shape fails
        (shape,), (eigmin,) = _check_psd(np.atleast_2d(self.shape)[None], center.size)
        self.__dict__.update(center=center, shape=shape, _eigmin=float(eigmin))

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
    (s1, s2), _ = _check_psd(np.atleast_2d(s1, s2), names=("s1", "s2"))
    return (1.0 + 1.0 / beta) * s1 + (1.0 + beta) * s2


def trace_min_sum(shapes: Sequence) -> np.ndarray:
    """Shape of the trace-minimal outer bound of a Minkowski sum.

    Takes the shape matrices of the terms and returns
    ``(sum_k sqrt(tr S_k)) * (sum_k S_k / sqrt(tr S_k))`` over the terms
    with positive trace; zero-trace terms are points and add nothing. The
    center of the bound is the sum of the term centers, left to the
    caller. A single term is returned unchanged (symmetrized). Every term
    must pass ``_check_psd``; a ``ValueError`` names a failing one by index.
    """
    if len(shapes) < 1:
        raise ValueError("a sum needs at least one term")
    terms, _ = _check_psd(shapes, names="term {}")
    if terms.ndim == 2 or len(terms) == 1:  # one term, alone or in a stack of one
        return terms.reshape(terms.shape[-2:])
    live = [t for t in terms if float(np.trace(t)) > EPS_TRACE]
    if not live:
        return np.zeros_like(terms[0])
    roots = [np.sqrt(float(np.trace(m))) for m in live]
    # exactly symmetric: a weighted sum of the symmetrized terms
    return sum(roots) * sum(m / r for m, r in zip(live, roots))


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
