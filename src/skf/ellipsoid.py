"""Ellipsoidal set calculus.

An ellipsoid is represented by its center c and a symmetric positive
semi-definite shape matrix S as {x : (x - c)^T S^{-1} (x - c) <= 1}.
This module provides affine images, membership tests, and the
trace-minimal ellipsoidal outer bound of a Minkowski sum of ellipsoids.
Membership has one form, ``membership_form``, on any square factor L of S.
The sum bounds work on shape matrices alone: the center of a sum is the
sum of the centers, so callers that track centers add them directly.

``_check_psd`` applies the package's one matrix rule, to one matrix or to
a stack with one ``eigh`` call that also gives each matrix's factor;
``_scale_tol`` is its rounding bound. ``_qr_factor`` and ``trace_min_sum``
compute factors from factors, PSD by construction, with one QR each.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

TOL_SYM = 1e-10  # asymmetry / PSD deficit tolerated at unit scale
EPS_PD = 1e-12  # smallest eigenvalue below which a shape counts as degenerate
EPS_TRACE = 1e-14  # trace at or below which an input set counts as a single point


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


def _check_psd(mats, dim: int | None = None, names=None):
    """The package's one matrix rule, on one matrix or a stack of one size.

    Each matrix must be square (a scalar counts as 1x1), of size ``dim`` if
    given, finite, and symmetric and PSD within ``_scale_tol``. Returns the
    input symmetrized, the smallest eigenvalue of each matrix and a factor
    V sqrt(max(lambda, 0)) of each, all from one ``eigh`` call. A
    ``ValueError`` names the failing matrix by ``names``: one name per
    matrix, or one string formatted with its index.
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
    eigvals, eigvecs = np.linalg.eigh(s)
    eigmin = eigvals[..., 0] if n else np.zeros(s.shape[:-2])
    fit = eigmin >= -tol
    if not fit.all():
        i = np.argmin(fit)
        raise _failure(names, i, f"matrix is not PSD (min eigenvalue {eigmin.flat[i]:.3e})")
    return s, eigmin, eigvecs * np.sqrt(np.maximum(eigvals, 0.0))[..., None, :]


@functools.cache
def _lower_mask(n: int, cols: int) -> np.ndarray:
    """Read-only mask of the lower triangle of an n x cols matrix, kept per size."""
    mask = np.tri(n, cols, dtype=bool)
    mask.flags.writeable = False
    return mask


def _qr_factor(*blocks: np.ndarray) -> np.ndarray:
    """The n x n lower-triangular L with L L^T = sum_k B_k B_k^T, for blocks of n rows.

    One QR, [B_1 ... B_K]^T = Q R, gives L = R^T, padded with zero columns
    when the blocks have fewer than n columns in all. Mode "raw" returns
    LAPACK's output transposed, with R^T in the lower triangle of its first
    columns; taking it with a kept mask costs less than mode "r"'s ``triu``.
    """
    stacked = np.concatenate(blocks, axis=1)
    n, width = stacked.shape
    if n == 1:  # L is the row's norm; np.linalg.qr's call overhead dominates 1 x 1 steps
        return np.linalg.norm(stacked, keepdims=True)
    raw, _ = np.linalg.qr(stacked.T, mode="raw")
    cols = min(n, width)
    factor = np.where(_lower_mask(n, cols), raw[:, :cols], 0.0)
    if width < n:
        factor = np.concatenate((factor, np.zeros((n, n - width))), axis=1)
    return factor


@dataclass(frozen=True)
class Ellipsoid:
    """Ellipsoid {x : (x - center)^T shape^{-1} (x - center) <= 1}.

    The shape matrix must be symmetric within ``TOL_SYM`` and positive
    semi-definite. Shapes whose smallest eigenvalue falls below ``EPS_PD``
    are flagged degenerate: they remain valid operands of sums and affine
    maps but reject membership queries. ``factor`` is the factor
    V sqrt(Lambda) of the shape that the matrix rule returns.
    """

    center: np.ndarray
    shape: np.ndarray
    factor: np.ndarray = field(init=False, repr=False, compare=False)
    _eigmin: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if center.ndim != 1 or not np.all(np.isfinite(center)):
            raise ValueError("center must be a vector of finite entries")
        # checked as a stack of one, so that a stack given as the shape fails
        (shape,), (eigmin,), (factor,) = _check_psd(np.atleast_2d(self.shape)[None], center.size)
        self.__dict__.update(center=center, shape=shape, factor=factor, _eigmin=float(eigmin))

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


def membership_form(center, factor, x) -> float:
    """The quadratic form ||L^-1 (x - c)||^2 of a point x against {c + L u : ||u|| <= 1}.

    For a square factor L of S = L L^T it is (x - c)^T S^-1 (x - c), whichever
    factor L is (triangular, or V sqrt(Lambda) of an eigendecomposition); its
    rounding grows with cond(L) = cond(S)^(1/2). +inf where the solve fails:
    L is singular, or the result is not finite. A factor that is not square,
    or a center or point of another size, raises ``ValueError``.
    """
    factor = np.atleast_2d(np.asarray(factor, dtype=float))
    n = factor.shape[0]
    if factor.shape != (n, n):
        raise ValueError(f"factor must be square, got {factor.shape}")
    center, x = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (center, x))
    if center.shape != (n,) or x.shape != (n,):
        raise ValueError(f"center has shape {center.shape} and point {x.shape}, expected ({n},)")
    try:
        z = np.linalg.solve(factor, x - center)
    except np.linalg.LinAlgError:
        return math.inf
    form = float(z @ z)
    return form if math.isfinite(form) else math.inf


def contains(e: Ellipsoid, x, slack: float = 0.0) -> bool:
    """Membership test (x - c)^T S^{-1} (x - c) <= 1 + slack.

    ``membership_form`` on the ellipsoid's kept factor, never through an
    explicit inverse. Degenerate ellipsoids are rejected: the quadratic form
    is unbounded on flat directions. A slack that is negative or not finite,
    and a point with a non-finite entry, raise ``ValueError``.
    """
    if not 0.0 <= slack < math.inf:
        raise ValueError(f"slack must be a nonnegative finite number, got {slack}")
    if e.degenerate:
        raise DegenerateEllipsoidError(
            "membership is undefined for a degenerate (flat) ellipsoid"
        )
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != e.dim:
        raise ValueError(f"point has dimension {x.size}, expected {e.dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"point has non-finite entries: {x}")
    return membership_form(e.center, e.factor, x) <= 1.0 + slack


def pair_sum_shape(s1, s2, beta: float) -> np.ndarray:
    """Shape of the two-term outer bound, (1 + 1/beta) S1 + (1 + beta) S2.

    For beta = sqrt(tr S1 / tr S2) the trace of the result equals
    (sqrt(tr S1) + sqrt(tr S2))^2, the minimum over beta > 0.
    """
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be a positive finite number, got {beta}")
    (s1, s2), _, _ = _check_psd(np.atleast_2d(s1, s2), names=("s1", "s2"))
    return (1.0 + 1.0 / beta) * s1 + (1.0 + beta) * s2


def trace_min_sum(factors: Sequence) -> np.ndarray:
    """Factor of the trace-minimal outer bound of a Minkowski sum.

    Takes a factor L_k (n rows) of each term's shape S_k = L_k L_k^T and
    returns an n x n factor of ``(sum_k r_k) * (sum_k S_k / r_k)``, with
    r_k = sqrt(tr S_k) = |L_k|_F: one QR of the terms weighted by
    sqrt(sum_j r_j) / sqrt(r_k), two roots so that a tiny r_k cannot
    overflow the quotient. A term whose factor is exactly zero is a point
    and adds nothing; any other term, however small, is kept, so the result
    bounds the sum. The center, the sum of the term centers, is left to the
    caller. A ``ValueError`` names, by index, a term that is not finite or
    has another row count than the first.
    """
    if len(factors) < 1:
        raise ValueError("a sum needs at least one term")
    terms = [np.atleast_2d(np.asarray(f, dtype=float)) for f in factors]
    n = terms[0].shape[0]
    roots = []
    for i, term in enumerate(terms):
        if term.ndim != 2 or term.shape[0] != n:
            raise _failure("term {}", i, f"factor has shape {term.shape}, expected {n} rows")
        roots.append(float(np.linalg.norm(term)))
        if not math.isfinite(roots[-1]):  # a NaN or inf entry, or a trace beyond float range
            raise _failure("term {}", i, "factor has non-finite entries")
    live = [(term, r) for term, r in zip(terms, roots) if r > 0.0]
    if not live:
        return np.zeros((n, n))
    root_total = math.sqrt(sum(r for _, r in live))
    return _qr_factor(*(term * (root_total / math.sqrt(r)) for term, r in live))


def sample_boundary(e: Ellipsoid, count: int, seed: int) -> np.ndarray:
    """Deterministic points on the boundary of an ellipsoid.

    Uniform directions on the unit sphere are mapped through the
    ellipsoid's kept factor V sqrt(Lambda), so the quadratic form of every
    sample is exactly one up to rounding. Returns an array of ``count`` rows.
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
    return e.center + u @ e.factor.T
