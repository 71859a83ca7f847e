"""Built-in invariant suite.

Self-contained numerical checks of the library's core guarantees, usable
from the command line (``skf validate``) and reused by the test suite.
Each check returns a result record; the suite passes only if every check
does. Checks deliberately recompute expectations through independent
arithmetic (a simulated truth, the EKF, finite differences) rather than
through the code paths they are judging. Recursion containment checks
the filter's own promise, a set that holds the truth at every step; the
property ``test_recursion_keeps_truth_inside_every_set`` shares its harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .experiments import example1_config, run_trial
from .filter import FilterConfig, StateBelief, skf_gain, skf_predict, skf_update
from .model import AnalyticJacobians, Linearization, NonlinearModel

# Rounding allowance on a containment form near 1: eps cond(S) from the solve
# plus eps |x| / sqrt(lambda_min(S)) from x - c, under 9e-16 over 108 000 forms
# of these systems. A bound that drops a live term misses by 1e-12 to 1e-8.
_CONTAINMENT_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_spd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def gain_cost(
    gain: np.ndarray,
    beta: float,
    eta: float,
    c_minus: np.ndarray,
    s_minus: np.ndarray,
    c_z: np.ndarray,
    s_z: np.ndarray,
    h_x: np.ndarray,
    h_v: np.ndarray,
    h_b: np.ndarray,
) -> float:
    """Update cost as an explicit function of an arbitrary gain matrix.

    Written out directly from the quoted trace expansion so it can serve
    as an oracle for the closed-form stationary gain.
    """
    n = c_minus.shape[0]
    ikh = np.eye(n) - gain @ h_x
    cov_term = np.trace(ikh @ c_minus @ ikh.T) + np.trace(
        gain @ h_v @ c_z @ h_v.T @ gain.T
    )
    m_term = np.trace(ikh @ s_minus @ ikh.T)
    n_term = np.trace(gain @ h_b @ s_z @ h_b.T @ gain.T)
    return float(
        (1.0 - eta) * cov_term
        + eta * (1.0 + 1.0 / beta) * m_term
        + eta * (1.0 + beta) * n_term
    )


def random_update_setup(rng: np.random.Generator, n: int | None = None, m: int | None = None):
    """A random prior belief plus measurement linearization, its noise as Cholesky factors."""
    n = n or int(rng.integers(1, 5))
    m = m or int(rng.integers(1, 5))
    belief = StateBelief(
        center=rng.standard_normal(n),
        cov=random_spd(rng, n),
        shape=random_spd(rng, n),
        kind="prior",
        step=0,
    )
    h_x = rng.standard_normal((m, n))
    h_v = rng.standard_normal((m, m)) + 2.0 * np.eye(m)
    h_b = rng.standard_normal((m, m)) + 2.0 * np.eye(m)
    c_z, s_z = random_spd(rng, m), random_spd(rng, m)
    lin = Linearization(
        h_x=h_x,
        h_v=h_v,
        h_b=h_b,
        meas_noise_factor=np.linalg.cholesky(c_z),
        meas_ubb_factor=np.linalg.cholesky(s_z),
    )
    return belief, lin


def random_partial_update_setup(rng: np.random.Generator):
    """A random configuration observing strictly fewer rows than states.

    With a full-rank square (or tall) observation the gain can annihilate
    the prior set entirely, pushing the pairing parameter into the
    asymptotic tails where the cost has no locatable minimizer; a partial
    observation keeps the optimum interior.
    """
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, n))
    return random_update_setup(rng, n=n, m=m)


def _boundary_point(rng: np.random.Generator, shape: np.ndarray) -> np.ndarray:
    """A point on the boundary of the origin-centered ellipsoid of ``shape``."""
    direction = rng.standard_normal(shape.shape[0])
    return np.linalg.cholesky(shape) @ (direction / np.linalg.norm(direction))


def _linear_system(rng: np.random.Generator, n: int, m: int):
    """A random linear system with zero Gaussian covariances, and its initial posterior.

    F has spectral radius at most 1; one or two bounded terms enter through
    F_a. H is m x n (wide, square or tall), H_b m x m.
    """
    f_x = rng.standard_normal((n, n))
    f_x *= rng.uniform(0.5, 1.0) / max(np.max(np.abs(np.linalg.eigvals(f_x))), 1e-12)
    ranks = rng.integers(1, n + 1, size=int(rng.integers(1, 3)))
    f_a = tuple(rng.standard_normal((n, int(r))) for r in ranks)
    h_x, h_b = rng.standard_normal((m, n)), rng.standard_normal((m, m)) + 2.0 * np.eye(m)

    def spd(k):
        return random_spd(rng, k, scale=10.0 ** rng.uniform(-2.0, 2.0))

    model = NonlinearModel(
        state_dim=n,
        input_dim=0,
        meas_dim=m,
        f=lambda x, u, w, a, k: f_x @ x + w + sum(fa @ ai for fa, ai in zip(f_a, a)),
        h=lambda x, v, b, k: h_x @ x + v + h_b @ b,
        process_noise_cov=np.zeros((n, n)),
        ubb_process_shapes=tuple(spd(int(r)) for r in ranks),
        meas_noise_cov=np.zeros((m, m)),
        ubb_meas_shape=spd(m),
        jacobians=AnalyticJacobians(
            f_x=f_x, f_w=np.eye(n), f_a=f_a, h_x=h_x, h_v=np.eye(m), h_b=h_b
        ),
    )
    belief = StateBelief(rng.standard_normal(n), random_spd(rng, n), spd(n), "posterior", 0)
    return model, belief


def _recursion_forms(model: NonlinearModel, belief: StateBelief, eta: float, steps: int, rng):
    """(x - c)^T S^-1 (x - c) of the truth against each prior and posterior of a run.

    The truth starts, and is disturbed, on the boundaries of the ellipsoids.
    A plain solve against S accepts the small shapes of a limit regime.
    """
    cfg, u, v = FilterConfig(eta=eta), np.zeros(0), np.zeros(model.meas_dim)

    def form(x, b):
        d = x - b.center
        return float(d @ np.linalg.solve(b.shape, d))

    x = belief.center + _boundary_point(rng, belief.shape)
    forms = np.empty((steps, 2))
    for k in range(1, steps + 1):
        prior = skf_predict(belief, model, u, k)
        a = [_boundary_point(rng, s) for s in model.ubb_process_shapes]
        x = model.f(x, u, np.zeros(x.size), a, k)
        y = model.h(x, v, _boundary_point(rng, model.ubb_meas_shape), k)
        belief, _ = skf_update(prior, y, model, cfg, k)
        forms[k - 1] = form(x, prior), form(x, belief)
    return forms


def check_recursion_containment(systems: int = 40, steps: int = 30, seed: int = 0) -> CheckResult:
    """The truth of random linear systems must stay inside every prior and posterior set."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(systems):
        n, m = (int(d) for d in rng.integers(1, 6, size=2))
        eta = 1.0 - float(rng.uniform())  # in (0, 1]
        forms = _recursion_forms(*_linear_system(rng, n, m), eta, steps, rng)
        worst = max(worst, float(forms.max()))
    return CheckResult(
        "recursion-containment",
        worst <= 1.0 + _CONTAINMENT_TOL,
        f"worst quadratic form 1 + {worst - 1.0:.1e} (limit 1 + {_CONTAINMENT_TOL:.0e})",
    )


def check_eta_zero_reduction(steps: int = 50, seed: int = 3) -> CheckResult:
    """With eta = 0 the filter must track the EKF to within 1e-9."""
    cfg = example1_config(trials=1, steps=steps, seed=seed, eta=0.0)
    trial = run_trial(cfg, trial=0)
    gap = max(
        float(np.max(np.abs(trial.skf_center - trial.ekf_state))),
        float(np.max(np.abs(trial.skf_cov - trial.ekf_cov))),
    )
    return CheckResult(
        "eta-zero-ekf-reduction", gap < 1e-9, f"max center/cov gap {gap:.3e}"
    )


def _central_gradient(cost, at: np.ndarray) -> np.ndarray:
    """Central differences of ``cost`` at the matrix ``at``, step 1e-6 max(1, |entry|)."""
    grad = np.zeros_like(at)
    for idx in np.ndindex(at.shape):
        h = 1e-6 * max(1.0, abs(at[idx]))
        kp, km = at.copy(), at.copy()
        kp[idx] += h
        km[idx] -= h
        grad[idx] = (cost(kp) - cost(km)) / (2.0 * h)
    return grad


def check_gain_stationarity(configs: int = 30, seed: int = 4) -> CheckResult:
    """Finite-difference gradient of the cost must vanish at the gain."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(configs):
        belief, lin = random_update_setup(rng)
        eta = float(rng.choice([0.25, 0.5, 0.75]))
        beta = float(np.exp(rng.uniform(-1.5, 1.5)))
        gain = skf_gain(belief, lin, FilterConfig(eta=eta), beta)

        noise = (f @ f.T for f in (lin.meas_noise_factor, lin.meas_ubb_factor))
        mats = (belief.cov, belief.shape, *noise)
        args = (beta, eta, *mats, lin.h_x, lin.h_v, lin.h_b)
        grad, grad_at_zero = (
            _central_gradient(lambda k_mat: gain_cost(k_mat, *args), at)
            for at in (gain, np.zeros_like(gain))
        )
        rel = float(np.linalg.norm(grad) / max(np.linalg.norm(grad_at_zero), 1e-300))
        worst = max(worst, rel)
    return CheckResult(
        "gain-stationarity", worst < 1e-6, f"worst relative gradient {worst:.3e}"
    )


def run_all() -> list[CheckResult]:
    """The full invariant suite."""
    return [
        check_recursion_containment(),
        check_eta_zero_reduction(),
        check_gain_stationarity(),
    ]
