"""Built-in invariant suite.

Self-contained numerical checks of the library's core guarantees, usable
from the command line (``skf validate``) and reused by the test suite.
Each check returns a result record; the suite passes only if every check
does. Checks deliberately recompute expectations through independent
arithmetic (sampling, closed forms, finite differences) rather than
through the code paths they are judging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ellipsoid
from .ellipsoid import Ellipsoid
from .experiments import example1_config, run_trial
from .filter import FilterConfig, StateBelief, skf_gain
from .model import Linearization


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
    """A random prior belief plus measurement linearization for gain checks."""
    n = n or int(rng.integers(1, 5))
    m = m or int(rng.integers(1, 5))
    belief = StateBelief(
        center=rng.standard_normal(n),
        cov=random_spd(rng, n),
        shape=random_spd(rng, n),
        kind="prior",
        step=0,
    )
    lin = Linearization(
        h_x=rng.standard_normal((m, n)),
        h_v=rng.standard_normal((m, m)) + 2.0 * np.eye(m),
        h_b=rng.standard_normal((m, m)) + 2.0 * np.eye(m),
        meas_noise_cov=random_spd(rng, m),
        meas_ubb_shape=random_spd(rng, m),
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


def check_sum_containment(
    families: int = 50, draws: int = 2000, seed: int = 0
) -> CheckResult:
    """Sampled member-sums of random ellipsoid families must lie in the bound."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for fam in range(families):
        n = int(rng.integers(1, 5))
        count = int(rng.integers(1, 5))
        terms = []
        for _ in range(count):
            terms.append(
                Ellipsoid(rng.standard_normal(n), random_spd(rng, n, scale=0.5))
            )
        bound_center = np.sum([t.center for t in terms], axis=0)
        bound_shape = ellipsoid.trace_min_sum([t.shape for t in terms])
        points = np.zeros((draws, n))
        for t in terms:
            radius = rng.uniform(size=draws) ** (1.0 / n)  # interior and boundary
            radius[: draws // 2] = 1.0
            direction = rng.standard_normal((draws, n))
            direction /= np.linalg.norm(direction, axis=1)[:, None]
            chol = np.linalg.cholesky(t.shape)
            points += t.center + (radius[:, None] * direction) @ chol.T
        d = points - bound_center
        q = np.einsum("ij,ij->i", d, np.linalg.solve(bound_shape, d.T).T)
        worst = max(worst, float(q.max()))
        if worst > 1.0 + 1e-9:
            return CheckResult(
                "minkowski-sum-containment",
                False,
                f"family {fam}: quadratic form {worst:.12f} > 1 + 1e-9",
            )
    return CheckResult(
        "minkowski-sum-containment", True, f"worst quadratic form {worst:.12f}"
    )


def check_pair_closed_form(cases: int = 50, seed: int = 1) -> CheckResult:
    """Two-term bound must equal its closed form at beta* = sqrt(tr1/tr2)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 5))
        s1 = random_spd(rng, n)
        s2 = random_spd(rng, n)
        beta = math.sqrt(np.trace(s1) / np.trace(s2))
        bound = ellipsoid.trace_min_sum([s1, s2])
        direct = ellipsoid.pair_sum_shape(s1, s2, beta)
        worst = max(worst, float(np.max(np.abs(bound - direct))))
    passed = worst <= 1e-10
    return CheckResult(
        "pair-bound-closed-form", passed, f"max elementwise gap {worst:.3e}"
    )


def check_eta_zero_reduction(steps: int = 50, seed: int = 3) -> CheckResult:
    """With eta = 0 the filter must track the EKF to within 1e-9."""
    cfg = example1_config(trials=1, steps=steps, seed=seed, eta=0.0)
    records = run_trial(cfg, trial=0)
    gap = max(
        max(
            float(np.max(np.abs(r.skf_center - r.ekf_state))),
            float(np.max(np.abs(r.skf_cov - r.ekf_cov))),
        )
        for r in records
    )
    return CheckResult(
        "eta-zero-ekf-reduction", gap < 1e-9, f"max center/cov gap {gap:.3e}"
    )


def check_gain_stationarity(configs: int = 30, seed: int = 4) -> CheckResult:
    """Finite-difference gradient of the cost must vanish at the gain."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(configs):
        belief, lin = random_update_setup(rng)
        eta = float(rng.choice([0.25, 0.5, 0.75]))
        beta = float(np.exp(rng.uniform(-1.5, 1.5)))
        gain = skf_gain(belief, lin, FilterConfig(eta=eta), beta)

        def cost(k_mat):
            return gain_cost(
                k_mat,
                beta,
                eta,
                belief.cov,
                belief.shape,
                lin.meas_noise_cov,
                lin.meas_ubb_shape,
                lin.h_x,
                lin.h_v,
                lin.h_b,
            )

        grad = np.zeros_like(gain)
        for idx in np.ndindex(gain.shape):
            h = 1e-6 * max(1.0, abs(gain[idx]))
            kp = gain.copy()
            km = gain.copy()
            kp[idx] += h
            km[idx] -= h
            grad[idx] = (cost(kp) - cost(km)) / (2.0 * h)
        zero = np.zeros_like(gain)
        grad_at_zero = np.zeros_like(gain)
        for idx in np.ndindex(gain.shape):
            h = 1e-6
            kp = zero.copy()
            km = zero.copy()
            kp[idx] += h
            km[idx] -= h
            grad_at_zero[idx] = (cost(kp) - cost(km)) / (2.0 * h)
        rel = float(np.linalg.norm(grad) / max(np.linalg.norm(grad_at_zero), 1e-300))
        worst = max(worst, rel)
    return CheckResult(
        "gain-stationarity", worst < 1e-6, f"worst relative gradient {worst:.3e}"
    )


def run_all() -> list[CheckResult]:
    """The full invariant suite."""
    return [
        check_sum_containment(),
        check_pair_closed_form(),
        check_eta_zero_reduction(),
        check_gain_stationarity(),
    ]
