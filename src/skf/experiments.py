"""Benchmark experiments and Monte Carlo aggregation.

Two scenarios are built in:

* ``example1`` - the scalar highly nonlinear estimation benchmark
  (quadratic measurement, oscillating drift input) with one bounded
  process disturbance and one bounded measurement disturbance.
* ``example2`` - a planar constant-velocity vehicle observed by two
  fixed stations, each measuring range and bearing. The vehicle follows
  a curved path that crosses the line connecting the stations mid-run,
  where the bearing geometry degenerates and the posterior bound blows
  up perpendicular to that line.

Each trial runs the set-membership filter and the EKF baseline on
identical noise realizations; ``run_trial`` returns both tracks, the truth
and the measurements as one ``Trial`` of per-step arrays.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial
from numbers import Integral, Real

import numpy as np

from .ellipsoid import EPS_TRACE, _check_psd
from .filter import FilterConfig, StateBelief, ekf_step, skf_predict, skf_update
from .model import AnalyticJacobians, NonlinearModel

DEFAULT_SEED = 11
CROSSING_WINDOW = 15  # steps on each side of the detected line crossing

# example2 nominal motion profile: ramp up from rest, cruise, and one
# constant-rate turn onto a northbound leg that crosses the station line
# around step 207 of 300. Velocity kicks stay well inside the bounded
# process ellipsoid; random bounded draws use the remaining margin.
_EX2_SPEED = 7.0
_EX2_RAMP_STEPS = 60
_EX2_STRAIGHT_STEPS = 13
_EX2_TURN_STEPS = 72
_EX2_HEADING0 = math.radians(30.0)
_EX2_HEADING1 = math.radians(90.0)
# Fraction of each bounded-process semi-axis used by the random draw.
# Per-step velocity draws integrate into a velocity random walk; keeping
# them small preserves the designed path while the declared bound still
# covers kick + draw with a wide margin.
_EX2_UBB_DRAW_FRACTION = 0.15
_EYE1 = np.eye(1)
_EYE4 = np.eye(4)


class ExperimentError(RuntimeError):
    """A trial failed; the message carries trial and step context."""


def _equal(a, b) -> bool:
    """Equality of config values: arrays by shape and entries, tuples item by item."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved settings of one experiment run, and ``model``, built once from them."""

    which: str
    steps: int
    trials: int
    seed: int
    eta: float
    x0: np.ndarray
    cov0: np.ndarray
    shape0: np.ndarray
    process_cov: np.ndarray
    ubb_process_shapes: tuple[np.ndarray, ...]
    meas_cov: np.ndarray
    ubb_meas_shape: np.ndarray
    stations: tuple[tuple[float, float], tuple[float, float]] | None = None
    dt: float = 0.1

    def __post_init__(self):
        """The one check of every setting; each message names its field."""
        if self.which not in ("example1", "example2"):
            raise ValueError(f"which must be 'example1' or 'example2', got {self.which!r}")
        for name, low in (("steps", 1), ("trials", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
                raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "eta", FilterConfig(eta=self.eta).eta)
        dt = self.dt
        if isinstance(dt, bool) or not isinstance(dt, Real) or not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be a positive finite real number, got {dt!r}")
        object.__setattr__(self, "dt", float(dt))
        matrices = ("x0", "cov0", "shape0", "process_cov", "meas_cov", "ubb_meas_shape")
        for name in matrices + ("ubb_process_shapes", "stations"):
            value = getattr(self, name)
            try:
                if name in matrices:
                    value = np.asarray(value, dtype=float)
                elif name == "ubb_process_shapes":
                    value = tuple(np.asarray(s, dtype=float) for s in value)
                elif value is not None:
                    value = tuple((float(x), float(y)) for x, y in value)
            except (TypeError, ValueError) as err:
                raise ValueError(f"{name}: {err}") from None
            if name in ("x0", "stations") and value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} has non-finite entries")
            object.__setattr__(self, name, value)
        if self.which == "example2" and self.stations is None:
            raise ValueError("which 'example2' requires stations")
        if self.stations is not None and (len(self.stations) != 2 or len(set(self.stations)) < 2):
            raise ValueError(f"stations must be two distinct points, got {self.stations}")
        named = [(n, getattr(self, n)) for n in ("process_cov", "meas_cov", "ubb_meas_shape")]
        named += [(f"ubb_process_shapes[{i}]", s) for i, s in enumerate(self.ubb_process_shapes)]
        for name, mat in named:  # as a stack of one, so that a stack given here fails
            _check_psd(np.atleast_2d(mat)[None], names=name)
        model = build_model(self)
        if self.x0.shape != (model.state_dim,):
            raise ValueError(f"x0 must be a {model.state_dim}-vector, got shape {self.x0.shape}")
        for name, mat in named:
            dim = model.meas_dim if "meas" in name else model.state_dim
            if len(np.atleast_2d(mat)) != dim:
                raise ValueError(f"{name} must be {dim}x{dim} ({self.which}), got {np.shape(mat)}")
        initial = np.atleast_2d(self.cov0, self.shape0)
        _, eigmin, _ = _check_psd(initial, self.x0.size, ("cov0", "shape0"))
        if eigmin[0] <= 0.0:
            raise ValueError("cov0 must be strictly positive-definite")
        object.__setattr__(self, "model", model)

    def __eq__(self, other):
        """Field by field, arrays by value; the derived ``model`` is not compared."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            _equal(getattr(self, f.name), getattr(other, f.name)) for f in dataclasses.fields(self)
        )

    @property
    def position_dims(self) -> tuple[int, ...]:
        """State components entering the reported distance to the truth."""
        return (0, 1) if self.which == "example2" else tuple(range(self.x0.size))


@dataclass(frozen=True)
class Trial:
    """One trial as per-step arrays: truth, measurement, both tracks.

    Row i of every field is step i + 1. ``true_state``, ``skf_center`` and
    ``ekf_state`` are ``(steps, n)``; ``measurement`` is ``(steps, m)``;
    ``skf_cov``, ``skf_shape`` and ``ekf_cov`` are ``(steps, n, n)``;
    ``beta_star``, ``skf_dist`` and ``ekf_dist`` are ``(steps,)``.
    """

    true_state: np.ndarray
    measurement: np.ndarray
    skf_center: np.ndarray
    skf_cov: np.ndarray
    skf_shape: np.ndarray
    ekf_state: np.ndarray
    ekf_cov: np.ndarray
    beta_star: np.ndarray
    skf_dist: np.ndarray
    ekf_dist: np.ndarray


def example1_config(
    trials: int = 100, steps: int = 50, seed: int = DEFAULT_SEED, eta: float = 0.5
) -> ExperimentConfig:
    """Scalar benchmark constants."""
    return ExperimentConfig(
        which="example1",
        steps=steps,
        trials=trials,
        seed=seed,
        eta=eta,
        x0=np.array([0.1]),
        cov0=np.array([[2.0]]),
        shape0=np.array([[1e-3]]),
        process_cov=np.array([[1.0]]),
        ubb_process_shapes=(np.array([[9.0]]),),
        meas_cov=np.array([[1.0]]),
        ubb_meas_shape=np.array([[4.0]]),
    )


def example2_config(
    trials: int = 100, steps: int = 300, seed: int = DEFAULT_SEED, eta: float = 0.5
) -> ExperimentConfig:
    """Planar two-station range-bearing tracking constants."""
    c_u = np.array(
        [
            [0.0033, 0.0, 0.005, 0.0],
            [0.0, 0.0033, 0.0, 0.005],
            [0.005, 0.0, 0.01, 0.0],
            [0.0, 0.005, 0.0, 0.01],
        ]
    )
    deg = math.pi / 180.0
    return ExperimentConfig(
        which="example2",
        steps=steps,
        trials=trials,
        seed=seed,
        eta=eta,
        x0=np.zeros(4),
        cov0=0.01 * np.eye(4),
        shape0=1e-6 * np.eye(4),
        process_cov=c_u,
        ubb_process_shapes=(np.diag([1.0, 1.0, 0.25, 0.25]),),
        meas_cov=np.diag([0.005**2] * 4),
        ubb_meas_shape=np.diag([0.01**2, 0.01**2, deg**2, deg**2]),
        stations=((-50.0, 100.0), (150.0, 100.0)),
        dt=0.1,
    )


def input_vector(cfg: ExperimentConfig, k: int) -> np.ndarray:
    """Known input of the transition producing the step-k state."""
    if cfg.which == "example1":
        return np.array([8.0 * math.cos(1.2 * (k - 1))])
    return np.zeros(0)


def _ex1_f(x, u, w, a, k):
    xv = x[0]
    drift = 0.5 * xv + 25.0 * xv / (1.0 + xv * xv) + u[0] + w[0]
    if a:
        drift += a[0][0]
    return np.array([drift])


def _ex1_h(x, v, b, k):
    return np.array([x[0] * x[0] / 20.0 + v[0] + b[0]])


def _ex1_f_x(x, u, k):
    return np.array([[0.5 + 25.0 * (1.0 - x[0] * x[0]) / (1.0 + x[0] * x[0]) ** 2]])


def _ex1_h_x(x, k):
    return np.array([[x[0] / 10.0]])


def transition_matrix(dt: float) -> np.ndarray:
    return np.array(
        [
            [1.0, 0.0, dt, 0.0],
            [0.0, 1.0, 0.0, dt],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def _ex2_f(f_mat, x, u, w, a, k):
    out = f_mat @ x + w
    if a:
        out = out + a[0]
    return out


def _ex2_h(stations, x, v, b, k):
    (s11, s12), (s21, s22) = stations
    d1 = math.hypot(x[0] - s11, x[1] - s12)
    d2 = math.hypot(x[0] - s21, x[1] - s22)
    th1 = math.atan2(x[1] - s12, x[0] - s11)
    th2 = math.atan2(x[1] - s22, x[0] - s21)
    return np.array([d1, d2, th1, th2]) + v + b


def _ex2_h_x(stations, x, k):
    range_rows = []
    bearing_rows = []
    for sx, sy in stations:
        dx, dy = x[0] - sx, x[1] - sy
        r2 = dx * dx + dy * dy
        r = math.sqrt(r2)
        range_rows.append([dx / r, dy / r, 0.0, 0.0])
        bearing_rows.append([-dy / r2, dx / r2, 0.0, 0.0])
    return np.array(range_rows + bearing_rows)


def build_model(cfg: ExperimentConfig) -> NonlinearModel:
    """The system model of a configuration; it holds no closure, so it pickles."""
    if cfg.which == "example1":
        return NonlinearModel(
            state_dim=1,
            input_dim=1,
            meas_dim=1,
            f=_ex1_f,
            h=_ex1_h,
            process_noise_cov=cfg.process_cov,
            ubb_process_shapes=cfg.ubb_process_shapes,
            meas_noise_cov=cfg.meas_cov,
            ubb_meas_shape=cfg.ubb_meas_shape,
            jacobians=AnalyticJacobians(
                f_x=_ex1_f_x, f_w=_EYE1, f_a=(_EYE1,), h_x=_ex1_h_x, h_v=_EYE1, h_b=_EYE1
            ),
        )
    f_mat = transition_matrix(cfg.dt)
    return NonlinearModel(
        state_dim=4,
        input_dim=0,
        meas_dim=4,
        f=partial(_ex2_f, f_mat),
        h=partial(_ex2_h, cfg.stations),
        process_noise_cov=cfg.process_cov,
        ubb_process_shapes=cfg.ubb_process_shapes,
        meas_noise_cov=cfg.meas_cov,
        ubb_meas_shape=cfg.ubb_meas_shape,
        jacobians=AnalyticJacobians(
            f_x=f_mat,
            f_w=_EYE4,
            f_a=(_EYE4,),
            h_x=partial(_ex2_h_x, cfg.stations),
            h_v=_EYE4,
            h_b=_EYE4,
        ),
        angular_mask=np.array([False, False, True, True]),
    )


def _uniform_sampler(factor: np.ndarray):
    """``rng -> x``, uniform on the solid ellipsoid {x : x^T S^{-1} x <= 1} of S = L L^T.

    Takes the factor L. A shape whose trace, the squared norm of L, is at
    most ``EPS_TRACE`` is a point: its draw is zero and consumes no random
    numbers.
    """
    n = factor.shape[0]
    if float(np.sum(factor * factor)) <= EPS_TRACE:
        return lambda rng: np.zeros(n)

    def draw(rng: np.random.Generator) -> np.ndarray:
        direction = rng.standard_normal(n)
        norm = np.linalg.norm(direction)
        while norm < 1e-12:
            direction = rng.standard_normal(n)
            norm = np.linalg.norm(direction)
        radius = rng.uniform() ** (1.0 / n)
        return factor @ (radius * direction / norm)

    return draw


def uniform_in_ellipsoid(rng: np.random.Generator, shape: np.ndarray) -> np.ndarray:
    """Uniform draw from the solid ellipsoid {x : x^T S^{-1} x <= 1}; S follows the matrix rule."""
    (_,), _, (factor,) = _check_psd(np.atleast_2d(shape)[None], names="shape")
    return _uniform_sampler(factor)(rng)


def _gaussian_sampler(factor: np.ndarray):
    """``rng -> x`` with x ~ N(0, L L^T), for the covariance factor L."""
    return lambda rng: factor @ rng.standard_normal(factor.shape[0])


def ex2_nominal_kicks(steps: int, dt: float) -> np.ndarray:
    """Per-step velocity increments realizing the nominal curved path."""
    kicks = np.zeros((steps, 2))
    v = np.zeros(2)
    turn_start = _EX2_RAMP_STEPS + _EX2_STRAIGHT_STEPS
    for k in range(1, steps + 1):
        if k <= _EX2_RAMP_STEPS:
            speed = _EX2_SPEED * k / _EX2_RAMP_STEPS
            ang = _EX2_HEADING0
        elif k <= turn_start:
            speed = _EX2_SPEED
            ang = _EX2_HEADING0
        elif k <= turn_start + _EX2_TURN_STEPS:
            speed = _EX2_SPEED
            frac = (k - turn_start) / _EX2_TURN_STEPS
            ang = _EX2_HEADING0 + (_EX2_HEADING1 - _EX2_HEADING0) * frac
        else:
            speed = _EX2_SPEED
            ang = _EX2_HEADING1
        v_new = speed * np.array([math.cos(ang), math.sin(ang)])
        kicks[k - 1] = v_new - v
        v = v_new
    return kicks


def simulate_truth(cfg: ExperimentConfig, rng: np.random.Generator):
    """Generate a truth trajectory and its measurements.

    Gaussian terms are drawn from their covariances; bounded terms are
    drawn uniformly from their ellipsoids. For example2 the bounded
    process slot additionally carries the deterministic velocity kicks of
    the curved path, and the random part is drawn from a margin-scaled
    ellipsoid so the combined disturbance stays inside the declared
    bound. Returns ``(states, measurements)`` with ``states[0]`` the
    initial state and one measurement row per step.

    Draw order per step is fixed (w, bounded process, v, bounded
    measurement) so identical seeds give identical realizations. The maps,
    and the factors of the covariances and shapes, are ``cfg.model``'s.
    """
    model = cfg.model
    n = model.state_dim
    states = np.zeros((cfg.steps + 1, n))
    states[0] = cfg.x0
    measurements = np.zeros((cfg.steps, model.meas_dim))

    factor = {name: pair[1] for name, pair in model._psd.items()}  # all constants here
    draw_factors = [factor[f"ubb_process_shapes[{i}]"] for i in range(len(cfg.ubb_process_shapes))]
    kicks = None
    if cfg.which == "example2":
        kicks = ex2_nominal_kicks(cfg.steps, cfg.dt)
        draw_factors = [_EX2_UBB_DRAW_FRACTION * f for f in draw_factors]
    draw_w = _gaussian_sampler(factor["process_noise_cov"])
    draw_a = [_uniform_sampler(f) for f in draw_factors]
    draw_v = _gaussian_sampler(factor["meas_noise_cov"])
    draw_b = _uniform_sampler(factor["ubb_meas_shape"])

    x = np.array(cfg.x0, dtype=float)
    for k in range(1, cfg.steps + 1):
        u = input_vector(cfg, k)
        w = draw_w(rng)
        a = [draw(rng) for draw in draw_a]
        if kicks is not None and a:
            a[0] = a[0] + np.concatenate([np.zeros(2), kicks[k - 1]])
        x = np.asarray(model.f(x, u, w, a, k), dtype=float)
        if not np.all(np.isfinite(x)):
            raise ExperimentError(f"truth overflowed at step {k}: {x}")
        v = draw_v(rng)
        b = draw_b(rng)
        measurements[k - 1] = np.asarray(model.h(x, v, b, k), dtype=float)
        states[k] = x
    return states, measurements


def run_trial(cfg: ExperimentConfig, trial: int = 0) -> Trial:
    """Run both filters over one seeded realization.

    Randomness comes from the substream (cfg.seed, trial), so trials are
    independent and reproducible in any execution order.
    """
    rng = np.random.default_rng([cfg.seed, trial])
    states, measurements = simulate_truth(cfg, rng)

    fcfg = FilterConfig(eta=cfg.eta)
    belief = StateBelief(cfg.x0, cfg.cov0, cfg.shape0, "posterior", 0)
    # the EKF starts from the SKF's factor, so that at eta = 0 the tracks agree bit for bit
    ekf_x, ekf_factor = belief.center, belief.cov_factor
    dims = list(cfg.position_dims)

    rows = []
    for k in range(1, cfg.steps + 1):
        u = input_vector(cfg, k)
        y = measurements[k - 1]
        try:
            prior = skf_predict(belief, cfg.model, u, k)
            belief, report = skf_update(prior, y, cfg.model, fcfg, k)
            ekf_x, ekf_factor = ekf_step(ekf_x, ekf_factor, u, y, cfg.model, k)
        except Exception as err:
            raise ExperimentError(f"trial {trial} failed at step {k}: {err}") from err
        truth = states[k]
        ekf_p = ekf_factor @ ekf_factor.T
        tracks = (belief.center, belief.cov, belief.shape, ekf_x, ekf_p, report.beta_star)
        dists = (float(np.linalg.norm(x[dims] - truth[dims])) for x in (belief.center, ekf_x))
        rows.append((*tracks, *dists))
    # each step's values are stacked once, in the field order of Trial
    return Trial(states[1:], measurements, *map(np.array, zip(*rows)))


def run_trials(cfg: ExperimentConfig, workers: int = 1) -> list[Trial]:
    """Run every trial of a configuration, optionally across processes."""
    indices = range(cfg.trials)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, cfg.trials)) as pool:
            return list(pool.map(run_trial, [cfg] * cfg.trials, indices))
    return [run_trial(cfg, t) for t in indices]


def largest_semi_axes(shapes: np.ndarray) -> np.ndarray:
    """Largest semi-axis of each stacked ellipsoid, sqrt of its top eigenvalue."""
    return np.sqrt(np.maximum(np.linalg.eigvalsh(shapes)[..., -1], 0.0))


def _station_line_frame(stations):
    s1 = np.asarray(stations[0], dtype=float)
    s2 = np.asarray(stations[1], dtype=float)
    along = s2 - s1
    along = along / np.linalg.norm(along)
    normal = np.array([-along[1], along[0]])
    return s1, along, normal


def detect_crossing(trial: Trial, stations) -> int | None:
    """First step whose true position crosses the station line."""
    s1, _, normal = _station_line_frame(stations)
    offsets = [float((x[:2] - s1) @ normal) for x in trial.true_state]
    for i in range(1, len(offsets)):
        if offsets[i - 1] == 0.0 or (offsets[i - 1] < 0.0) != (offsets[i] < 0.0):
            return i + 1
    return None


def _crossing_stats(
    trial: Trial, stations, meas_ubb_shape: np.ndarray | None = None
) -> dict | None:
    cross = detect_crossing(trial, stations)
    if cross is None:
        return None
    _, _, normal = _station_line_frame(stations)
    position_axes = largest_semi_axes(trial.skf_shape[:, :2, :2])
    lo = max(0, cross - 1 - CROSSING_WINDOW)
    hi = min(len(position_axes), cross + CROSSING_WINDOW)
    peak_idx = lo + int(np.argmax(position_axes[lo:hi]))
    peak = float(position_axes[peak_idx])
    median = float(np.median(position_axes))
    principal = np.linalg.eigh(trial.skf_shape[peak_idx, :2, :2])[1][:, -1]
    cosang = abs(float(principal @ normal))
    angle = math.degrees(math.acos(min(cosang, 1.0)))
    stats = {
        "crossing_step": cross,
        "window": [lo + 1, hi],
        "max_semi_axis_in_window": peak,
        "median_semi_axis": median,
        "ratio": peak / median if median > 0 else None,  # a point set has no ratio
        "principal_angle_from_normal_deg": angle,
    }
    if meas_ubb_shape is not None and meas_ubb_shape.shape[0] >= 3:
        # bearing bound (rad) maps into position cross-line at the station
        # range; compare against the along-line range bound
        pos = trial.true_state[cross - 1, :2]
        rng_to_stations = min(
            float(np.linalg.norm(pos - np.asarray(s, dtype=float))) for s in stations
        )
        bearing_bound = math.sqrt(float(meas_ubb_shape[2, 2]))
        range_bound = math.sqrt(float(meas_ubb_shape[0, 0]))
        cross_line = rng_to_stations * bearing_bound
        stats["angle_uncertainty_dominance"] = {
            "station_range_m": rng_to_stations,
            "cross_line_bound_m": cross_line,
            "along_line_bound_m": range_bound,
            "dominates": cross_line > range_bound,
        }
    return stats


def aggregate(trials: list[Trial], cfg: ExperimentConfig | None = None) -> dict:
    """Summarize a batch of trials into a JSON-ready dictionary.

    Reports per-trial distance norms, their means and medians, the
    fraction of trials where the set-membership track beats the EKF,
    beta statistics, per-step error and semi-axis series, and (for
    example2, when the configuration is supplied) the station-line
    crossing diagnostics.
    """
    if not trials:
        raise ValueError("aggregate needs at least one trial")
    skf_d = np.stack([t.skf_dist for t in trials])
    ekf_d = np.stack([t.ekf_dist for t in trials])
    skf_l2 = np.linalg.norm(skf_d, axis=1)
    ekf_l2 = np.linalg.norm(ekf_d, axis=1)
    betas = np.concatenate([t.beta_star for t in trials])
    axes = np.stack([largest_semi_axes(t.skf_shape) for t in trials])

    summary = {
        "trials": len(trials),
        "steps": skf_d.shape[1],
        "skf_l2": skf_l2.tolist(),
        "ekf_l2": ekf_l2.tolist(),
        "skf_l2_mean": float(skf_l2.mean()),
        "ekf_l2_mean": float(ekf_l2.mean()),
        "skf_l2_median": float(np.median(skf_l2)),
        "ekf_l2_median": float(np.median(ekf_l2)),
        "win_rate": float(np.mean(skf_l2 < ekf_l2)),
        "beta_star": {
            "mean": float(betas.mean()),
            "min": float(betas.min()),
            "max": float(betas.max()),
        },
        "per_step": {
            "skf_dist_mean": skf_d.mean(axis=0).tolist(),
            "ekf_dist_mean": ekf_d.mean(axis=0).tolist(),
            "skf_dist_max": skf_d.max(axis=0).tolist(),
        },
        "semi_axis": {
            "per_step_max": axes.max(axis=0).tolist(),
            "per_step_median": np.median(axes, axis=0).tolist(),
            "run_max": float(axes.max()),
            "run_median": float(np.median(axes)),
        },
    }

    if cfg is not None and cfg.eta == 0.0:
        gaps = [np.max(np.abs(t.skf_center - t.ekf_state)) for t in trials]
        summary["eta_zero_max_gap"] = float(max(gaps))

    if cfg is not None and cfg.which == "example2" and cfg.stations is not None:
        per_trial = [
            _crossing_stats(t, cfg.stations, cfg.ubb_meas_shape) for t in trials
        ]
        found = [c for c in per_trial if c is not None]
        if found:
            ratios = [c["ratio"] for c in found if c["ratio"] is not None]
            angles = [c["principal_angle_from_normal_deg"] for c in found]
            dominance = [c["angle_uncertainty_dominance"] for c in found]
            summary["crossing"] = {
                "trials_with_crossing": len(found),
                "crossing_step_median": float(np.median([c["crossing_step"] for c in found])),
                "ratio_median": float(np.median(ratios)) if ratios else None,
                "ratio_min": float(np.min(ratios)) if ratios else None,
                "angle_deg_median": float(np.median(angles)),
                "angle_deg_max": float(np.max(angles)),
                "angle_uncertainty_dominance": {
                    "station_range_m_median": float(
                        np.median([d["station_range_m"] for d in dominance])
                    ),
                    "cross_line_bound_m_median": float(
                        np.median([d["cross_line_bound_m"] for d in dominance])
                    ),
                    "along_line_bound_m": dominance[0]["along_line_bound_m"],
                    "dominates_in_all_trials": bool(
                        all(d["dominates"] for d in dominance)
                    ),
                },
            }
    return summary


def scaled_config(cfg: ExperimentConfig, scale: float) -> ExperimentConfig:
    """Scale every bounded-uncertainty semi-axis by ``scale``.

    Shape matrices scale quadratically: semi-axes are square roots of
    eigenvalues.
    """
    if not 0.0 <= scale < math.inf:
        raise ValueError(f"scale must be finite and non-negative, got {scale!r}")
    return dataclasses.replace(
        cfg,
        ubb_process_shapes=tuple(scale**2 * s for s in cfg.ubb_process_shapes),
        ubb_meas_shape=scale**2 * cfg.ubb_meas_shape,
    )


def sweep_row(scale: float, trial: Trial) -> dict:
    """Max and median posterior semi-axis of one trial run at ``scale``."""
    axes = largest_semi_axes(trial.skf_shape)
    return {
        "scale": float(scale),
        "max_semi_axis": float(np.max(axes)),
        "median_semi_axis": float(np.median(axes)),
    }


def sensitivity_sweep(base: ExperimentConfig, scales) -> list[dict]:
    """Largest-semi-axis statistics as the bounded inputs are scaled.

    Each scale multiplies the semi-axes of the bounded process and
    measurement ellipsoids; trial 0 is run per scale and summarized by
    ``sweep_row``.
    """
    return [
        sweep_row(scale, run_trial(scaled_config(base, float(scale)), trial=0))
        for scale in scales
    ]
