"""Trajectory producers: gradient descent, gradient flow, heavy ball, PGD.

Discrete runs record every iterate by default; ``keep_iterates=False``
keeps only the two endpoints, so memory stays O(d), while the running
path-length accumulator stays exact.  An ``observe(x, g)`` callback sees
every iterate with its gradient inside the loop, so diagnostics need no
stored points.
The continuous runner wraps the adaptive integrator in :mod:`.ode` and
reports the arc length carried as an augmented ODE state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import ode
from .errors import DivergenceError, InputError, NonFiniteError, finite_number
from .objectives import Array, ObjectiveSpec, QuadraticSpec, as_vector

#: Default safety caps; exceeding one is an explicit stop reason.
MAX_DISCRETE_STEPS = 10**8
MAX_ODE_STEPS = 10**6

#: Trajectories whose norm exceeds this radius raise DivergenceError.
DIVERGENCE_RADIUS = 1e12


@dataclass(frozen=True)
class StopRule:
    """Termination rule for a trajectory run.

    Kinds: ``norm_below`` (||x_k|| <= eps), ``coords_below_except_last``
    (max_{i != d} |x_{k,i}| < eps), ``grad_below`` (||grad f(x_k)|| <= eps),
    ``max_steps`` (N update steps) and ``horizon`` (flows only, stop at
    time T).  A global safety cap backs every rule.
    """

    kind: str
    threshold: float

    _KINDS = ("norm_below", "coords_below_except_last", "grad_below", "max_steps", "horizon")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise InputError(f"unknown stop rule {self.kind!r}")
        finite_number(self.threshold, "stop threshold")
        if self.kind == "max_steps":
            if self.threshold < 0 or self.threshold != int(self.threshold):
                raise InputError("max_steps requires a nonnegative integer")
        elif self.threshold < 0:
            raise InputError("stop threshold must be nonnegative")

    @classmethod
    def norm_below(cls, eps: float) -> "StopRule":
        return cls("norm_below", float(eps))

    @classmethod
    def coords_below_except_last(cls, eps: float) -> "StopRule":
        return cls("coords_below_except_last", float(eps))

    @classmethod
    def grad_below(cls, eps: float) -> "StopRule":
        return cls("grad_below", float(eps))

    @classmethod
    def max_steps(cls, n: int) -> "StopRule":
        return cls("max_steps", float(n))

    @classmethod
    def horizon(cls, t: float) -> "StopRule":
        return cls("horizon", float(t))

    def point_satisfied(self, x: Array) -> bool:
        """Stop conditions that depend on the point alone."""
        if self.kind == "norm_below":
            return float(np.linalg.norm(x)) <= self.threshold
        if self.kind == "coords_below_except_last":
            if x.size <= 1:
                return True
            return float(np.max(np.abs(x[:-1]))) < self.threshold
        return False


def parse_stop_rule(text: str) -> StopRule:
    """Parse ``"kind:threshold"`` strings, e.g. ``"grad_below:1e-8"``."""
    kind, sep, raw = text.partition(":")
    if not sep:
        raise InputError(f"stop rule {text!r} must look like 'kind:threshold'")
    threshold = finite_number(raw, f"stop threshold in {text!r}")
    if kind == "max_steps":
        return StopRule.max_steps(int(threshold))
    return StopRule(kind, threshold)


@dataclass
class Trajectory:
    """Ordered record of an optimization curve.

    ``times`` holds iterate indices (discrete) or ODE times (continuous)
    for the *recorded* points.  Discrete runs record every iterate, or
    only the first and the last with ``keep_iterates=False``.  ``n_steps``
    counts every update taken and ``path_sum`` accumulates the full
    step-norm sum even when no intermediate point is kept.  Continuous
    trajectories additionally carry the arc length integrated as an ODE
    state, the chord-sum cross-check, per-step local error estimates and
    dense-output segments.
    """

    kind: str
    times: Array
    points: Array
    stop_reason: str
    eta: float | None = None
    rule: dict = field(default_factory=dict)
    n_steps: int = 0
    path_sum: float = 0.0
    # continuous-only fields
    arc_length: float | None = None
    chord_sum: float | None = None
    local_errors: Array | None = None
    dense: list | None = None
    n_rejected: int = 0
    n_feval: int = 0

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def final_point(self) -> Array:
        return self.points[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def interpolate(self, t: float) -> Array:
        """Dense-output evaluation of a continuous trajectory at time t."""
        if self.kind != "continuous" or not self.dense:
            raise InputError("dense output is only available for continuous trajectories")
        if t < self.times[0] or t > self.times[-1]:
            raise InputError(f"time {t} outside the integrated range")
        starts = np.array([seg.t0 for seg in self.dense])
        idx = min(int(np.searchsorted(starts, t, side="right")) - 1, len(self.dense) - 1)
        idx = max(idx, 0)
        return self.dense[idx](t)[:-1]


class _Recorder:
    """Accumulates the step-norm sum and the iterates (only x_0 and x_N unless ``keep``)."""

    def __init__(self, x0: Array, keep: bool):
        self.keep = keep
        self.indices = [0]
        self.points = [np.array(x0, dtype=float)]
        self.path_sum = 0.0
        self.k = 0

    def step(self, x_new: Array, step_norm: float):
        self.k += 1
        self.path_sum += step_norm
        if self.keep:
            self.indices.append(self.k)
            self.points.append(np.array(x_new, dtype=float))

    def finish(self, x_final: Array):
        if self.indices[-1] != self.k:
            self.indices.append(self.k)
            self.points.append(np.array(x_final, dtype=float))


def _check_finite(g: Array, k: int, what: str = "gradient"):
    if not np.all(np.isfinite(g)):
        raise NonFiniteError(f"non-finite {what} at iterate {k}")


def _check_divergence(x: Array, k: int):
    if float(np.linalg.norm(x)) > DIVERGENCE_RADIUS:
        raise DivergenceError(f"trajectory norm exceeded {DIVERGENCE_RADIUS:g} at iterate {k}")


def _discrete_run(
    obj: ObjectiveSpec,
    x0,
    stop: StopRule,
    update: Callable[[Array, Array, int], Array],
    *,
    eta: float | None,
    rule: dict,
    safety_cap: int,
    keep_iterates: bool,
    observe: Callable[[Array, Array], None] | None,
) -> Trajectory:
    if stop.kind == "horizon":
        raise InputError("horizon stop rules apply to flows only")
    x = as_vector(x0, obj.dim)
    rec = _Recorder(x, keep_iterates)
    reason = None
    g = None  # gradient at x, once evaluated
    while True:
        if stop.point_satisfied(x):
            reason = stop.kind
            break
        if stop.kind == "max_steps" and rec.k >= int(stop.threshold):
            reason = "max_steps"
            break
        if rec.k >= safety_cap:
            reason = "cap"
            break
        g = obj.gradient_at(x)
        _check_finite(g, rec.k)
        if observe is not None:
            observe(x, g)
        if stop.kind == "grad_below" and float(np.linalg.norm(g)) <= stop.threshold:
            reason = "grad_below"
            break
        x_new = update(x, g, rec.k)
        _check_finite(x_new, rec.k + 1, "iterate")
        step_norm = float(np.linalg.norm(x_new - x))
        if step_norm == 0.0:
            reason = "stationary"
            break
        rec.step(x_new, step_norm)
        _check_divergence(x_new, rec.k)
        x, g = x_new, None
    if observe is not None and g is None:
        g = obj.gradient_at(x)
        _check_finite(g, rec.k)
        observe(x, g)
    rec.finish(x)
    return Trajectory(
        kind="discrete",
        times=np.asarray(rec.indices, dtype=np.int64),
        points=np.asarray(rec.points),
        stop_reason=reason,
        eta=eta,
        rule=rule,
        n_steps=rec.k,
        path_sum=rec.path_sum,
    )


def gd_run(
    obj: ObjectiveSpec,
    x0,
    eta: float,
    stop: StopRule,
    *,
    safety_cap: int = MAX_DISCRETE_STEPS,
    keep_iterates: bool = True,
    observe: Callable[[Array, Array], None] | None = None,
) -> Trajectory:
    """Gradient descent x_{k+1} = x_k - eta * grad f(x_k).

    ``keep_iterates=False`` stores only x_0 and x_N.
    ``observe(x, g)``, if given, is called with every iterate x_0 ... x_N
    and its gradient, the last one included; :func:`heavy_ball_run` and
    :func:`pgd_run` take both options too.
    """
    if eta <= 0:
        raise InputError("step size must be positive")
    return _discrete_run(
        obj, x0, stop,
        lambda x, g, k: x - eta * g,
        eta=eta, rule={"rule": "gd", "eta": eta},
        safety_cap=safety_cap, keep_iterates=keep_iterates, observe=observe,
    )


def hb_params(mu: float, L: float) -> tuple[float, float]:
    """Heavy-ball step and momentum: alpha = 4/(sqrt(L)+sqrt(mu))^2,
    beta = ((sqrt(L)-sqrt(mu))/(sqrt(L)+sqrt(mu)))^2."""
    if not (0 < mu <= L):
        raise InputError("requires 0 < mu <= L")
    rl, rm = math.sqrt(L), math.sqrt(mu)
    return 4.0 / (rl + rm) ** 2, ((rl - rm) / (rl + rm)) ** 2


def heavy_ball_run(
    obj: ObjectiveSpec,
    x0,
    alpha: float,
    beta: float,
    stop: StopRule,
    *,
    safety_cap: int = MAX_DISCRETE_STEPS,
    keep_iterates: bool = True,
    observe: Callable[[Array, Array], None] | None = None,
) -> Trajectory:
    """Polyak heavy ball: x+ = x - alpha * grad f(x) + beta (x - x-).

    The previous iterate is initialised to x0, so the first update is a
    plain gradient step.  With beta = 0 the run is bitwise identical to
    :func:`gd_run` at step size alpha.
    """
    if alpha <= 0:
        raise InputError("alpha must be positive")
    if not (0 <= beta < 1):
        raise InputError("beta must lie in [0, 1)")
    prev = {"x": as_vector(x0, obj.dim)}

    def update(x, g, k):
        x_new = x - alpha * g
        if beta != 0.0:
            x_new = x_new + beta * (x - prev["x"])
        prev["x"] = x
        return x_new

    return _discrete_run(
        obj, x0, stop, update,
        eta=alpha, rule={"rule": "hb", "alpha": alpha, "beta": beta},
        safety_cap=safety_cap, keep_iterates=keep_iterates, observe=observe,
    )


def _spot_check_projector(projector: Callable[[Array], Array], x0: Array):
    rng = np.random.default_rng(0)
    p0 = np.asarray(projector(x0), dtype=float)
    if np.linalg.norm(np.asarray(projector(p0)) - p0) > 1e-12 * max(1.0, float(np.linalg.norm(p0))):
        raise InputError("projector fails idempotence spot-check")
    if np.linalg.norm(p0 - x0) > 1e-9 * max(1.0, float(np.linalg.norm(x0))):
        raise InputError("x0 must lie in the constraint set")
    for _ in range(4):
        a = x0 + rng.standard_normal(x0.size)
        b = x0 + rng.standard_normal(x0.size)
        pa, pb = np.asarray(projector(a), float), np.asarray(projector(b), float)
        if np.linalg.norm(projector(pa) - pa) > 1e-12 * max(1.0, float(np.linalg.norm(pa))):
            raise InputError("projector fails idempotence spot-check")
        if np.linalg.norm(pa - pb) > np.linalg.norm(a - b) * (1 + 1e-12) + 1e-12:
            raise InputError("projector fails nonexpansiveness spot-check")


def pgd_run(
    obj: ObjectiveSpec,
    projector: Callable[[Array], Array],
    x0,
    eta: float,
    stop: StopRule,
    *,
    safety_cap: int = MAX_DISCRETE_STEPS,
    keep_iterates: bool = True,
    observe: Callable[[Array, Array], None] | None = None,
) -> Trajectory:
    """Projected gradient descent x_{k+1} = P(x_k - eta * grad f(x_k))."""
    if eta <= 0:
        raise InputError("step size must be positive")
    x0 = as_vector(x0, obj.dim)
    _spot_check_projector(projector, x0)
    return _discrete_run(
        obj, x0, stop,
        lambda x, g, k: np.asarray(projector(x - eta * g), dtype=float),
        eta=eta, rule={"rule": "pgd", "eta": eta},
        safety_cap=safety_cap, keep_iterates=keep_iterates, observe=observe,
    )


def box_projector(lo, hi) -> Callable[[Array], Array]:
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    if np.any(lo > hi):
        raise InputError("box projector requires lo <= hi")
    return lambda x: np.clip(x, lo, hi)


# ---------------------------------------------------------------------------
# Gradient flow
# ---------------------------------------------------------------------------


def gf_quadratic(spec: QuadraticSpec, t):
    """Closed-form flow point(s) of a quadratic at time(s) ``t``.

    Per eigencomponent the flow is alpha_i * exp(-t sigma_i) around the
    projection point; t may be a scalar or a 1-D array of times.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise InputError("time must be nonnegative")
    if t_arr.ndim == 0:
        if float(t_arr) == 0.0:
            return spec.x0.copy()
        decay = spec.alpha * np.exp(-float(t_arr) * spec.sigma)
        return spec.projection + spec.basis @ decay
    decay = spec.alpha * np.exp(-np.outer(t_arr, spec.sigma))
    return spec.projection + decay @ spec.basis.T


def gf_integrate(
    obj: ObjectiveSpec,
    x0,
    tol: float = 1e-10,
    stop: StopRule | None = None,
    *,
    max_steps: int = MAX_ODE_STEPS,
) -> Trajectory:
    """Adaptive integration of the gradient flow dx/dt = -grad f(x).

    The running arc length is integrated as an augmented state; the
    chord sum over accepted steps is recorded as a cross-check.
    """
    x0 = as_vector(x0, obj.dim)
    if stop is None:
        stop = StopRule.grad_below(1e-10)

    horizon = None
    stop_check = None
    if stop.kind == "horizon":
        horizon = stop.threshold
    elif stop.kind == "grad_below":
        eps = stop.threshold
        stop_check = lambda t, x, gn: "grad_below" if gn <= eps else None
    elif stop.kind == "norm_below":
        eps = stop.threshold
        stop_check = lambda t, x, gn: "norm_below" if float(np.linalg.norm(x)) <= eps else None
    elif stop.kind == "coords_below_except_last":
        rule = stop
        stop_check = lambda t, x, gn: stop.kind if rule.point_satisfied(x) else None
    elif stop.kind == "max_steps":
        max_steps = min(max_steps, int(stop.threshold))
    else:  # pragma: no cover - guarded by StopRule validation
        raise InputError(f"unsupported stop rule {stop.kind!r} for flows")

    res = ode.integrate_flow(
        obj.gradient_at, x0, tol,
        stop_check=stop_check, horizon=horizon, max_steps=max_steps,
        divergence_radius=DIVERGENCE_RADIUS,
    )
    stop_reason = res.stop_reason
    if stop.kind == "max_steps" and stop_reason == "cap":
        stop_reason = "max_steps"
    chord = float(np.linalg.norm(np.diff(res.states, axis=0), axis=1).sum())
    return Trajectory(
        kind="continuous",
        times=res.times,
        points=res.states,
        stop_reason=stop_reason,
        rule={"rule": "gf", "tol": tol},
        n_steps=res.n_accepted,
        path_sum=chord,
        arc_length=float(res.arc[-1]),
        chord_sum=chord,
        local_errors=res.local_errors,
        dense=res.segments,
        n_rejected=res.n_rejected,
        n_feval=res.n_feval,
    )
