"""Trajectory producers: gradient descent, gradient flow, heavy ball, PGD.

Discrete runs keep only their endpoints, x_0 and x_N, so memory stays
O(d), while the running path-length accumulator is exact.  An
``observe(x, f, g)`` callback sees every iterate with its value and
gradient, both from one evaluation inside the loop; it is the one way to
read the iterates in between, so diagnostics need no stored points.  The
loop takes one dot product per vector: the squared norms of the
gradient, the new iterate and the step serve the finiteness, stop,
step-norm and divergence checks; the iterate's serves the point-stop test
built once per run (:meth:`StopRule.point_test`, a witness coordinate
for the coords rule) and Brent's cycle detection, which stops a run
whose state repeats.  The continuous runner, :func:`gf_integrate`, is an
adaptive Dormand-Prince 5(4) integrator that carries the arc length as
an augmented ODE state and accumulates the chord sum in its loop.  It
allocates its stage rows and stage points once per run, and one writer
fills each stage's gradient in place: the objective's ``gradient_into``
when it declares one (quadratics and the PL staircase do), else a copy
of ``gradient_at``, which keeps that method's shape check.

The flow writes each accepted point (x, t and the local error) as a
row of one float64 buffer that doubles when full, 8 (d + 2) bytes a row.
At return the rows are copied into trimmed arrays and the buffer is
dropped, so a flow keeping m > RECORD_ROWS points peaks below three
times its rows' bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import curvature_pair
from .errors import DivergenceError, InputError, NonFiniteError, StepSizeUnderflowError, finite_number, positive_number
from .objectives import Array, ObjectiveSpec, QuadraticSpec, finite_vector

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
    time T).  A global safety cap backs every rule.  A run builds the
    first two kinds' test once, ``test = rule.point_test(d)``, and calls
    ``test(x, float(x.dot(x)))``.  The coords test keeps a witness w, the
    head index last seen with |x_w| >= eps: while that holds, one scalar
    read rules the stop out; else the head's ``argmax`` decides and is the
    next witness.
    """

    kind: str
    threshold: float

    _KINDS = ("norm_below", "coords_below_except_last", "grad_below", "max_steps", "horizon")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise InputError(f"unknown stop rule {self.kind!r}")
        threshold = finite_number(self.threshold, "stop threshold")
        if self.kind == "max_steps" and (threshold < 0 or not threshold.is_integer()):
            raise InputError("max_steps requires a nonnegative integer")
        if threshold < 0:
            raise InputError("stop threshold must be nonnegative")
        object.__setattr__(self, "threshold", threshold)

    @classmethod
    def norm_below(cls, eps: float) -> "StopRule":
        return cls("norm_below", eps)

    @classmethod
    def coords_below_except_last(cls, eps: float) -> "StopRule":
        return cls("coords_below_except_last", eps)

    @classmethod
    def grad_below(cls, eps: float) -> "StopRule":
        return cls("grad_below", eps)

    @classmethod
    def max_steps(cls, n: int) -> "StopRule":
        return cls("max_steps", n)

    @classmethod
    def horizon(cls, t: float) -> "StopRule":
        return cls("horizon", t)

    def point_test(self, dim: int) -> Callable[[Array, float], bool] | None:
        """The point-stop test of one run on R^dim, or None if the rule has none."""
        eps = self.threshold
        if self.kind == "norm_below":
            return lambda x, xsq: math.sqrt(xsq) <= eps
        if self.kind != "coords_below_except_last":
            return None
        if dim <= 1:
            return lambda x, xsq: True  # the head is empty
        witness = 0

        def coords_below(x, xsq):
            nonlocal witness
            if abs(x.item(witness)) >= eps:
                return False
            head = np.abs(x[:-1])
            witness = int(head.argmax())  # the first NaN, if any: NaN < eps is false
            return bool(head[witness] < eps)

        return coords_below


def parse_stop_rule(text: str) -> StopRule:
    """Parse ``"kind:threshold"`` strings, e.g. ``"grad_below:1e-8"``."""
    kind, sep, raw = text.partition(":")
    if not sep:
        raise InputError(f"stop rule {text!r} must look like 'kind:threshold'")
    threshold = finite_number(raw, f"stop threshold in {text!r}")
    return StopRule(kind, threshold)


def _step_limit(stop: StopRule, cap: int) -> tuple[int, str]:
    """A run's step limit and the stop reason it reports: a ``max_steps``
    rule up to ``cap``, else the safety cap itself."""
    if stop.kind == "max_steps" and int(stop.threshold) <= cap:
        return int(stop.threshold), "max_steps"
    return cap, "cap"


@dataclass
class Trajectory:
    """Ordered record of an optimization curve.

    ``times`` holds iterate indices (discrete) or ODE times (continuous)
    for the *recorded* points.  A discrete run records x_0 and, once a
    step has been taken, x_N: ``times`` is ``[0]`` or ``[0, N]``, and
    only an ``observe`` callback sees the iterates in between.
    ``n_steps`` counts every update taken and ``path_sum`` accumulates
    the full step-norm sum.  Continuous trajectories record every
    accepted point (there is no dense output between them); their
    ``path_sum`` is the chord sum over accepted steps, a cross-check on
    ``arc_length``, the arc length integrated as an ODE state.  They
    also carry per-step local error estimates and the integrator's
    counts: ``n_steps`` accepted and ``n_rejected`` rejected steps.
    ``n_feval`` counts gradient calls, a fused value-and-gradient call
    as one.

    ``points`` (m, d) float64, ``times`` (m,), float64 for flows and int64
    for discrete runs (m is 1 or 2), and a flow's ``local_errors`` (m,)
    float64 are C-contiguous arrays that own their data: a flow's
    accepted point costs 8 d + 16 bytes.
    """

    kind: str
    times: Array
    points: Array
    stop_reason: str
    n_steps: int = 0
    path_sum: float = 0.0
    # continuous-only fields
    arc_length: float | None = None
    local_errors: Array | None = None
    n_rejected: int = 0
    n_feval: int = 0

    @property
    def final_point(self) -> Array:
        return self.points[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])


#: Rows a flow's record holds before it first grows.
RECORD_ROWS = 64


class _Record:
    """The accepted points of one flow, each a row of one float64 buffer.

    The buffer starts at RECORD_ROWS rows and a full one is replaced by
    one with twice the rows.  Once grown, a record of m rows of w bytes
    has fewer than 2 m rows, so with the old buffer during a growth, or
    with the trimmed copies taken at return, it holds less than 3 m w
    bytes.  Discrete runs keep no record: only x_0 and x_N.
    """

    __slots__ = ("rows", "n")

    def __init__(self, width: int):
        self.rows = np.empty((RECORD_ROWS, width))
        self.n = 0

    def add(self) -> Array:
        """The next row, for the caller to fill."""
        if self.n == len(self.rows):
            grown = np.empty((2 * self.n, self.rows.shape[1]))
            grown[: self.n] = self.rows
            self.rows = grown
        self.n += 1
        return self.rows[self.n - 1]

    def kept(self, columns) -> Array:
        """A C-contiguous copy of ``columns`` of the kept rows."""
        return self.rows[: self.n, columns].copy()


def _check_finite(g: Array, k: int, what: str = "gradient"):
    if not np.all(np.isfinite(g)):
        raise NonFiniteError(f"non-finite {what} at iterate {k}")


def _discrete_run(
    obj: ObjectiveSpec,
    x: Array,
    stop: StopRule,
    update: Callable[[Array, Array, Array], Array],
    *,
    safety_cap: int,
    observe: Callable[[Array, float, Array], None] | None,
) -> Trajectory:
    if stop.kind == "horizon":
        raise InputError("horizon stop rules apply to flows only")
    k, path_sum = 0, 0.0
    # update(x_k, x_{k-1}, g_k) gives x_{k+1}; x_{-1} is x_0
    x0, x_prev = x.copy(), x
    gradient_at, value_and_gradient_at = obj.gradient_at, obj.value_and_gradient_at
    kind, eps = stop.kind, stop.threshold
    grad_stop, point_stop = kind == "grad_below", stop.point_test(obj.dim)
    limit, limit_reason = _step_limit(stop, safety_cap)
    # Each vector's squared norm is taken once and serves every check on
    # it: sqrt(v.dot(v)) is what np.linalg.norm(v) computes for a real
    # vector, and a vector with a NaN or an infinite entry has a
    # non-finite square (a finite one may overflow; the exact check decides).
    xsq = float(x.dot(x))
    # Brent's cycle detection: the pair (x_{k-1}, x_k) is the whole state
    # of every update here, so once it repeats the run repeats forever.
    # The pair after step k is saved at each power of two k and compared
    # with every later pair, squared norm first and bytes only on a tie.
    saved, saved_sq, save_at, cycle = None, math.nan, 1, False
    while True:
        # every iterate the run returns, x_N included, is evaluated once
        if observe is None:
            g = gradient_at(x)
        else:
            f, g = value_and_gradient_at(x)
        gsq = float(g.dot(g))
        if not math.isfinite(gsq):
            _check_finite(g, k)
        if observe is not None:
            observe(x, f, g)
        if cycle:
            reason = "cycle"
            break
        if point_stop is not None and point_stop(x, xsq):
            reason = kind
            break
        if k >= limit:
            reason = limit_reason
            break
        if grad_stop and math.sqrt(gsq) <= eps:
            reason = kind
            break
        x_new = update(x, x_prev, g)
        xsq = float(x_new.dot(x_new))
        if not math.isfinite(xsq):
            _check_finite(x_new, k + 1, "iterate")
        d = x_new - x
        step_norm = math.sqrt(float(d.dot(d)))
        if step_norm == 0.0:
            reason = "stationary"
            break
        k += 1
        path_sum += step_norm
        if math.sqrt(xsq) > DIVERGENCE_RADIUS:
            raise DivergenceError(f"trajectory norm exceeded {DIVERGENCE_RADIUS:g} at iterate {k}")
        x_prev, x = x, x_new
        cycle = xsq == saved_sq and x.tobytes() == saved[1].tobytes() and x_prev.tobytes() == saved[0].tobytes()
        if k == save_at:
            saved, saved_sq, save_at = (x_prev, x), xsq, 2 * k
    return Trajectory(
        kind="discrete",
        times=np.array([0, k] if k else [0], dtype=np.int64),
        points=np.array([x0, x] if k else [x0]),
        stop_reason=reason,
        n_steps=k,
        path_sum=path_sum,
        n_feval=k + 1,  # one gradient per iterate x_0 ... x_N
    )


def gd_run(
    obj: ObjectiveSpec,
    x0,
    eta: float,
    stop: StopRule,
    *,
    safety_cap: int = MAX_DISCRETE_STEPS,
    observe: Callable[[Array, float, Array], None] | None = None,
) -> Trajectory:
    """Gradient descent x_{k+1} = x_k - eta * grad f(x_k).

    The trajectory keeps x_0 and x_N.  The gradient is evaluated once at
    every iterate x_0 ... x_N, the last one included, observed or not, so
    a non-finite gradient at x_N fails the run either way.
    ``observe(x, f, g)``, if given, is called with each of them, its
    value and its gradient; the two come from one
    :meth:`ObjectiveSpec.value_and_gradient_at` call.
    :func:`heavy_ball_run` and :func:`pgd_run` take it too.
    A run whose state repeats exactly stops with reason ``cycle``.
    """
    eta = positive_number(eta, "step size")
    x0 = finite_vector(x0, "x0", obj.dim)
    return _discrete_run(
        obj, x0, stop,
        lambda x, x_prev, g: x - eta * g,
        safety_cap=safety_cap, observe=observe,
    )


def hb_params(mu: float, L: float) -> tuple[float, float]:
    """Heavy-ball step and momentum: alpha = 4/(sqrt(L)+sqrt(mu))^2,
    beta = ((sqrt(L)-sqrt(mu))/(sqrt(L)+sqrt(mu)))^2."""
    mu, L = curvature_pair(mu, L)
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
    observe: Callable[[Array, float, Array], None] | None = None,
) -> Trajectory:
    """Polyak heavy ball: x+ = x - alpha * grad f(x) + beta (x - x-).

    The previous iterate is initialised to x0, so the first update is a
    plain gradient step.  With beta = 0 the run is bitwise identical to
    :func:`gd_run` at step size alpha.
    """
    alpha = positive_number(alpha, "alpha")
    beta = finite_number(beta, "beta")
    if not 0 <= beta < 1:
        raise InputError("beta must lie in [0, 1)")
    x0 = finite_vector(x0, "x0", obj.dim)

    def update(x, x_prev, g):
        x_new = x - alpha * g
        if beta != 0.0:
            x_new = x_new + beta * (x - x_prev)
        return x_new

    return _discrete_run(
        obj, x0, stop, update,
        safety_cap=safety_cap, observe=observe,
    )


def _spot_check_projector(projector: Callable[[Array], Array], x0: Array):
    rng = np.random.default_rng(0)
    # copies: a projector may write every output into one buffer
    p0 = np.array(projector(x0), dtype=float)
    if np.linalg.norm(np.asarray(projector(p0)) - p0) > 1e-12 * max(1.0, float(np.linalg.norm(p0))):
        raise InputError("projector fails idempotence spot-check")
    if np.linalg.norm(p0 - x0) > 1e-9 * max(1.0, float(np.linalg.norm(x0))):
        raise InputError("x0 must lie in the constraint set")
    for _ in range(4):
        a = x0 + rng.standard_normal(x0.size)
        b = x0 + rng.standard_normal(x0.size)
        pa, pb = np.array(projector(a), float), np.array(projector(b), float)
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
    observe: Callable[[Array, float, Array], None] | None = None,
) -> Trajectory:
    """Projected gradient descent x_{k+1} = P(x_k - eta * grad f(x_k))."""
    eta = positive_number(eta, "step size")
    x0 = finite_vector(x0, "x0", obj.dim)
    _spot_check_projector(projector, x0)
    return _discrete_run(
        obj, x0, stop,
        lambda x, x_prev, g: np.array(projector(x - eta * g), dtype=float),
        safety_cap=safety_cap, observe=observe,
    )


def box_projector(lo, hi) -> Callable[[Array], Array]:
    lo, hi = (np.array([finite_number(v, "box bound") for v in np.ravel(b)]) for b in (lo, hi))
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
    if not np.all(np.isfinite(t_arr)):
        raise InputError("time must be finite")
    if np.any(t_arr < 0):
        raise InputError("time must be nonnegative")
    if t_arr.ndim == 0:
        if float(t_arr) == 0.0:
            return spec.x0.copy()
        decay = spec.alpha * np.exp(-float(t_arr) * spec.sigma)
        return spec.projection + spec.basis @ decay
    decay = spec.alpha * np.exp(-np.outer(t_arr, spec.sigma))
    return spec.projection + decay @ spec.basis.T


# Dormand-Prince 5(4) tableau, negated because the stage rows hold the
# negated field (stage times are implicit: the field is autonomous).
_A = [-np.array(row) for row in (
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
)]
# The propagated 5th-order weights coincide with the last row of _A (FSAL);
# _E is the difference between the 5th- and 4th-order weights (negated too).
_E = -np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_BETA = 0.04          # PI stabilisation exponent
_ALPHA = 0.2 - 0.75 * _BETA


def _initial_step(into, y0, k0, probe, tol):
    """Hairer's starting step; ``k0`` is the negated field at ``y0``,
    ``probe`` a scratch row for the negated field at the Euler probe,
    written through the run's gradient writer ``into``."""
    scale = tol  # pure absolute scaling
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((k0 / scale) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    head = probe[:-1]
    into((y0 - h0 * k0)[:-1], head)
    probe[-1] = -math.sqrt(head.dot(head))
    d2 = np.sqrt(np.mean(((probe - k0) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


def gf_integrate(obj: ObjectiveSpec, x0, tol: float = 1e-10, stop: StopRule | None = None) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) integration of dx/dt = -grad f(x).

    The flow is integrated together with an extra state s(t) obeying
    ds/dt = ||grad f(x)||, so the arc length comes from the same
    error-controlled integration as the curve; a PI step-size controller
    keeps each accepted step's scaled local error estimate at or below 1
    (absolute tolerance ``tol``).  The chord sum over accepted steps is
    accumulated in the loop as ``path_sum``, a cross-check on the arc.

    Each stage row of the work array holds the *negated* augmented field,
    (+grad, -||grad||), and the tableau is negated once at import to
    match; negation is exact, so every step is bit-identical to stepping
    with the field itself.  One writer per run fills a row's gradient
    head in place: the objective's ``gradient_into`` when it declares one,
    else a copy of :meth:`ObjectiveSpec.gradient_at`, which keeps its
    shape check.  Each stage point is formed in a buffer of its own,
    allocated once per run with its x-view; on acceptance the last
    stage's buffer, which holds the 5th-order solution, becomes the
    state and the old state's buffer takes its place.  A
    step's stages are checked for finiteness with one reduction (their
    sum, non-finite whenever an entry is); the element-wise test runs
    only when the sum is not finite.  ``horizon`` rules stop exactly at
    time T; a ``max_steps`` rule counts accepted steps.  Every stop test
    runs at the top of the loop, in one order: the rule, a zero gradient
    (``stationary``), the horizon, then the step limit.
    """
    tol = positive_number(tol, "tol")
    x0 = finite_vector(x0, "x0", obj.dim)
    if stop is None:
        stop = StopRule.grad_below(1e-10)
    kind, eps = stop.kind, stop.threshold
    grad_stop, point_stop = kind == "grad_below", stop.point_test(obj.dim)
    horizon = eps if kind == "horizon" else None
    # the horizon counts as reached within 1e-12 relative: this absorbs the
    # final rounding ulp, so the closing step cannot leave an unintegrable
    # sliver, and a horizon below the step floor stops before any step
    horizon_reached = None if horizon is None else horizon - 1e-12 * max(1.0, abs(horizon))
    limit, limit_reason = _step_limit(stop, MAX_ODE_STEPS)

    into = obj.gradient_into
    if into is None:
        gradient_at = obj.gradient_at

        def into(x, out):
            out[:] = gradient_at(x)

    y = np.concatenate([x0, [0.0]])
    n = y.size
    K = np.empty((7, n))
    head = K[0, :-1]
    into(y[:-1], head)
    K[0, -1] = -math.sqrt(head.dot(head))
    n_feval = 1
    if not np.all(np.isfinite(K[0])):
        raise NonFiniteError("non-finite gradient at t=0.0")

    d = obj.dim
    record = _Record(d + 2)  # a row holds x, t and the local error
    row = record.add()
    row[:d], row[d:] = x0, 0.0
    x = y[:-1]
    xsq = float(x.dot(x))
    grad_norm = -float(K[0, -1])
    t = 0.0
    h = None  # guessed once the first step is due
    err_old = 1e-4
    n_accepted, n_rejected, chord = 0, 0, 0.0
    # stages 2..7: (weights' dot, earlier rows, point buffer, its x-view,
    # row to write, its gradient head); the slices are views made once
    stages = []
    for i in range(1, 7):
        point = np.empty(n)
        stages.append((_A[i].dot, K[:i], point, point[:-1], K[i], K[i, :-1]))
    error_dot, e = _E.dot, np.empty(n)

    while True:
        # a rejected step leaves the state, and so every answer here, unchanged
        if (grad_stop and grad_norm <= eps) or (point_stop is not None and point_stop(x, xsq)):
            reason = kind
            break
        if grad_norm == 0.0:
            reason = "stationary"
            break
        if horizon is not None and t >= horizon_reached:
            reason = "horizon"
            break
        if n_accepted >= limit:
            reason = limit_reason
            break
        if h is None:
            h = _initial_step(into, y, K[0], K[1], tol)
            n_feval += 1  # the Euler probe inside the step-size guess
        if horizon is not None:
            h = min(h, horizon - t)
        if h <= 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflowError(t)

        for a_dot, earlier, point, point_x, row, head in stages:
            # y + h * a.dot(earlier), computed in the stage point's own buffer
            a_dot(earlier, point)
            point *= h
            point += y
            into(point_x, head)
            row[-1] = -math.sqrt(head.dot(head))
        n_feval += 6
        if not math.isfinite(np.add.reduce(K, None)) and not np.all(np.isfinite(K)):
            raise NonFiniteError(f"non-finite gradient near t={t + h!r}")

        # sqrt(mean((h * _E.dot(K) / tol)**2)), operation by operation
        error_dot(K, e)
        e *= h
        e /= tol
        e *= e
        err = math.sqrt(np.add.reduce(e) / n)

        if err <= 1.0:
            t += h
            n_accepted += 1
            # stage 7's point is the 5th-order solution (FSAL): it becomes
            # the state, and the old state's buffer, which x_prev views,
            # is stage 7's buffer from the next step on
            last = stages[-1]
            stages[-1] = (*last[:2], y, x, *last[4:])
            y, x_prev, x = last[2], x, last[3]
            row = record.add()
            row[:d] = x
            row[d] = t
            row[d + 1] = err
            dx = x - x_prev
            chord += math.sqrt(float(dx.dot(dx)))
            xsq = float(x.dot(x))
            grad_norm = -float(K[6, -1])
            if math.sqrt(xsq) > DIVERGENCE_RADIUS:
                raise DivergenceError(f"trajectory norm exceeded {DIVERGENCE_RADIUS:g} at t={t!r}")

            # PI controller (accepted step).
            err_floor = max(err, 1e-10)
            factor = _SAFETY * err_floor**(-_ALPHA) * err_old**_BETA
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_old = err_floor
            K[0] = K[6]  # FSAL
        else:
            n_rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err**(-0.2))

    return Trajectory(
        kind="continuous",
        times=record.kept(d),
        points=record.kept(slice(d)),
        stop_reason=reason,
        n_steps=n_accepted,
        path_sum=chord,
        arc_length=float(y[-1]),
        local_errors=record.kept(d + 1),
        n_rejected=n_rejected,
        n_feval=n_feval,
    )
