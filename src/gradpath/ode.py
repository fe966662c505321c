"""Adaptive Dormand-Prince 5(4) integration of gradient flow.

The flow dx/dt = -grad(x) is integrated together with an extra state
s(t) obeying ds/dt = ||grad(x)||, so the arc length of the curve is
produced by the same error-controlled integration as the curve itself.
A PI step-size controller keeps the estimated local error of each
accepted step below the requested tolerance.  Only the accepted points
are kept; there is no dense output.

Each stage row of the work array holds the *negated* augmented field,
(+grad, -||grad||), written in place from one gradient call, and the
tableau is negated once at import to match.  Negation is exact, so the
stage points, error estimates and steps are bit-identical to stepping
with the field itself.  A step's stages are checked for finiteness with
one reduction (their sum, which is non-finite whenever an entry is);
the element-wise test runs only when the sum is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError, NonFiniteError, StepSizeUnderflowError

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


@dataclass
class FlowResult:
    times: np.ndarray        # accepted times, t[0] = 0
    states: np.ndarray       # (m, d) points at accepted times
    arc: np.ndarray          # running arc length at accepted times
    local_errors: np.ndarray  # scaled error estimate of each accepted step
    stop_reason: str
    n_accepted: int
    n_rejected: int
    n_feval: int


def _initial_step(write_field, y0, k0, probe, tol, t_max):
    """Hairer's starting step; ``k0`` is the negated field at ``y0``,
    ``probe`` a scratch row for the negated field at the Euler probe."""
    scale = tol  # pure absolute scaling
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((k0 / scale) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    write_field(y0 - h0 * k0, probe)
    d2 = np.sqrt(np.mean(((probe - k0) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100 * h0, h1)
    if t_max is not None:
        h = min(h, t_max)
    return h


def integrate_flow(
    gradient,
    x0: np.ndarray,
    tol: float,
    *,
    stop_check=None,
    horizon: float | None = None,
    max_steps: int = 10**6,
    divergence_radius: float = 1e12,
) -> FlowResult:
    """Integrate dx/dt = -gradient(x) from ``x0`` with local error <= ``tol``.

    ``gradient(x)`` returns a float64 array of x's shape.
    ``stop_check(t, x, grad_norm)`` is consulted after every accepted
    step and may return a stop-reason string.  ``horizon`` stops the
    integration exactly at the given time.
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    if horizon is not None and horizon < 0:
        raise InputError("horizon must be nonnegative")
    x0 = np.asarray(x0, dtype=float)
    y = np.concatenate([x0, [0.0]])
    n = y.size

    def write_field(yy, row):
        """Store the negated augmented field at ``yy`` in ``row``: (+g, -||g||)."""
        g = gradient(yy[:-1])
        if g.shape != x0.shape:
            raise InputError(f"gradient returned shape {g.shape} at a point of shape {x0.shape}")
        row[:-1] = g
        row[-1] = -math.sqrt(g.dot(g))

    K = np.empty((7, n))
    write_field(y, K[0])
    n_feval = 1
    if not np.all(np.isfinite(K[0])):
        raise NonFiniteError("non-finite gradient at t=0.0")

    ys = [y]
    times = [0.0]
    local_errors = [0.0]
    stop_reason = None

    grad_norm = -float(K[0, -1])
    if stop_check is not None:
        reason = stop_check(0.0, x0, grad_norm)
        if reason:
            stop_reason = reason
    if stop_reason is None and grad_norm == 0.0:
        stop_reason = "stationary"
    if stop_reason is None and horizon == 0.0:
        stop_reason = "horizon"

    t = 0.0
    h = 1.0
    if stop_reason is None:
        h = _initial_step(write_field, y, K[0], K[1], tol, horizon)
        n_feval += 1  # the Euler probe inside the step-size guess
    err_old = 1e-4
    n_accepted = 0
    n_rejected = 0
    # (weights, earlier rows, row to write) of stages 2..7; the slices are
    # views of K made once
    stages = [(_A[i], K[:i], K[i]) for i in range(1, 7)]

    while stop_reason is None:
        if n_accepted >= max_steps:
            stop_reason = "cap"
            break
        if horizon is not None:
            h = min(h, horizon - t)
        if h <= 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflowError(t)

        for a, earlier, row in stages:
            # y + h * (a @ earlier), computed in the stage point's own buffer
            yi = a @ earlier
            yi *= h
            yi += y
            write_field(yi, row)
        n_feval += 6
        if not math.isfinite(K.sum()) and not np.all(np.isfinite(K)):
            raise NonFiniteError(f"non-finite gradient near t={t + h!r}")

        # sqrt(mean((h * (E @ K) / tol)**2)), operation by operation
        e = _E @ K
        e *= h
        e /= tol
        e *= e
        err = math.sqrt(float(np.add.reduce(e)) / n)

        if err <= 1.0:
            t += h
            y = yi  # stage 7 uses the 5th-order solution point
            ys.append(y)
            times.append(t)
            local_errors.append(err)
            n_accepted += 1

            grad_norm = -float(K[6, -1])
            x = y[:-1]
            if math.sqrt(x.dot(x)) > divergence_radius:
                raise DivergenceError(f"trajectory norm exceeded {divergence_radius:g} at t={t!r}")
            if stop_check is not None:
                stop_reason = stop_check(t, x, grad_norm)
            if stop_reason is None and horizon is not None:
                # absorb the final rounding ulp so the closing step cannot
                # leave an unintegrable sliver before the horizon
                if t >= horizon - 1e-12 * max(1.0, abs(horizon)):
                    stop_reason = "horizon"
            if stop_reason is None and grad_norm == 0.0:
                stop_reason = "stationary"

            # PI controller (accepted step).
            err_floor = max(err, 1e-10)
            factor = _SAFETY * err_floor**(-_ALPHA) * err_old**_BETA
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_old = err_floor
            K[0] = K[6]  # FSAL
        else:
            n_rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err**(-0.2))

    path = np.asarray(ys)
    return FlowResult(
        times=np.asarray(times),
        states=path[:, :-1].copy(),
        arc=path[:, -1].copy(),
        local_errors=np.asarray(local_errors),
        stop_reason=stop_reason,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        n_feval=n_feval,
    )
