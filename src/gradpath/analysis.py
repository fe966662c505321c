"""Path-length measurement and trajectory diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, finite_number, positive_number
from .objectives import (
    Array,
    IntervalProductSet,
    ObjectiveSpec,
    OptimalSet,
    QuadraticSpec,
)
from .optimizers import Trajectory
from .quadrature import adaptive_quadrature

#: Exhaustive triple enumeration is refused beyond this many points; a
#: self-contractedness verdict must be a certificate, never a sample.
SELF_CONTRACTED_MAX_POINTS = 2000


@dataclass(frozen=True)
class PathLengthReport:
    """Measured path length with its stopping diagnostics.

    ``length`` includes the tail correction; ``raw_length`` is the bare
    sum/integral so both are auditable.  ``error_budget`` carries the
    quadrature error estimate plus the analytic tail bound for
    quadrature-based reports (zero for discrete sums).
    """

    length: float
    raw_length: float
    tail: float
    dist0: float
    ratio: float
    stop_reason: str
    steps: int
    error_budget: float = 0.0


def _ratio(length: float, dist0: float) -> float:
    return length / dist0 if dist0 > 0 else float("nan")


def path_length_discrete(traj: Trajectory, optimal_set: OptimalSet | None = None) -> PathLengthReport:
    """Step-norm sum of a discrete trajectory plus the stop-point tail.

    When the optimal set is known, the remaining distance from the final
    iterate is added as the tail correction (it is zero if the run ended
    on the optimal set).
    """
    if traj.kind != "discrete":
        raise InputError("expected a discrete trajectory")
    if len(traj.points) < 1:
        raise InputError("trajectory must hold at least one iterate")
    raw = float(traj.path_sum)
    tail = 0.0
    dist0 = float("nan")
    if optimal_set is not None:
        tail = optimal_set.distance(traj.final_point)
        dist0 = optimal_set.distance(traj.points[0])
    length = raw + tail
    return PathLengthReport(
        length=length,
        raw_length=raw,
        tail=tail,
        dist0=dist0,
        ratio=_ratio(length, dist0),
        stop_reason=traj.stop_reason,
        steps=traj.n_steps,
    )


def quadratic_flow_speed(sigma: Array, alpha: Array):
    """Integrand t -> ||dx/dt|| of the quadratic flow with spectrum ``sigma``
    and eigen coordinates ``alpha``, vectorised over t."""
    s2a2 = sigma**2 * alpha**2

    def speed(t):
        t = np.asarray(t, dtype=float)
        return np.sqrt(np.exp(-2.0 * np.outer(t, sigma)) @ s2a2)

    return speed


def path_length_quadratic_gf(spec: QuadraticSpec, abs_tol: float = 1e-12) -> PathLengthReport:
    """Arc length of the closed-form quadratic flow by adaptive quadrature.

    The improper integral is truncated at T with the analytic tail bound
    sum_i |alpha_i| exp(-sigma_min T) < abs_tol; the tail bound goes into
    the error budget, not into the reported length.

    The integral runs on the spectrum scaled by 2^-k, which stretches time
    by 2^k and leaves the length unchanged.  k centres the exponents of
    sigma_max and sigma_min, so sigma^2 alpha^2 does not overflow once
    sigma_max > 2^512.  A power-of-two scaling is exact, so every node,
    weight product and error estimate, and with them the report, keeps
    the bits of the unscaled integral wherever that one is finite.
    """
    abs_tol = positive_number(abs_tol, "abs_tol")
    alpha_l1 = float(np.abs(spec.alpha).sum())
    if alpha_l1 == 0.0:
        return PathLengthReport(0.0, 0.0, 0.0, 0.0, float("nan"), "quadrature", 0)
    k = (math.frexp(spec.sigma[0])[1] + math.frexp(spec.sigma[-1])[1]) // 2
    sigma = np.ldexp(spec.sigma, -k)
    sigma_min = float(sigma[-1])
    horizon = math.log(alpha_l1 / abs_tol) / sigma_min if alpha_l1 > abs_tol else 0.0
    if horizon <= 0.0:
        return PathLengthReport(
            0.0, 0.0, 0.0, spec.dist0, _ratio(0.0, spec.dist0), "quadrature", 0,
            error_budget=alpha_l1,
        )
    tail_bound = alpha_l1 * math.exp(-sigma_min * horizon)
    breakpoints = [1.0 / s for s in sigma if 1.0 / s < horizon]
    value, quad_err, n_eval = adaptive_quadrature(
        quadratic_flow_speed(sigma, spec.alpha), 0.0, horizon, abs_tol, breakpoints=breakpoints,
    )
    return PathLengthReport(
        length=value,
        raw_length=value,
        tail=0.0,
        dist0=spec.dist0,
        ratio=_ratio(value, spec.dist0),
        stop_reason="quadrature",
        steps=n_eval,
        error_budget=quad_err + tail_bound,
    )


# ---------------------------------------------------------------------------
# Self-contractedness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelfContractedVerdict:
    """Certificate for the ordered-triple contraction property.

    For every s1 <= s2 <= s3 a self-contracted curve satisfies
    ||g(s3) - g(s2)|| <= ||g(s3) - g(s1)||.  When the property fails the
    witness triple and its two violating distances are reported; when it
    holds, ``slack`` is the smallest margin over all nontrivial triples.
    """

    holds: bool
    witness: tuple[int, int, int] | None = None
    dist_mid: float | None = None   # ||g(s3) - g(s2)|| at the witness
    dist_far: float | None = None   # ||g(s3) - g(s1)|| at the witness
    slack: float = float("inf")


def self_contracted_check(points, tol: float = 1e-12) -> SelfContractedVerdict:
    """Exhaustively check all ordered triples of an iterate sequence.

    The check is an O(n^3)-triple certificate evaluated with O(n^2)
    vectorised work; sequences longer than
    :data:`SELF_CONTRACTED_MAX_POINTS` are refused rather than sampled.
    """
    tol = finite_number(tol, "tol")
    if tol < 0:
        raise InputError(f"tol must be nonnegative, got {tol!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2:
        raise InputError("points must form an (n, d) array")
    n = pts.shape[0]
    if n > SELF_CONTRACTED_MAX_POINTS:
        raise InputError(
            f"refusing exhaustive check beyond {SELF_CONTRACTED_MAX_POINTS} points (got {n})"
        )
    if n < 3:
        return SelfContractedVerdict(holds=True)

    slack = float("inf")
    for s3 in range(2, n):
        r = np.linalg.norm(pts[:s3] - pts[s3], axis=1)
        running_min = np.minimum.accumulate(r[:-1])
        margins = running_min - r[1:]  # >= -tol required for s2 = 1..s3-1
        worst = int(np.argmin(margins))
        if margins[worst] < -tol:
            s2 = worst + 1
            s1 = int(np.argmin(r[:s2]))
            return SelfContractedVerdict(
                holds=False,
                witness=(s1, s2, s3),
                dist_mid=float(r[s2]),
                dist_far=float(r[s1]),
                slack=float(margins[worst]),
            )
        slack = min(slack, float(margins[worst]))
    return SelfContractedVerdict(holds=True, slack=slack)


# ---------------------------------------------------------------------------
# Observers: called as observe(x, f, g) with every iterate of a discrete run
# ---------------------------------------------------------------------------


class PlRatio:
    """Running min and max of the PL ratio ||g||^2 / (2 (f(x) - f*)).

    Call it as ``observe(x, f, g)`` with each iterate, its value and its
    gradient, e.g. ``gd_run(..., observe=PlRatio(obj))``,
    so the ratio is taken inside the loop that already holds f and g.
    Points with f(x) - f* <= 1e-300 are skipped.
    """

    def __init__(self, obj: ObjectiveSpec):
        if obj.f_star is None:
            raise InputError("effective PL constant requires a declared minimum value")
        self._f_star = obj.f_star
        self.lo = math.inf
        self.hi = -math.inf
        self.count = 0

    def __call__(self, x: Array, f: float, g: Array):
        gap = f - self._f_star
        if gap > 1e-300:
            # the same bits as np.sum(g**2), without np.sum's wrapper
            ratio = float(np.add.reduce(g * g)) / (2.0 * gap)
            if ratio < self.lo:
                self.lo = ratio
            if ratio > self.hi:
                self.hi = ratio
            self.count += 1

    def aggregate(self, mode: str = "min") -> float:
        """``mode="min"`` returns the largest constant valid on the observed
        set (the mathematically meaningful choice); ``mode="paper_max"``
        returns the maximum instead, reproducing a published experimental
        protocol verbatim."""
        if mode not in ("min", "paper_max"):
            raise InputError(f"unknown mode {mode!r}")
        if not self.count:
            raise InputError("ratio undefined: all iterates are at the optimum")
        return self.lo if mode == "min" else self.hi


class NoOvershoot:
    """Whether no coordinate ever crosses or moves away from its optimal interval.

    Per coordinate and per consecutive pair of observed iterates, the
    deviation from the interval must keep its side and must not grow.
    Only the last deviation is kept, so memory is O(d); ``holds`` is the
    verdict so far.
    """

    def __init__(self, optimal_set: IntervalProductSet):
        if not isinstance(optimal_set, IntervalProductSet):
            raise InputError("requires per-coordinate interval optimal sets")
        self._lo, self._hi = optimal_set.lo, optimal_set.hi
        self._dev = None
        self.holds = True

    def __call__(self, x: Array, f: float, g: Array):
        prev = self._dev
        self._dev = dev = x - np.clip(x, self._lo, self._hi)
        if self.holds and prev is not None:
            crossed = np.any(np.sign(prev) * np.sign(dev) < 0)
            self.holds = not crossed and bool(np.all(np.abs(dev) <= np.abs(prev)))


class DistanceEnvelope:
    """Distance to the optimal set of each observed iterate, one float each,
    for the linear envelope dist_k <= A (1-c)^k dist_0 (:meth:`fit`)."""

    def __init__(self, optimal_set: OptimalSet):
        self._distance = optimal_set.distance
        self.dists: list[float] = []

    def __call__(self, x: Array, f: float, g: Array):
        self.dists.append(self._distance(x))

    def fit(self) -> tuple[float, float]:
        """Tightest (A, c) envelope on the observed iterates.

        c is one minus the worst consecutive distance ratio; A is then the
        smallest admissible prefactor (at least 1).  The fitted pair is
        re-verified on every observed step before being returned.
        """
        dists = self.dists
        if len(dists) < 2:
            raise InputError("need at least two iterates to fit a rate")
        ratios = [dists[k + 1] / dists[k] for k in range(len(dists) - 1) if dists[k] > 0]
        # with dist_0 = 0 the envelope is 0 from step 1 on, so the loop
        # below accepts (1, 1) only if every distance is 0
        worst = max(ratios, default=0.0)
        if worst >= 1.0:
            raise InputError("no linear envelope: distances are not strictly decreasing")
        c = 1.0 - worst
        a = 1.0
        envelope = dists[0]
        for k in range(1, len(dists)):
            envelope *= 1.0 - c
            if envelope > 0:
                a = max(a, dists[k] / envelope)
            elif dists[k] > 0:
                raise InputError("no linear envelope: distances are not strictly decreasing")
        envelope = dists[0]
        for k in range(1, len(dists)):
            envelope *= 1.0 - c
            if dists[k] > a * envelope * (1 + 1e-12) + 1e-300:
                raise InputError("fitted envelope failed re-verification")  # pragma: no cover
        return float(a), float(c)


def effective_pkl_mu(traj: Trajectory, obj: ObjectiveSpec, mode: str = "min") -> float:
    """:class:`PlRatio` aggregate over a record of every iterate x_0 ... x_N,
    such as the points an ``observe`` callback saw.  A run's own record of
    x_0 and x_N is refused after two steps or more: a min over a subset
    overstates mu."""
    if len(traj.points) != traj.n_steps + 1:
        raise InputError(
            f"this analysis needs every iterate; "
            f"the record holds {len(traj.points)} of {traj.n_steps + 1}"
        )
    pl = PlRatio(obj)
    for point in traj.points:
        pl(point, *obj.value_and_gradient_at(point))
    return pl.aggregate(mode)
