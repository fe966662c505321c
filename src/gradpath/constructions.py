"""Worst-case lower-bound instances with their initial points and step sizes.

The PL instance is a separable sum of copies of a piecewise scalar
function g that is quadratic near the origin, tapers through a concave
and then a linear stretch, and rejoins a shallow quadratic tail; the
initial point staggers the coordinates so that they are captured one
per stage, which makes the trajectory follow cube edges rather than the
diagonal.  The quadratic instance has a geometric spectrum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError, finite_number
from .objectives import Array, IntervalProductSet, ObjectiveSpec, QuadraticSpec, as_vector


def _require_dim(d: int, minimum: int = 6):
    if d != int(d) or d < minimum:
        raise InputError(f"the PL lower-bound construction requires an integer d >= {minimum}")


@dataclass(frozen=True)
class PklConstruction:
    """Scalar component of the PL lower-bound objective.

    Pieces of g (delta = 1/d):
      x <= 0             : 0
      0 <= x <= 0.5      : x^2
      0.5 <= x <= 1-delta: 0.5 - (1-x)^2
      1-delta <= x <= gam: (0.5 - delta^2) + 2 delta (x - (1-delta))
      x >= gam           : quad_offset + quad_coeff * x^2

    gamma = 1 - delta + 6 log(1/(2 delta)); the tail coefficients make g
    continuously differentiable at gamma.  Globally L = 2 and the PL
    constant is mu = 2/(3 d^2).
    """

    d: int
    delta: float
    gamma: float
    quad_coeff: float   # tail x^2 coefficient (delta/gamma)
    quad_offset: float  # tail additive constant
    L: float
    mu: float

    @classmethod
    def build(cls, d: int) -> "PklConstruction":
        _require_dim(d)
        delta = 1.0 / d
        gamma = 1.0 - delta + 6.0 * math.log(1.0 / (2.0 * delta))
        quad_coeff = delta / gamma
        quad_offset = (0.5 - delta**2) + 2.0 * delta * (gamma - (1.0 - delta)) - quad_coeff * gamma**2
        return cls(
            d=int(d), delta=delta, gamma=gamma,
            quad_coeff=quad_coeff, quad_offset=quad_offset,
            L=2.0, mu=2.0 / (3.0 * d**2),
        )

    def __post_init__(self):
        # Interval lookup: piece i of g holds the x with b_(i-1) < x <= b_i
        # (piece 4: x > gamma, and NaN), and g' is slope_i * x + offset_i
        # there.  In piece 2, -2x + 2 equals 2(1 - x) exactly (both are
        # exact for x in [0.5, 1]).
        object.__setattr__(self, "_edges", np.array(self.breakpoints))
        object.__setattr__(self, "_slope", np.array([0.0, 2.0, -2.0, 0.0, 2.0 * self.quad_coeff]))
        object.__setattr__(self, "_offset", np.array([0.0, 0.0, 2.0, 2.0 * self.delta, 0.0]))

    @property
    def breakpoints(self) -> tuple[float, float, float, float]:
        return (0.0, 0.5, 1.0 - self.delta, self.gamma)

    def g(self, x):
        x = np.asarray(x, dtype=float)
        piece = np.searchsorted(self._edges, x)
        out = np.zeros(x.shape)  # piece 0
        m = piece == 1
        out[m] = x[m] ** 2
        m = piece == 2
        out[m] = 0.5 - (1.0 - x[m]) ** 2
        m = piece == 3
        out[m] = (0.5 - self.delta**2) + 2.0 * self.delta * (x[m] - (1.0 - self.delta))
        m = piece == 4
        out[m] = self.quad_offset + self.quad_coeff * x[m] ** 2
        return out

    def g_deriv(self, x):
        x = np.asarray(x, dtype=float)
        piece = np.searchsorted(self._edges, x)
        # max(x, 0) keeps piece 0 at 0 for x = -inf, where 0 * x is NaN
        return self._slope[piece] * np.maximum(x, 0.0) + self._offset[piece]

    def to_objective(self, name: str, dim: int | None = None) -> ObjectiveSpec:
        """The separable objective sum_i g(x_i) in dimension ``dim``.

        ``dim`` defaults to ``d``; a larger ``dim`` lifts a reduced
        construction, whose extra coordinates then stay idle at 0.
        """
        dim = self.d if dim is None else int(dim)
        if dim < self.d:
            raise InputError(f"cannot embed the d={self.d} construction in dimension {dim}")
        return ObjectiveSpec(
            dim=dim,
            value=lambda x: self.g(x).sum(axis=-1),
            gradient=self.g_deriv,
            L=self.L,
            mu=self.mu,
            f_star=0.0,
            optimal_set=IntervalProductSet(
                lo=np.full(dim, -math.inf), hi=np.zeros(dim)
            ),
            name=name,
        )


def _active_dimension(d: int, target_kappa: float | None) -> int:
    """d, or with ``target_kappa`` the largest d' with 3 d'^2 <= target_kappa
    (at least 6), capped at d.

    Implements the component-dropping reduction used when the requested
    condition number is below 3 d^2.
    """
    _require_dim(d)
    if target_kappa is None:
        return d
    target_kappa = finite_number(target_kappa, "target_kappa")
    if target_kappa < 216:
        raise InputError("target_kappa must be at least 216")
    d_prime = int(math.floor(math.sqrt(target_kappa / 3.0)))
    return max(6, min(d, d_prime))


def _staggered_x0(d: int, kind: PklConstruction, spacing: float) -> Array:
    """x0 in dimension d: 0.5, then the other active coordinates from
    1 - delta on, ``spacing`` apart; coordinates past ``kind.d`` stay 0."""
    x0 = np.zeros(d)
    x0[0] = 0.5
    x0[1:kind.d] = (1.0 - kind.delta) + spacing * np.arange(kind.d - 1)
    return x0


@dataclass(frozen=True)
class PklGfInstance:
    objective: ObjectiveSpec
    x0: Array
    construction: PklConstruction

    @property
    def stage_time(self) -> float:
        """Flow time for one component capture: log(1/(2 delta)) / 2."""
        return math.log(1.0 / (2.0 * self.construction.delta)) / 2.0


def build_pkl_gf_instance(d: int, target_kappa: float | None = None) -> PklGfInstance:
    """Flow instance: staggered x0 with spacing delta * log(1/(2 delta)).

    ``target_kappa`` (if given) shrinks the number of active components
    so the nominal condition number 3 d'^2 does not exceed it.
    """
    kind = PklConstruction.build(_active_dimension(d, target_kappa))
    x0 = _staggered_x0(d, kind, kind.delta * math.log(1.0 / (2.0 * kind.delta)))
    obj = kind.to_objective(name=f"pkl-lower-gf(d={d})", dim=d)
    return PklGfInstance(objective=obj, x0=x0, construction=kind)


@dataclass(frozen=True)
class PklGdInstance:
    """Descent instance with its admissible step and stage length.

    eta lies in [1/4, 1/2] and satisfies (1 + 2 eta)^k1 = 1/(2 delta)
    exactly, so a staged component reaches 0.5 after k1 steps.
    """

    objective: ObjectiveSpec
    x0: Array
    eta: float
    k1: int
    construction: PklConstruction

    def __post_init__(self):
        if not (0.25 <= self.eta <= 0.5):
            raise InputError("eta must lie in [1/4, 1/2]")


def select_gd_stage(d: int) -> tuple[float, int]:
    """Smallest k1 with eta = ((d/2)^(1/k1) - 1)/2 in [1/4, 1/2]."""
    _require_dim(d)
    ratio = d / 2.0
    for k1 in range(1, int(3.0 * math.log(ratio)) + 3):
        eta = (ratio ** (1.0 / k1) - 1.0) / 2.0
        if 0.25 <= eta <= 0.5:
            return eta, k1
    raise InputError(f"no admissible stage length for d={d}")  # pragma: no cover


def build_pkl_gd_instance(d: int, target_kappa: float | None = None) -> PklGdInstance:
    """Descent instance: staggered x0 with spacing 2 eta k1 delta."""
    kind = PklConstruction.build(_active_dimension(d, target_kappa))
    eta, k1 = select_gd_stage(kind.d)
    x0 = _staggered_x0(d, kind, 2.0 * eta * k1 * kind.delta)
    obj = kind.to_objective(name=f"pkl-lower-gd(d={d})", dim=d)
    return PklGdInstance(objective=obj, x0=x0, eta=eta, k1=k1, construction=kind)


# ---------------------------------------------------------------------------
# Quadratic lower-bound constructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadLowerConstruction:
    """Separable quadratic 0.5 * sum_i a_i x_i^2 with geometric spectrum.

    a_i = omega^(d-i), x0 = (1, ..., 1), condition number omega^(d-1).
    The checkpoint schedules replay the capture argument: the flow
    passes coordinate i at t_i = log(1/0.07)/a_i, the eta = 1/(2 a_1)
    iteration at k_i = 3 omega^(i-1) steps (delta = e^-3), which are
    integers whenever omega is an integer.
    """

    d: int
    omega: float
    spectrum: Array            # descending
    x0: Array
    gf_delta: float = 0.07
    gd_delta: float = math.exp(-3.0)

    @classmethod
    def build(cls, d: int, omega: float) -> "QuadLowerConstruction":
        if d != int(d) or d < 1:
            raise InputError("dimension must be a positive integer")
        if not 1 < omega < math.inf:
            raise InputError("omega must be finite and exceed 1")
        powers = np.arange(d - 1, -1, -1, dtype=float)
        return cls(
            d=int(d), omega=float(omega),
            spectrum=np.power(omega, powers),
            x0=np.ones(int(d)),
        )

    @property
    def kappa(self) -> float:
        return float(self.omega ** (self.d - 1))

    @property
    def log_kappa(self) -> float:
        return (self.d - 1) * math.log(self.omega)

    @property
    def eta(self) -> float:
        """Descent step 1/(2 a_1)."""
        return 1.0 / (2.0 * float(self.spectrum[0]))

    @property
    def dist0(self) -> float:
        return math.sqrt(self.d)

    @property
    def gf_checkpoints(self) -> Array:
        return math.log(1.0 / self.gf_delta) / self.spectrum

    @property
    def gd_checkpoints(self) -> Array:
        return float(self.spectrum[0]) * math.log(1.0 / self.gd_delta) / self.spectrum

    def to_quadratic(self) -> QuadraticSpec:
        return QuadraticSpec.diagonal(self.spectrum, self.x0)

    def to_objective(self) -> ObjectiveSpec:
        return self.to_quadratic().to_objective(name=f"quad-geom(d={self.d},omega={self.omega})")


def build_quad_lower(d: int, omega: float) -> QuadLowerConstruction:
    """Geometric-spectrum quadratic with x0 = all-ones."""
    return QuadLowerConstruction.build(d, omega)


@dataclass(frozen=True)
class QuadRandomInstance:
    """Random-spectrum comparison quadratic (endpoints pinned to 1 and 1/kappa)."""

    d: int
    kappa: float
    seed: int
    coefficients: Array
    x0: Array

    def to_quadratic(self) -> QuadraticSpec:
        return QuadraticSpec.diagonal(self.coefficients, self.x0)

    def to_objective(self) -> ObjectiveSpec:
        return self.to_quadratic().to_objective(
            name=f"quad-random(d={self.d},kappa={self.kappa:g},seed={self.seed})"
        )


def build_quad_random(d: int, kappa: float, seed: int) -> QuadRandomInstance:
    """Spectrum a_1 = 1, a_d = 1/kappa, interior Unif(1/kappa, 1); x0 scaled to ||x0|| = sqrt(d).

    Draws come from a seeded counter-based generator (Philox), so a
    fixed seed reproduces the instance bit-for-bit across runs.
    """
    if d < 2:
        raise InputError("random spectra need d >= 2")
    if not 1 < kappa < math.inf:
        raise InputError("kappa must be finite and exceed 1")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    a = np.empty(d)
    a[0] = 1.0
    a[-1] = 1.0 / kappa
    if d > 2:
        a[1:-1] = rng.uniform(1.0 / kappa, 1.0, d - 2)
    x0 = rng.uniform(0.0, 1.0, d)
    x0 *= math.sqrt(d) / float(np.linalg.norm(x0))
    return QuadRandomInstance(d=int(d), kappa=float(kappa), seed=int(seed),
                              coefficients=a, x0=x0)


def construction_linconv_constants(d: int, which: str = "gf") -> tuple[float, float]:
    """Certified (A, c) of the PL instance: c = 1/(4 d log d) for the flow,
    1/(16 d log d) for descent, both with A = 1."""
    _require_dim(d)
    if which == "gf":
        return 1.0, 1.0 / (4.0 * d * math.log(d))
    if which == "gd":
        return 1.0, 1.0 / (16.0 * d * math.log(d))
    raise InputError(f"unknown variant {which!r}")
