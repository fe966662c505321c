"""Worst-case lower-bound instances with their initial points and step sizes.

The PL instance is a separable sum of copies of a piecewise scalar
function g that is quadratic near the origin, tapers through a concave
and then a linear stretch, and rejoins a shallow quadratic tail; the
initial point staggers the coordinates so that they are captured one
per stage, which makes the trajectory follow cube edges rather than the
diagonal; g and g' are written in place, one index run per piece of
the sorted coordinates.  The quadratic instance has a geometric spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, finite_number, positive_number
from .objectives import Array, IntervalProductSet, ObjectiveSpec, QuadraticSpec


#: Smallest dimension of the PL lower-bound construction.
PKL_MIN_DIM = 6

#: Capture threshold of the geometric-spectrum quadratic's checkpoint
#: schedule under the eta = 1/(2 a_1) descent.
QUAD_GD_DELTA = math.exp(-3.0)


def _require_dim(d: int) -> int:
    d = finite_number(d, "d", int)
    if d < PKL_MIN_DIM:
        raise InputError(f"the PL lower-bound construction requires an integer d >= {PKL_MIN_DIM}")
    return d


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

    :meth:`_write` writes g and g' of an ascending vector into the caller's
    outputs, one index run per piece found with 4 binary searches, by
    positional ``out`` ufuncs on the run's slices.  Descent on the staircase
    takes that path as it is: the staggered x0 is ascending (unless a
    reduced construction is lifted, which appends zeros), and with
    eta * L <= 1 the scalar map x -> x - eta g'(x) is nondecreasing, so
    every iterate is ascending too.  The order test, not that argument,
    makes each call correct; any other input is written in one stable sort
    order and scattered back, which keeps every bit, as the writer is
    elementwise.
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
        d = _require_dim(d)
        delta = 1.0 / d
        gamma = 1.0 - delta + 6.0 * math.log(1.0 / (2.0 * delta))
        quad_coeff = delta / gamma
        quad_offset = (0.5 - delta**2) + 2.0 * delta * (gamma - (1.0 - delta)) - quad_coeff * gamma**2
        return cls(
            d=d, delta=delta, gamma=gamma,
            quad_coeff=quad_coeff, quad_offset=quad_offset,
            L=2.0, mu=2.0 / (3.0 * d**2),
        )

    def __post_init__(self):
        object.__setattr__(self, "_edges", np.array(self.breakpoints))

    @property
    def breakpoints(self) -> tuple[float, float, float, float]:
        return (0.0, 0.5, 1.0 - self.delta, self.gamma)

    def _write(self, xs: Array, value: Array | None, deriv: Array) -> None:
        """g (unless ``value`` is None) and g' at an ascending 1-D ``xs``, into
        float64 outputs of its shape, by each piece's IEEE operations in the
        formula's order.  Piece i is the run b_(i-1) < x <= b_i (piece 4 also
        holds NaN, which sorts last); an empty run is not touched."""
        e1, e2, e3, e4 = xs.searchsorted(self._edges, "right").tolist()
        delta, coeff = self.delta, self.quad_coeff
        if e1:
            deriv[:e1].fill(0.0)
            if value is not None:
                value[:e1].fill(0.0)
        if e1 < e2:  # x^2
            x = xs[e1:e2]
            if value is not None:
                np.square(x, value[e1:e2])
            np.multiply(2.0, x, deriv[e1:e2])
        if e2 < e3:  # 0.5 - (1 - x)^2
            u = np.subtract(1.0, xs[e2:e3], deriv[e2:e3])
            if value is not None:
                v = np.square(u, value[e2:e3])
                np.subtract(0.5, v, v)
            np.multiply(2.0, u, u)
        if e3 < e4:  # (0.5 - delta^2) + 2 delta (x - (1 - delta))
            if value is not None:
                v = np.subtract(xs[e3:e4], 1.0 - delta, value[e3:e4])
                np.multiply(2.0 * delta, v, v)
                np.add(0.5 - delta**2, v, v)
            deriv[e3:e4].fill(2.0 * delta)
        if e4 < xs.size:  # quad_offset + quad_coeff x^2
            x = xs[e4:]
            if value is not None:
                v = np.square(x, value[e4:])
                np.multiply(coeff, v, v)
                np.add(self.quad_offset, v, v)
            np.multiply(2.0 * coeff, x, deriv[e4:])

    def _evaluate(self, x: Array, value: Array | None, deriv: Array) -> None:
        """:meth:`_write` for any float64 ``x``: an ascending vector as it is,
        any other input (unsorted, with a NaN, a batch or 0-d) in the order
        of one stable sort of its entries, scattered back."""
        if x.ndim == 1 and np.count_nonzero(x[:-1] <= x[1:]) == x.size - 1:
            return self._write(x, value, deriv)
        flat = x.ravel()
        order = np.argsort(flat, kind="stable")
        sorted_value = None if value is None else np.empty(x.size)
        sorted_deriv = np.empty(x.size)
        self._write(flat[order], sorted_value, sorted_deriv)
        deriv.reshape(-1)[order] = sorted_deriv
        if value is not None:
            value.reshape(-1)[order] = sorted_value

    def g_and_deriv(self, x) -> tuple[Array, Array]:
        """``(g(x), g'(x))`` from one selection of the pieces."""
        x = np.asarray(x, dtype=float)
        value, deriv = np.empty(x.shape), np.empty(x.shape)
        self._evaluate(x, value, deriv)
        return value, deriv

    def g(self, x) -> Array:
        return self.g_and_deriv(x)[0]

    def g_deriv(self, x) -> Array:
        x = np.asarray(x, dtype=float)
        deriv = np.empty(x.shape)
        self._evaluate(x, None, deriv)
        return deriv

    def to_objective(self, name: str, dim: int | None = None) -> ObjectiveSpec:
        """The separable objective sum_i g(x_i) in dimension ``dim``.

        ``dim`` defaults to ``d``; a larger ``dim`` lifts a reduced
        construction, whose extra coordinates then stay idle at 0.
        """
        dim = self.d if dim is None else finite_number(dim, "dimension", int)
        if dim < self.d:
            raise InputError(f"cannot embed the d={self.d} construction in dimension {dim}")

        def value_and_gradient(x):
            value, deriv = self.g_and_deriv(x)
            return np.add.reduce(value, -1), deriv

        return ObjectiveSpec(
            dim=dim,
            value=lambda x: self.g(x).sum(axis=-1),
            gradient=self.g_deriv,
            value_and_gradient=value_and_gradient,
            gradient_into=lambda x, out: self._evaluate(x, None, out),
            L=self.L,
            mu=self.mu,
            f_star=0.0,
            optimal_set=IntervalProductSet(
                lo=np.full(dim, -math.inf), hi=np.zeros(dim)
            ),
            name=name,
        )


def _active_dimension(d: int, target_kappa: float | None) -> int:
    """d (already checked), or with ``target_kappa`` the largest d' with
    3 d'^2 <= target_kappa (at least 6), capped at d.

    Implements the component-dropping reduction used when the requested
    condition number is below 3 d^2.
    """
    if target_kappa is None:
        return d
    target_kappa = finite_number(target_kappa, "target_kappa")
    if target_kappa < 216:
        raise InputError("target_kappa must be at least 216")
    d_prime = int(math.floor(math.sqrt(target_kappa / 3.0)))
    return max(PKL_MIN_DIM, min(d, d_prime))


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
    d = _require_dim(d)
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
    d = _require_dim(d)
    ratio = d / 2.0
    for k1 in range(1, int(3.0 * math.log(ratio)) + 3):
        eta = (ratio ** (1.0 / k1) - 1.0) / 2.0
        if 0.25 <= eta <= 0.5:
            return eta, k1
    raise InputError(f"no admissible stage length for d={d}")  # pragma: no cover


def build_pkl_gd_instance(d: int, target_kappa: float | None = None) -> PklGdInstance:
    """Descent instance: staggered x0 with spacing 2 eta k1 delta."""
    d = _require_dim(d)
    kind = PklConstruction.build(_active_dimension(d, target_kappa))
    eta, k1 = select_gd_stage(kind.d)
    x0 = _staggered_x0(d, kind, 2.0 * eta * k1 * kind.delta)
    obj = kind.to_objective(name=f"pkl-lower-gd(d={d})", dim=d)
    return PklGdInstance(objective=obj, x0=x0, eta=eta, k1=k1, construction=kind)


# ---------------------------------------------------------------------------
# Quadratic lower-bound constructions
# ---------------------------------------------------------------------------


def build_quad_lower(d: int, omega: float) -> QuadraticSpec:
    """Geometric-spectrum quadratic 0.5 * sum_i a_i x_i^2, a_i = omega^(d-i),
    with x0 = all-ones and condition number omega^(d-1).  The spectrum is
    already descending, so the basis is the identity permutation (d
    integers); like every diagonal spec's, its objective evaluates the
    gradient elementwise.  The descent eta = 1/(2 a_1) (:func:`gd_step`)
    passes coordinate i after k_i = 3 omega^(i-1) steps
    (QUAD_GD_DELTA = e^-3), integers whenever omega is an integer."""
    d, omega = positive_number(d, "dimension", int), finite_number(omega, "omega")
    if omega <= 1:
        raise InputError("omega must be finite and exceed 1")
    powers = np.arange(d - 1, -1, -1, dtype=float)
    return QuadraticSpec.diagonal(np.power(omega, powers), np.ones(d))


def gd_step(spec: QuadraticSpec) -> float:
    """Descent step 1/(2 sigma_1) of the quadratic lower bounds."""
    return 1.0 / (2.0 * float(spec.sigma[0]))


def build_quad_random(d: int, kappa: float, seed: int) -> QuadraticSpec:
    """Random-spectrum comparison quadratic 0.5 * sum_i a_i x_i^2: a_1 = 1,
    a_d = 1/kappa, interior Unif(1/kappa, 1); x0 scaled to ||x0|| = sqrt(d).

    Draws come from a seeded counter-based generator (Philox), so a
    fixed seed reproduces the instance bit-for-bit across runs.
    """
    d, kappa = finite_number(d, "d", int), finite_number(kappa, "kappa")
    seed = finite_number(seed, "seed", int)
    if d < 2:
        raise InputError("random spectra need d >= 2")
    if kappa <= 1:
        raise InputError("kappa must be finite and exceed 1")
    if seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    a = np.empty(d)
    a[0] = 1.0
    a[-1] = 1.0 / kappa
    if d > 2:
        a[1:-1] = rng.uniform(1.0 / kappa, 1.0, d - 2)
    x0 = rng.uniform(0.0, 1.0, d)
    x0 *= math.sqrt(d) / float(np.linalg.norm(x0))
    return QuadraticSpec.diagonal(a, x0)


def construction_linconv_constants(d: int, which: str = "gf") -> tuple[float, float]:
    """Certified (A, c) of the PL instance: c = 1/(4 d log d) for the flow,
    1/(16 d log d) for descent, both with A = 1."""
    d = _require_dim(d)
    if which == "gf":
        return 1.0, 1.0 / (4.0 * d * math.log(d))
    if which == "gd":
        return 1.0, 1.0 / (16.0 * d * math.log(d))
    raise InputError(f"unknown variant {which!r}")
